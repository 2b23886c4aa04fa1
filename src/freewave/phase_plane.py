"""Phase-plane shooting for semi-waves, fronts and compact-profile halves.

A decreasing semi-wave at speed c is a solution of

    phi'' + c phi' + f(phi) = 0 on (-inf, 0],  phi(-inf) = 1,  phi(0) = 0,

strictly decreasing. In the phase plane (phi, Phi = phi') it is the branch
of the unstable manifold of the saddle (1, 0) that reaches phi = 0 with
Phi < 0. Every shot integrates this equation forward in z from one of two
launches, keyed by `apex`: None for the saddle, launched from its
linearized manifold at distance delta = 1e-6, or sigma for a compact
profile's apex (sigma, 0) (see compact_wave). The launch is the only
difference; one rule classifies, caches, bisects and traps both:

* crosses_zero: phi falls through 0 with genuinely negative slope;
* converges_origin: the trajectory approaches (0, 0) without crossing;
* stalls: Phi turns back to 0 at interior phi, or the trajectory is
  captured by an interior equilibrium.

Integration runs in pure-relative mode (abs_tol ~ 1e-300): near-critical
crossing slopes decay like exp(-c*pi/(2*omega)) and underflow any absolute
floor long before they stop being meaningful, so the crossing test uses a
tiny representability floor instead of a fixed threshold.
Critical speeds and compact-wave window edges are bisected on shot tags
inside [c_focus, 2 sqrt(K)], K = max f(u)/u, with c_focus = 2 sqrt(f'(0))
for monostable f and 0 for bistable f: every shot crosses below c_focus
and none from 2 sqrt(K) on (_critical_speed_cached). Neither end costs a
shot, every bisected speed is accurate to tol, and KPP-type terms,
f(u) <= f'(0) u, get c* = 2 sqrt(f'(0)) exactly (linear determinacy).
Bisection shots run to z = 450, slope and profile shots to z = 400 (a
monostable profile past the node speed further, until its slow mode
reaches the cut), and the bisection's shot tolerance follows tol. Above
the node speed 2 sqrt(f'(0)) a monostable shot carries the node trap
(_node_trap): it stops, with the tag the full-horizon shot would get, as
soon as the orbit enters the wedge phi <= phi0, -c phi / 2 <= Phi <= 0,
which it can leave only into the origin; a shot launched inside it is not
integrated at all.

Increasing semi-waves (psi(0) = 0, psi(+inf) = 1, psi' > 0) are exact
mirror images: psi(z; c) for g equals phi(-z; -c), so all increasing-side
quantities are computed by reflection and share every code path.

Profiles are reconstructed from the same saddle-launched trajectory that
produced the slope (integrated in its stable, downhill direction) and
extended to the far tolerance by the linearized-manifold exponential tail;
integrating backward from the interface toward the saddle is numerically
unstable and is deliberately avoided. Profiles are sampled at spacing
min(MAX_DZ, DZ_RATE / r), r the steepest exponential rate: the launch rate
mu, or for a front the larger of mu and its tail's decay rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidReaction, NoSemiWave
from .ode_core import bisect_predicate, find_root_monotone, integrate
from .reaction import ReactionSpec, derivative_at, evaluate, primitive_at

LAUNCH_DELTA = 1e-6       # offset along the unstable manifold of (1, 0)
SLOPE_FLOOR = 1e-280      # smallest slope still counted as a real crossing
STALL_MIN_PHI = 1e-6      # Phi = 0 above this phi is a stall, below it a convergence
STOP_SPEED_EPS = 1e-13    # |Phi| floor of the interior-capture event
STOP_PHI_FLOOR = 1e-2     # capture requires phi above this, so origin approaches stay silent
Z_CAP_TAG = 450.0         # horizon for bisection tag shots
Z_CAP_SLOPE = 400.0       # horizon for slope and profile shots
TAG_REL_TOL = 1e-7
SLOPE_REL_TOL = 1e-12
PURE_REL_ABS_TOL = 1e-300
DENSE_MAX_STEP = 0.1      # dense interpolants lose accuracy over long steps
FRONT_TAIL_CUT = 1e-4     # hand off to the analytic tail above the level where
                          # the finite speed error starts to bend the orbit
FAR_TOL = 1e-8            # far-field level of every profile but semiwave_profile's
FRONT_SPEED_TOL = 1e-8    # bisection tolerance of a front's speed, before its polish
MAX_DZ = 0.01             # profile grid spacing for rates up to DZ_RATE / MAX_DZ = 2
DZ_RATE = 0.02            # grid spacing times the steepest rate, above that

CROSSES = "crosses_zero"
CONVERGES = "converges_origin"
STALLS = "stalls"


@dataclass(frozen=True)
class TrajectoryOutcome:
    """Classified result of one phase-plane shot at speed c."""

    tag: str
    c: float
    z_stop: float
    phi_stop: float
    dphi_stop: float


def _check_apex(f: ReactionSpec, sigma: float) -> None:
    if not 0.0 < sigma < 1.0:
        raise Infeasible("apex height must lie in (0, 1), got %g" % sigma)
    if evaluate(f, sigma) <= 0.0:
        raise Infeasible(
            "apex height %g has f2(sigma) <= 0; the profile cannot bend down there" % sigma)
    if primitive_at(f, sigma) <= 0.0:
        raise Infeasible(
            "apex energy F2(%g) = %g is not positive; no edge connection exists"
            % (sigma, primitive_at(f, sigma)))


def _launch_state(f: ReactionSpec, c: float, apex=None) -> tuple:
    """The shot's start and the saddle's launch rate mu: a point of the
    saddle's linearized unstable manifold, or (apex, 0) with mu None."""
    if apex is not None:
        _check_apex(f, apex)
        return (apex, 0.0), None
    fp1 = derivative_at(f, 1.0)
    if fp1 >= 0.0:
        raise InvalidReaction("decreasing shots need f'(1) < 0, got %g" % fp1)
    mu = 0.5 * (-c + math.sqrt(c * c - 4.0 * fp1))
    return (1.0 - LAUNCH_DELTA, -mu * LAUNCH_DELTA), mu


def _cross(z, y):
    return y[0]


def _turn(z, y):
    return y[1]


def _capture(z, y):
    # fires when the state decays onto an interior equilibrium: |Phi| below
    # noise while phi is still well inside (0, 1); the max() keeps it silent
    # near the launch point and near the origin
    return max(abs(y[1]) - STOP_SPEED_EPS, STOP_PHI_FLOOR - y[0])


# the terminal events of every shot, in the order _classify reads them
_cross.terminal = _turn.terminal = _capture.terminal = True
_cross.direction, _turn.direction, _capture.direction = -1.0, 1.0, -1.0
_SHOT_EVENTS = (_cross, _turn, _capture)


def _classify(traj, c: float) -> TrajectoryOutcome:
    hit = traj.first_event(0)
    if hit is not None:
        z_c, y_c = hit
        if y_c[1] <= -SLOPE_FLOOR:
            return TrajectoryOutcome(CROSSES, c, z_c, 0.0, y_c[1])
        return TrajectoryOutcome(CONVERGES, c, z_c, y_c[0], y_c[1])
    hit = traj.first_event(1)
    if hit is not None:
        z_t, y_t = hit
        if y_t[0] >= STALL_MIN_PHI:
            return TrajectoryOutcome(STALLS, c, z_t, y_t[0], y_t[1])
        return TrajectoryOutcome(CONVERGES, c, z_t, y_t[0], y_t[1])
    hit = traj.first_event(2)
    if hit is not None:
        z_s, y_s = hit
        return TrajectoryOutcome(STALLS, c, z_s, y_s[0], y_s[1])
    return TrajectoryOutcome(CONVERGES, c, traj.t[-1], *traj.y_end)


def _run_shot(f: ReactionSpec, c: float, y0, z_max: float, rel_tol: float,
              dense: bool = False, extra_events=()):
    """The one shot: phi'' + c phi' + f(phi) = 0 forward in z from y0, the
    saddle launch or a compact profile's apex (sigma, 0)."""

    # reaction.evaluate's Horner loop, inline: same floats, no ndarray test
    top_down = f.coeffs[::-1]

    def rhs(z, y):
        u, p = y
        acc = 0.0
        for a in top_down:
            acc = acc * u + a
        return (p, -c * p - acc)

    return integrate(rhs, (0.0, z_max), y0, _SHOT_EVENTS + tuple(extra_events),
                     dense_output=dense, rel_tol=rel_tol, abs_tol=PURE_REL_ABS_TOL,
                     max_step=DENSE_MAX_STEP if dense else math.inf)


def _cut_shot(f: ReactionSpec, c: float, cut: float, rel_tol: float,
              dense: bool = False, terminal: bool = False):
    """Saddle-launched slope shot that also records, as event 3, where phi
    falls through the level cut; returns the trajectory and the launch rate."""

    def tail(z, y):
        return y[0] - cut

    tail.terminal, tail.direction = terminal, -1.0
    y0, mu = _launch_state(f, c)
    z_max, fp0 = Z_CAP_SLOPE, derivative_at(f, 0.0)
    if f.kind == "monostable" and c > 0.0 and c * c > 4.0 * fp0:
        # past the node speed a front leaves the saddle at rate mu and decays
        # at the slow rate lam, both about 1 / c: give it the room for both
        lam = 0.5 * (c - math.sqrt(c * c - 4.0 * fp0))
        z_max += math.log(1.0 / cut) / lam + math.log(1.0 / LAUNCH_DELTA) / mu
    return _run_shot(f, c, y0, z_max, rel_tol, dense=dense,
                     extra_events=(tail,)), mu


def _node_trap(f: ReactionSpec, c: float) -> tuple:
    """The terminal event that fires once a shot provably cannot cross, as a
    1-tuple of extra events, or () where the argument below does not apply.

    For a monostable f and c > 2 sqrt(f'(0)) the origin is a stable node.
    Let phi0 be the smallest real part in (0, 1) of a root of
    c^2/4 - f(u)/u, or 1; complex roots count too, which only lowers phi0.
    On the line Phi = -c phi / 2 with 0 < phi <= phi0,
    d(Phi + c phi / 2)/dz = c^2 phi / 4 - f(phi) >= 0, and Phi cannot rise
    through 0 since there Phi' = -f(phi) < 0. So an orbit that enters
    {0 < phi <= phi0, Phi >= -c phi / 2} stays in it and reaches the origin
    without crossing: the shot may stop there as converges_origin.
    """
    if f.kind != "monostable" or f.coeffs[0] != 0.0 or c <= 0.0 \
            or c * c <= 4.0 * derivative_at(f, 0.0):
        return ()
    quotient = np.polynomial.Polynomial(f.coeffs[1:])
    roots = [r.real for r in (0.25 * c * c - quotient).roots() if 0.0 < r.real < 1.0]
    phi0 = min(roots, default=1.0)
    half_c = 0.5 * c

    def trapped(z, y):
        return min(phi0 - y[0], y[1] + half_c * y[0])

    trapped.terminal, trapped.direction = True, 1.0
    return (trapped,)


def _shot(f: ReactionSpec, c: float, z_max: float, rel_tol: float, apex=None,
          dense: bool = False) -> tuple:
    """One classified shot from the saddle (apex None) or from (apex, 0):
    (outcome, trajectory), the trajectory None where the node trap holds the
    launch state, which then converges to the origin without integration."""
    y0, _ = _launch_state(f, c, apex)
    trap = _node_trap(f, c)
    if trap and trap[0](0.0, y0) >= 0.0:
        return TrajectoryOutcome(CONVERGES, c, 0.0, y0[0], y0[1]), None
    traj = _run_shot(f, c, y0, z_max, rel_tol, dense=dense, extra_events=trap)
    return _classify(traj, c), traj


def shoot_decreasing(f: ReactionSpec, c: float, z_max: float = Z_CAP_TAG,
                     rel_tol: float = TAG_REL_TOL, apex=None) -> TrajectoryOutcome:
    """Classify one shot at speed c, launched from the saddle or from (apex, 0).

    A monostable shot past the node speed stops early once _node_trap shows
    it cannot cross; the tag is the one the full-horizon shot would get.
    """
    return _shot(f, c, z_max, rel_tol, apex)[0]


@functools.lru_cache(maxsize=8192)
def _slope_cached(f: ReactionSpec, apex, c: float) -> TrajectoryOutcome:
    # the outcome, not the slope: a shot that fails to cross is cached too
    return shoot_decreasing(f, c, Z_CAP_SLOPE, SLOPE_REL_TOL, apex)


def _edge_slope(f: ReactionSpec, apex, c: float) -> float:
    """Slope where the shot from the saddle (apex None) or from (apex, 0) at
    speed c falls through phi = 0; raises NoSemiWave if it does not."""
    res = _slope_cached(f, apex, float(c))
    if res.tag != CROSSES:
        what = ("decreasing semi-wave" if apex is None
                else "edge connection from the apex %g" % apex)
        raise NoSemiWave("no %s at c = %g (shot %s)" % (what, c, res.tag))
    return res.dphi_stop


def semiwave_slope(f: ReactionSpec, c: float) -> float:
    """Interface slope phi'(0; c) < 0 of the decreasing semi-wave at speed c.

    Raises NoSemiWave when the shot does not cross (c at or above the
    critical speed, where the connection ceases to exist).
    """
    return _edge_slope(f, None, c)


def semiwave_slope_increasing(g: ReactionSpec, c: float) -> float:
    """Interface slope psi'(0; c) > 0 of the increasing semi-wave at speed c."""
    return -semiwave_slope(g, -c)


def _sector_growth(f: ReactionSpec) -> float:
    """K = max of f(u)/u on [0, 1], from the critical points of the quotient
    polynomial; f(0) must be 0 exactly.

    For c >= 2 sqrt(K) let lam = (c - sqrt(c^2 - 4K)) / 2. On the line
    Phi = -lam phi, d(Phi + lam phi)/dz = K phi - f(phi) >= 0, so a shot
    launched above it stays above it and reaches phi = 0 only with Phi >= 0:
    no decreasing semi-wave exists there.
    """
    if f.coeffs[0] != 0.0:
        raise InvalidReaction("f(0) must be exactly 0, got %g" % f.coeffs[0])
    g = np.polynomial.Polynomial(f.coeffs[1:])
    points = [0.0, 1.0] + [r.real for r in g.deriv().roots()
                           if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
    return max(float(g(u)) for u in points)


@functools.lru_cache(maxsize=256)
def _critical_speed_cached(f: ReactionSpec, apex, tol: float) -> float:
    """The speed where the shot from the saddle (apex None) or from
    (apex, 0) stops crossing, bisected on [c_focus, 2 sqrt(K)].

    For monostable f and 0 <= c < c_focus = 2 sqrt(f'(0)) the energy
    Phi^2/2 + F(phi) falls along the orbit and f has no zero in (0, 1), so
    an orbit that never crossed would converge to the origin; the origin is
    a focus there, so it would spiral, and it crosses. For bistable f,
    c_focus = 0, where positive mass or apex energy makes the shot cross.
    From 2 sqrt(K) on, the sector trap (_sector_growth) holds. Neither end
    costs a shot, and KPP-type terms (c_focus = 2 sqrt(K)) get 2 sqrt(K)
    exactly with no bisection.
    """
    c_focus = 2.0 * math.sqrt(derivative_at(f, 0.0)) if f.kind == "monostable" else 0.0
    trap = 2.0 * math.sqrt(_sector_growth(f))
    if c_focus >= trap:
        return trap
    # the speed where the tag flips is only as sharp as the shots behind it,
    # so tighter speed requests get proportionally tighter integrations
    shot_rel = min(TAG_REL_TOL, max(10.0 * tol, 1e-13))

    def crosses(c):
        return c <= c_focus or (c < trap and shoot_decreasing(
            f, c, rel_tol=shot_rel, apex=apex).tag == CROSSES)

    return bisect_predicate(crosses, c_focus, trap, tol=tol)


def critical_speed_decreasing(f: ReactionSpec, tol: float = 1e-8) -> float:
    """Largest speed c* admitting a decreasing semi-wave (bisection on shot tags).

    Crossing holds for c < c* and fails for c > c*. The bisection runs on
    [c_focus, 2 sqrt(K)] (see _critical_speed_cached), so every c* is
    accurate to about tol, a linearly determinate one at 2 sqrt(f'(0))
    included, and KPP-type terms get 2 sqrt(f'(0)) exactly with no shot.
    """
    return _critical_speed_cached(f, None, float(tol))


def critical_speed_increasing(g: ReactionSpec, tol: float = 1e-8) -> float:
    """Most negative speed -c*(g) admitting an increasing semi-wave."""
    return -critical_speed_decreasing(g, tol=tol)


@dataclass(frozen=True)
class SemiWave:
    """A sampled profile phi(z) with derivative, on a uniform z grid.

    Decreasing semi-waves live on [-L, 0] with phi(0) = 0; increasing ones
    on [0, L]; full-line fronts span both signs with phi(0) = 1/2.
    """

    c: float
    z: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    far_tol: float

    @property
    def interface_slope(self) -> float:
        return float(self.dphi[-1]) if self.z[-1] == 0.0 else float(self.dphi[0])


def semiwave_profile(f: ReactionSpec, c: float, far_tol: float = FAR_TOL) -> SemiWave:
    """Sampled decreasing semi-wave on [-L, 0], phi(-L) = 1 - far_tol, phi(0) = 0.

    The interior is the dense output of the saddle-launched shot; the far
    tail continues it with the linearized-manifold exponential, whose
    equation residual is O(delta^2) and far below far_tol. The grid follows
    mu, which keeps profile_residual below 1e-6 from c = -20 up for logistic,
    cubic:0.25 and poly:0,1,3,-4; at c = -30 the check's floor is 1.6e-6.

    At a speed where the shot converges to the origin instead of crossing
    (c at or beyond the critical speed), the same trajectory is a full-line
    front; it is then returned on its whole span, normalized so that
    phi = 1/2 at z = 0. A stalling shot raises NoSemiWave.
    """
    cut = max(far_tol, 1e-6)
    traj, mu = _cut_shot(f, c, cut, SLOPE_REL_TOL, dense=True)
    out = _classify(traj, c)
    if out.tag == CROSSES:
        return _assemble_semiwave(traj, mu, c, far_tol)
    if out.tag == CONVERGES:
        return _assemble_front(traj, mu, c, far_tol, cut)
    raise NoSemiWave("no decreasing semi-wave at c = %g (shot %s)" % (c, out.tag))


def _assemble_semiwave(traj, mu: float, c: float, far_tol: float) -> SemiWave:
    z_cross, y_cross = traj.first_event(0)
    tail = 0.0
    if far_tol < LAUNCH_DELTA:
        tail = math.log(LAUNCH_DELTA / far_tol) / mu
    length = z_cross + tail
    n = max(int(math.ceil(length / min(MAX_DZ, DZ_RATE / mu))) + 1, 8)
    z = np.linspace(-length, 0.0, n)

    phi = np.empty(n)
    dphi = np.empty(n)
    inside = z >= -z_cross
    vals = traj.dense(z[inside] + z_cross)
    phi[inside] = vals[0]
    dphi[inside] = vals[1]
    eps = LAUNCH_DELTA * np.exp(mu * (z[~inside] + z_cross))
    phi[~inside] = 1.0 - eps
    dphi[~inside] = -mu * eps
    phi[-1] = 0.0
    dphi[-1] = y_cross[1]
    return SemiWave(c=c, z=z, phi=phi, dphi=dphi, far_tol=far_tol)


def _assemble_front(traj, mu: float, c: float, far_tol: float, cut: float) -> SemiWave:
    hit = traj.first_event(3)
    if hit is not None:
        z_end = float(hit[0])
        phi_end, dphi_end = float(hit[1][0]), float(hit[1][1])
    else:
        # the trajectory veered before reaching the cut; truncate at its
        # lowest point
        zs = np.linspace(0.0, traj.t[-1], 4001)
        samples = traj.dense(zs)
        k = int(np.argmin(samples[0]))
        z_end, phi_end, dphi_end = float(zs[k]), float(samples[0][k]), float(samples[1][k])
    if phi_end <= 0.0:
        raise NoSemiWave("front construction failed at c = %g" % c)

    rate = dphi_end / phi_end
    if rate >= -1e-12:
        raise NoSemiWave("front tail is not decaying at c = %g" % c)
    tail_right = math.log(phi_end / far_tol) / (-rate) if phi_end > far_tol else 0.0
    tail_left = math.log(LAUNCH_DELTA / far_tol) / mu if far_tol < LAUNCH_DELTA else 0.0

    # normalize: the half level sits at z = 0, and is itself a grid point
    if not (float(traj.dense(0.0)[0]) > 0.5 > phi_end):
        raise NoSemiWave("front construction failed at c = %g" % c)
    s_half = find_root_monotone(lambda s: float(traj.dense(s)[0]) - 0.5,
                                0.0, z_end, tol=1e-13)

    # both sides are whole multiples of dz so the grid is uniform across z = 0
    # (the analytic tails just run slightly deeper than far_tol requires)
    dz = min(MAX_DZ, DZ_RATE / max(mu, -rate))
    nl = max(int(math.ceil((tail_left + s_half) / dz)), 4)
    nr = max(int(math.ceil((z_end + tail_right - s_half) / dz)), 4)
    z = np.concatenate([np.linspace(-nl * dz, 0.0, nl + 1),
                        np.linspace(0.0, nr * dz, nr + 1)[1:]])
    s = z + s_half
    phi = np.empty_like(z)
    dphi = np.empty_like(z)
    left = s < 0.0
    mid = (s >= 0.0) & (s <= z_end)
    right = s > z_end
    eps = LAUNCH_DELTA * np.exp(mu * s[left])
    phi[left] = 1.0 - eps
    dphi[left] = -mu * eps
    vals = traj.dense(s[mid])
    phi[mid] = vals[0]
    dphi[mid] = vals[1]
    dec = phi_end * np.exp(rate * (s[right] - z_end))
    phi[right] = dec
    dphi[right] = rate * dec
    return SemiWave(c=c, z=z, phi=phi, dphi=dphi, far_tol=far_tol)


def semiwave_profile_increasing(g: ReactionSpec, c: float) -> SemiWave:
    """Sampled increasing semi-wave on [0, L], psi(0) = 0, psi(L) = 1 - FAR_TOL."""
    mirror = semiwave_profile(g, -c)
    return SemiWave(c=c, z=-mirror.z[::-1].copy(), phi=mirror.phi[::-1].copy(),
                    dphi=-mirror.dphi[::-1].copy(), far_tol=FAR_TOL)


def _growing_mode_at_cut(f: ReactionSpec, c: float, cut: float):
    """Coefficient of the origin's growing mode in the shot, read at phi = cut.

    Returns None if the orbit turns around before reaching the cut level.
    """
    traj, _ = _cut_shot(f, c, cut, SLOPE_REL_TOL, terminal=True)
    hit = traj.first_event(3)
    if hit is None:
        return None
    _, y_c = hit
    root = math.sqrt(c * c - 4.0 * derivative_at(f, 0.0))
    r_minus = 0.5 * (-c - root)
    return (y_c[1] - r_minus * y_c[0]) / root


def _polish_front_speed(f: ReactionSpec, c0: float, cut: float, tol: float) -> float:
    """One secant step driving the growing-mode coefficient at the cut to zero.

    Bisection leaves a speed error of order tol, and that miss feeds the
    origin's growing mode, bending the orbit away from the true front right
    where the profile hands off to its analytic tail.  The projection is
    near-linear in c across the bisection bracket, so a single secant step
    lands within rounding of the contamination-free speed.
    """
    b0 = _growing_mode_at_cut(f, c0, cut)
    b1 = _growing_mode_at_cut(f, c0 + tol, cut)
    if b0 is None or b1 is None or b1 == b0:
        return c0
    c1 = c0 - b0 * tol / (b1 - b0)
    if not math.isfinite(c1) or abs(c1 - c0) > 100.0 * tol:
        return c0
    return c1


def front_profile(f: ReactionSpec) -> SemiWave:
    """Full-line bistable front at its unique speed, normalized to phi(0) = 1/2."""
    if f.kind != "bistable":
        raise InvalidReaction("full-line fronts are only defined for bistable terms")
    c = critical_speed_decreasing(f, tol=FRONT_SPEED_TOL)
    # the dense data stops well above the origin and the analytic tail takes
    # over; both stay clean only if the speed is polished far beyond tol
    cut = max(FAR_TOL, FRONT_TAIL_CUT)
    c = _polish_front_speed(f, c, cut, FRONT_SPEED_TOL)
    traj, mu = _cut_shot(f, c, cut, SLOPE_REL_TOL, dense=True)
    return _assemble_front(traj, mu, c, FAR_TOL, cut)


def profile_residual(profile, f: ReactionSpec) -> float:
    """Max residual of phi'' + c phi' + f(phi) at interior grid samples.

    Each uniformly spaced run of the grid is checked on its own: a compact
    bump's grid is uniform on each side of its apex, which belongs to both
    runs. Fourth-order central stencils keep the finite-difference
    truncation well below the 1e-6 residual budget on profile grids.
    """
    z, worst = profile.z, 0.0
    # a spacing change beyond rounding of the largest |z| starts a new run
    ends = np.flatnonzero(np.abs(np.diff(z, 2)) > 1e-13 * np.max(np.abs(z))) + 1
    for a, b in zip([0, *ends], [*ends, len(z) - 1]):
        phi, dphi, h = profile.phi[a:b + 1], profile.dphi[a:b + 1], z[a + 1] - z[a]
        lap = (-phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2]
               + 16.0 * phi[3:-1] - phi[4:]) / (12.0 * h * h)
        res = lap + profile.c * dphi[2:-2] + evaluate(f, phi[2:-2])
        worst = max(worst, float(np.max(np.abs(res), initial=0.0)))
    return worst
