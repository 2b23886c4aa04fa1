"""Phase-plane shooting for decreasing and increasing semi-wave profiles.

A decreasing semi-wave at speed c is a solution of

    phi'' + c phi' + f(phi) = 0 on (-inf, 0],  phi(-inf) = 1,  phi(0) = 0,

strictly decreasing. In the phase plane (phi, Phi = phi') it is the branch
of the unstable manifold of the saddle (1, 0) that reaches phi = 0 with
Phi < 0. Shots are launched from the linearized manifold at distance
delta = 1e-6 and classified by terminal events:

* crosses_zero: phi falls through 0 with genuinely negative slope;
* converges_origin: the trajectory approaches (0, 0) without crossing;
* stalls: Phi turns back to 0 at interior phi, or the trajectory is
  captured by an interior equilibrium.

Integration runs in pure-relative mode (abs_tol ~ 1e-300): near-critical
crossing slopes decay like exp(-c*pi/(2*omega)) and underflow any absolute
floor long before they stop being meaningful, so the crossing test uses a
tiny representability floor instead of a fixed threshold. Accuracy of
bisected critical speeds is then set by the z horizon, about (pi / z_cap)^2.
Speeds at or above 2 sqrt(max f(u)/u) need no shot (the comparison sector
-lam phi <= Phi traps the orbit), and KPP-type terms, f(u) <= f'(0) u, get
c* = 2 sqrt(f'(0)) exactly with no bisection (linear determinacy).

Increasing semi-waves (psi(0) = 0, psi(+inf) = 1, psi' > 0) are exact
mirror images: psi(z; c) for g equals phi(-z; -c), so all increasing-side
quantities are computed by reflection and share every code path.

Profiles are reconstructed from the same saddle-launched trajectory that
produced the slope (integrated in its stable, downhill direction) and
extended to the far tolerance by the linearized-manifold exponential tail;
integrating backward from the interface toward the saddle is numerically
unstable and is deliberately avoided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidReaction, NoSemiWave
from .ode_core import bisect_predicate, find_root_monotone, integrate
from .reaction import ReactionSpec, derivative_at, evaluate

LAUNCH_DELTA = 1e-6       # offset along the unstable manifold of (1, 0)
SLOPE_FLOOR = 1e-280      # smallest slope still counted as a real crossing
STALL_MIN_PHI = 1e-6      # Phi = 0 above this phi is a stall, below it a convergence
STOP_SPEED_EPS = 1e-13    # |Phi| floor of the interior-capture event
STOP_PHI_FLOOR = 1e-2     # capture requires phi above this, so origin approaches stay silent
Z_CAP_TAG = 450.0         # fixed horizon for critical-speed tag shots
Z_CAP_SLOPE = 400.0       # horizon for slope and profile shots
TAG_REL_TOL = 1e-7
SLOPE_REL_TOL = 1e-12
PURE_REL_ABS_TOL = 1e-300
DENSE_MAX_STEP = 0.1      # dense interpolants lose accuracy over long steps
FRONT_TAIL_CUT = 1e-4     # hand off to the analytic tail above the level where
                          # the finite speed error starts to bend the orbit

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


def _launch_state(f: ReactionSpec, c: float) -> tuple:
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
    return TrajectoryOutcome(CONVERGES, c, traj.t[-1], traj.y[0, -1], traj.y[1, -1])


def _run_shot(f: ReactionSpec, c: float, y0, z_max: float, rel_tol: float,
              dense: bool = False, extra_events=()):
    """The one shot: phi'' + c phi' + f(phi) = 0 forward in z from y0, the
    saddle launch or a compact profile's apex (sigma, 0)."""

    def rhs(z, y):
        return (y[1], -c * y[1] - evaluate(f, y[0]))

    with np.errstate(invalid="ignore", divide="ignore"):
        return integrate(rhs, (0.0, z_max), y0, _SHOT_EVENTS + tuple(extra_events),
                         dense_output=dense, rel_tol=rel_tol,
                         abs_tol=PURE_REL_ABS_TOL,
                         max_step=DENSE_MAX_STEP if dense else math.inf)


def _cut_shot(f: ReactionSpec, c: float, cut: float, rel_tol: float,
              dense: bool = False, terminal: bool = False):
    """Saddle-launched slope shot that also records, as event 3, where phi
    falls through the level cut; returns the trajectory and the launch rate."""

    def tail(z, y):
        return y[0] - cut

    tail.terminal, tail.direction = terminal, -1.0
    y0, mu = _launch_state(f, c)
    return _run_shot(f, c, y0, Z_CAP_SLOPE, rel_tol, dense=dense,
                     extra_events=(tail,)), mu


def shoot_decreasing(f: ReactionSpec, c: float, z_max: float = Z_CAP_TAG,
                     rel_tol: float = TAG_REL_TOL) -> TrajectoryOutcome:
    """Launch one decreasing shot at speed c and classify its outcome."""
    y0, _ = _launch_state(f, c)
    return _classify(_run_shot(f, c, y0, z_max, rel_tol), c)


@functools.lru_cache(maxsize=8192)
def _slope_cached(f: ReactionSpec, c: float, rel_tol: float) -> float:
    res = shoot_decreasing(f, c, z_max=Z_CAP_SLOPE, rel_tol=rel_tol)
    if res.tag != CROSSES:
        raise NoSemiWave("no decreasing semi-wave at c = %g (shot %s)" % (c, res.tag))
    return res.dphi_stop


def semiwave_slope(f: ReactionSpec, c: float, rel_tol: float = SLOPE_REL_TOL) -> float:
    """Interface slope phi'(0; c) < 0 of the decreasing semi-wave at speed c.

    Raises NoSemiWave when the shot does not cross (c at or above the
    critical speed, where the connection ceases to exist).
    """
    return _slope_cached(f, float(c), float(rel_tol))


def semiwave_slope_increasing(g: ReactionSpec, c: float,
                              rel_tol: float = SLOPE_REL_TOL) -> float:
    """Interface slope psi'(0; c) > 0 of the increasing semi-wave at speed c."""
    return -semiwave_slope(g, -c, rel_tol=rel_tol)


def _speed_upper_bound(f: ReactionSpec) -> float:
    """Data-driven upper bound for the critical speed: 2 sqrt(sup f(u)/u) + 1."""
    if f.kind == "monostable":
        base = derivative_at(f, 0.0)
    else:
        base = 0.0
    grid = np.linspace(1e-6, 1.0, 2001)
    base = max(base, float(np.max(evaluate(f, grid) / grid)))
    return 2.0 * math.sqrt(max(base, 1e-12)) + 1.0


def _sector_growth(f: ReactionSpec) -> float:
    """K = max of f(u)/u on [0, 1], from the critical points of the quotient
    polynomial; inf unless f(0) = 0 exactly.

    For c >= 2 sqrt(K) let lam = (c - sqrt(c^2 - 4K)) / 2. On the line
    Phi = -lam phi, d(Phi + lam phi)/dz = K phi - f(phi) >= 0, so a shot
    launched above it stays above it and reaches phi = 0 only with Phi >= 0:
    no decreasing semi-wave exists there.
    """
    if f.coeffs[0] != 0.0:
        return math.inf
    g = np.polynomial.Polynomial(f.coeffs[1:])
    points = [0.0, 1.0] + [r.real for r in g.deriv().roots()
                           if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
    return max(float(g(u)) for u in points)


@functools.lru_cache(maxsize=256)
def _critical_speed_cached(f: ReactionSpec, tol: float) -> float:
    growth = _sector_growth(f)
    trap = 2.0 * math.sqrt(max(growth, 0.0))
    if f.kind == "monostable" and growth <= derivative_at(f, 0.0):
        # KPP type: below 2 sqrt(f'(0)) the origin is a focus and every shot
        # crosses, and from there on the sector traps, so c* = trap exactly
        return trap
    # the speed where the tag flips is only as sharp as the shots behind it,
    # so tighter speed requests get proportionally tighter integrations
    shot_rel = min(TAG_REL_TOL, max(10.0 * tol, 1e-13))

    def crosses(c):
        return c < trap and shoot_decreasing(f, c, rel_tol=shot_rel).tag == CROSSES

    return _last_crossing_speed(crosses, _speed_upper_bound(f), tol)


def _last_crossing_speed(crosses, hi: float, tol: float) -> float:
    """Bisect the speed above 0 where shots stop crossing; hi doubles up to 5 times."""
    seen = {}

    def tag(c):
        # bisect_predicate asks again at both ends of the bracket
        if c not in seen:
            seen[c] = crosses(c)
        return seen[c]

    lo = 0.0
    if not tag(lo):
        # cannot happen for valid inputs (positive mass, or positive apex
        # energy, forces a crossing at c = 0), kept as a hard guard
        raise BracketError("no crossing at c = 0; no positive mass or apex energy")
    for _ in range(5):
        if not tag(hi):
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise BracketError("crossing persists up to c = %g; no critical speed found" % hi)
    return bisect_predicate(tag, lo, hi, tol=tol)


def critical_speed_decreasing(f: ReactionSpec, tol: float = 1e-8) -> float:
    """Largest speed c* admitting a decreasing semi-wave (bisection on shot tags).

    Crossing holds for c < c* and fails for c > c*. KPP-type terms get
    2 sqrt(f'(0)) exactly; otherwise the returned value is accurate to the
    shot-horizon fuzz (~5e-5 for monostable terms, much better for bistable
    ones) or tol, whichever is larger.
    """
    return _critical_speed_cached(f, float(tol))


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


def semiwave_profile(f: ReactionSpec, c: float, far_tol: float = 1e-8,
                     dz: float = 0.01, rel_tol: float = SLOPE_REL_TOL) -> SemiWave:
    """Sampled decreasing semi-wave on [-L, 0], phi(-L) = 1 - far_tol, phi(0) = 0.

    The interior is the dense output of the saddle-launched shot; the far
    tail continues it with the linearized-manifold exponential, whose
    equation residual is O(delta^2) and far below far_tol.

    At a speed where the shot converges to the origin instead of crossing
    (c at or beyond the critical speed), the same trajectory is a full-line
    front; it is then returned on its whole span, normalized so that
    phi = 1/2 at z = 0. A stalling shot raises NoSemiWave.
    """
    cut = max(far_tol, 1e-6)
    traj, mu = _cut_shot(f, c, cut, rel_tol, dense=True)
    out = _classify(traj, c)
    if out.tag == CROSSES:
        return _assemble_semiwave(traj, mu, c, far_tol, dz)
    if out.tag == CONVERGES:
        return _assemble_front(traj, mu, c, far_tol, dz, cut)
    raise NoSemiWave("no decreasing semi-wave at c = %g (shot %s)" % (c, out.tag))


def _assemble_semiwave(traj, mu: float, c: float, far_tol: float, dz: float) -> SemiWave:
    z_cross, y_cross = traj.first_event(0)
    tail = 0.0
    if far_tol < LAUNCH_DELTA:
        tail = math.log(LAUNCH_DELTA / far_tol) / mu
    length = z_cross + tail
    n = max(int(math.ceil(length / dz)) + 1, 8)
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


def _assemble_front(traj, mu: float, c: float, far_tol: float, dz: float,
                    cut: float) -> SemiWave:
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


def semiwave_profile_increasing(g: ReactionSpec, c: float, far_tol: float = 1e-8,
                                dz: float = 0.01,
                                rel_tol: float = SLOPE_REL_TOL) -> SemiWave:
    """Sampled increasing semi-wave on [0, L], psi(0) = 0, psi(L) = 1 - far_tol."""
    mirror = semiwave_profile(g, -c, far_tol=far_tol, dz=dz, rel_tol=rel_tol)
    return SemiWave(c=c, z=-mirror.z[::-1].copy(), phi=mirror.phi[::-1].copy(),
                    dphi=-mirror.dphi[::-1].copy(), far_tol=far_tol)


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


def front_profile(f: ReactionSpec, far_tol: float = 1e-8, dz: float = 0.01,
                  tol: float = 1e-8) -> SemiWave:
    """Full-line bistable front at its unique speed, normalized to phi(0) = 1/2."""
    if f.kind != "bistable":
        raise InvalidReaction("full-line fronts are only defined for bistable terms")
    c = critical_speed_decreasing(f, tol=tol)
    # the dense data stops well above the origin and the analytic tail takes
    # over; both stay clean only if the speed is polished far beyond tol
    cut = max(far_tol, FRONT_TAIL_CUT)
    c = _polish_front_speed(f, c, cut, tol)
    traj, mu = _cut_shot(f, c, cut, SLOPE_REL_TOL, dense=True)
    return _assemble_front(traj, mu, c, far_tol, dz, cut)


def profile_residual(profile, f: ReactionSpec) -> float:
    """Max residual of phi'' + c phi' + f(phi) at interior grid samples.

    Fourth-order central stencils keep the finite-difference truncation
    well below the 1e-6 residual budget at the default grid spacing.
    """
    z, phi, dphi = profile.z, profile.phi, profile.dphi
    h = z[1] - z[0]
    lap = (-phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2]
           + 16.0 * phi[3:-1] - phi[4:]) / (12.0 * h * h)
    res = lap + profile.c * dphi[2:-2] + evaluate(f, phi[2:-2])
    return float(np.max(np.abs(res)))
