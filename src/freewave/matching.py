"""Free-boundary matching: assembling two- and three-species traveling waves.

Every free boundary obeys one condition. The decreasing semi-wave phi of
an outer species (reaction f, coefficient a) meets a partner of slope
p(c) > 0 and coefficient b, and the boundary moves at the speed c with

    a phi'(0; c) + b p(c) + c = 0.

For two species the partner is the increasing semi-wave psi of g, and c is
the root of D(c) = alpha phi'(0; c) + beta psi'(0; c) + c, strictly
increasing on the admissible interval (c*_g, c*_f). For three species a
compact middle profile of height sigma sits between two boundaries moving
at one speed, each with an edge slope of the middle as its partner; the
admissible speeds depend on how the single-sided roots hat_c1 > 0 and
hat_c3 < 0 sit relative to the compact speed window (c*_l, c*_r), which is
the case classification.

A Boundary is one such condition, seen from the frame where its outer
species lies left. It gives the four quantities of each boundary: the
balanced coefficient at speed 0 (tilde beta), the coefficient map b(c)
(beta(c)), the threshold at the partner's upper speed (beta_0) and the
speed for a coefficient (C(beta)). beta_boundary, alpha_boundary,
left_boundary and right_boundary build them; the alpha and right
boundaries are the same pairing at -c with the outer species swapped, so
every mirror quantity is obtained by that reflection. Root tolerances are
the constants HAT_C_TOL and SPEED_TOL; a caller passes only the physics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compact_wave import CompactWave, compact_profile, left_slope, speed_window
from .errors import FreewaveError, Infeasible, NoSemiWave
from .ode_core import find_root_monotone
from .phase_plane import (SemiWave, critical_speed_decreasing,
                          critical_speed_increasing, semiwave_profile,
                          semiwave_profile_increasing, semiwave_slope,
                          semiwave_slope_increasing)
from .reaction import ReactionSpec, primitive_at

HAT_C_TOL = 1e-10         # root tolerance of hat_c_f
SPEED_TOL = 1e-12         # root tolerance of Boundary.speed


def _or_zero(slope, *args) -> float:
    """slope(*args), or its limit 0 where the shot no longer connects.

    Used only inside root brackets whose endpoints sit within the
    shot-horizon band just below a critical speed, where the true slope
    underflows; the limit keeps the bracket sign correct.
    """
    try:
        return slope(*args)
    except NoSemiWave:
        return 0.0


@dataclass(frozen=True)
class Boundary:
    """One free boundary a phi'(0; c) + b p(c) + c = 0, in the frame where
    its outer species lies left.

    f and a are the outer species' reaction and coefficient (outer names a
    in the caller's terms); the partner slope p(c) > 0 exists for c in
    interval() = (lo, hi) and has first-integral energy E = p(0)^2 / 2. A
    boundary whose outer species lies right is this pairing at -c: sign = -1
    maps speeds back to the caller's frame, and name labels the caller's
    side in error messages.
    """

    f: ReactionSpec
    a: float
    outer: str
    partner: Callable[[float], float]
    interval: Callable[[], tuple]
    energy: float
    name: str
    sign: float = 1.0

    def __post_init__(self):
        if not self.a > 0.0:
            raise Infeasible("%s must be positive, got %g" % (self.outer, self.a))

    def _frame(self, lo: float, hi: float) -> tuple:
        """The speed interval (lo, hi) of this frame, in the caller's frame."""
        return (lo, hi) if self.sign > 0.0 else (-hi, -lo)

    def _pairing(self, x: float) -> float:
        """The partner coefficient b making x, in this frame, the boundary speed."""
        return -(self.a * semiwave_slope(self.f, x) + x) / self.partner(x)

    def balanced(self) -> float:
        """The coefficient giving speed 0, from the first integrals: a sqrt(F(1) / E)."""
        return self.a * math.sqrt(primitive_at(self.f, 1.0) / self.energy)

    def domain(self) -> tuple:
        """(lo, min(hat_c, hi)) in the caller's frame: where the partner exists
        and the coefficient map is positive."""
        lo, hi = self.interval()
        return self._frame(lo, min(hat_c_f(self.f, self.a), hi))

    def coefficient(self, c: float) -> float:
        """The partner coefficient b > 0 making c the boundary speed; strictly
        decreasing in c on domain() when sign > 0, increasing when sign < 0."""
        lo, hi = self.domain()
        if not lo < c < hi:
            raise Infeasible("speed %g outside the %s coefficient domain (%g, %g)"
                             % (c, self.name, lo, hi))
        return self._pairing(self.sign * c)

    def threshold(self) -> float:
        """The coefficient at the partner's upper speed hi, defined when hat_c > hi;
        below it the matching function has no root inside the partner's interval."""
        hat, hi = hat_c_f(self.f, self.a), self.interval()[1]
        if hat <= hi:
            raise Infeasible("the %s boundary balances inside the window (hat_c = %g, "
                             "edge %g); its threshold is undefined"
                             % (self.name, self.sign * hat, self.sign * hi))
        return self._pairing(hi)

    def speed(self, b: float) -> float:
        """The speed for partner coefficient b, inverting coefficient(): the root
        of a phi'(0; c) + b p(c) + c on (lo, min(c*_f, hi)), in the caller's frame."""
        if b <= 0.0:
            raise Infeasible("%s coefficient must be positive, got %g" % (self.name, b))

        def objective(x):
            return (self.a * _or_zero(semiwave_slope, self.f, x)
                    + b * _or_zero(self.partner, x) + x)

        # c = 0 splits the bracket; with balanced coefficients the reflected
        # slopes cancel exactly there, so symmetric data gives exactly 0
        f_zero = objective(0.0)
        if f_zero == 0.0:
            return 0.0
        lo, hi = self.interval()
        if f_zero > 0.0:
            # the partner's slope vanishes at its critical speed lo
            f_lo = self.a * semiwave_slope(self.f, lo) + lo
            root = find_root_monotone(objective, lo, 0.0, SPEED_TOL, f_lo=f_lo, f_hi=f_zero)
        else:
            c_star = critical_speed_decreasing(self.f)
            if hi < c_star:
                top, f_top = hi, objective(hi)
            else:
                # the outer slope vanishes at c*_f
                top, f_top = c_star, b * _or_zero(self.partner, c_star) + c_star
            if f_top < 0.0:
                raise Infeasible(
                    "%s coefficient %g below its threshold; no admissible speed in the "
                    "window (%g, %g)" % ((self.name, b) + self._frame(lo, hi)))
            root = find_root_monotone(objective, 0.0, top, SPEED_TOL, f_lo=f_zero, f_hi=f_top)
        return self.sign * root + 0.0   # + 0.0 turns a reflected -0.0 into 0.0


def _two(f: ReactionSpec, g: ReactionSpec, a: float, outer: str, name: str,
         sign: float = 1.0) -> Boundary:
    """f left of the boundary, the increasing semi-wave of g right of it."""
    return Boundary(f, a, outer, functools.partial(semiwave_slope_increasing, g),
                    lambda: (critical_speed_increasing(g), math.inf),
                    primitive_at(g, 1.0), name, sign)


def _three(f: ReactionSpec, f2: ReactionSpec, a: float, sigma: float, outer: str,
           name: str, sign: float = 1.0) -> Boundary:
    """f left of the boundary, the compact middle profile of f2 right of it."""
    def window():
        win = speed_window(f2, sigma)
        return win.c_star_l, win.c_star_r

    return Boundary(f, a, outer, functools.partial(left_slope, f2, sigma), window,
                    primitive_at(f2, sigma), name, sign)


def beta_boundary(f: ReactionSpec, g: ReactionSpec, alpha: float) -> Boundary:
    """The two-species boundary solved for beta; beta(c) falls from infinity
    at c*_g to 0 at hat_c_f, and balanced() = alpha sqrt(F(1)/G(1))."""
    return _two(f, g, alpha, "alpha", "beta")


def alpha_boundary(f: ReactionSpec, g: ReactionSpec, beta: float) -> Boundary:
    """The two-species boundary solved for alpha; alpha(c) rises on
    (-hat_c_g, c*_f), and balanced() = beta sqrt(G(1)/F(1))."""
    return _two(g, f, beta, "beta", "alpha", -1.0)


def left_boundary(f1: ReactionSpec, f2: ReactionSpec, alpha: float,
                  sigma: float) -> Boundary:
    """The three-species left boundary, solved for beta_l; beta_l(c) falls on
    (c*_l, min(hat_c1, c*_r)), and threshold() is beta0_l (Case2 only)."""
    return _three(f1, f2, alpha, sigma, "alpha", "left")


def right_boundary(f2: ReactionSpec, f3: ReactionSpec, gamma: float,
                   sigma: float) -> Boundary:
    """The three-species right boundary, solved for beta_r; beta_r(c) rises on
    (max(hat_c3, c*_l), c*_r), and threshold() is beta0_r (CaseII only)."""
    return _three(f3, f2, gamma, sigma, "gamma", "right", -1.0)


# ---------------------------------------------------------------------------
# two species


@functools.lru_cache(maxsize=1024)
def _hat_c_cached(f: ReactionSpec, alpha: float) -> float:
    c_star = critical_speed_decreasing(f)

    def objective(c):
        return alpha * _or_zero(semiwave_slope, f, c) + c

    # the slope vanishes at c*, so the objective's limit there is c* > 0
    return find_root_monotone(objective, 0.0, c_star, tol=HAT_C_TOL,
                              f_lo=alpha * semiwave_slope(f, 0.0), f_hi=c_star)


def hat_c_f(f: ReactionSpec, alpha: float) -> float:
    """The unique root of alpha * phi'(0; c) + c in (0, c*_f).

    This is the speed the left species sustains against a bare boundary
    (no partner pushing back); it is strictly increasing in alpha and
    approaches c*_f as alpha grows.
    """
    if alpha <= 0.0:
        raise Infeasible("alpha must be positive, got %g" % alpha)
    return _hat_c_cached(f, float(alpha))


def D_two(c: float, alpha: float, beta: float, f: ReactionSpec,
          g: ReactionSpec) -> float:
    """Matching residual alpha phi'(0;c) + beta psi'(0;c) + c.

    Strictly increasing in c and in beta on the admissible interval
    (c*_g, c*_f); outside it a semi-wave is missing and Infeasible is raised.
    """
    try:
        return alpha * semiwave_slope(f, c) + beta * semiwave_slope_increasing(g, c) + c
    except NoSemiWave as exc:
        raise Infeasible("speed %g outside the admissible interval: %s" % (c, exc)) from exc


@dataclass(frozen=True)
class TwoSpeciesWave:
    """Assembled two-species traveling wave with a single free boundary."""

    c: float
    alpha: float
    beta: float
    f: ReactionSpec
    g: ReactionSpec
    left: SemiWave
    right: SemiWave
    tilde_beta: float
    residual: float


def solve_two_species(f: ReactionSpec, g: ReactionSpec, alpha: float,
                      beta: float) -> TwoSpeciesWave:
    """Find the unique speed balancing the free boundary and assemble the wave.

    The root of D lies in (c*_g, hat_c_f]; it is bracketed by c = 0 and
    one critical speed, where D takes its limit with the vanishing slope
    set to 0.
    """
    boundary = beta_boundary(f, g, alpha)
    c = boundary.speed(beta)
    left = semiwave_profile(f, c)
    right = semiwave_profile_increasing(g, c)
    residual = alpha * left.interface_slope + beta * right.interface_slope + c
    return TwoSpeciesWave(c=c, alpha=alpha, beta=beta, f=f, g=g,
                          left=left, right=right,
                          tilde_beta=boundary.balanced(), residual=residual)


# ---------------------------------------------------------------------------
# three species


@dataclass(frozen=True)
class CaseTag:
    """How the single-sided roots sit relative to the compact speed window.

    left_case is Case1 when hat_c1 <= c*_r (the left pairing balances
    inside the window), Case2 otherwise; right_case is CaseI when
    c*_l <= hat_c3, CaseII otherwise. c_minus/c_plus is the admissible
    speed interval max(hat_c3, c*_l), min(hat_c1, c*_r).
    """

    left_case: str
    right_case: str
    hat_c1: float
    hat_c3: float
    c_star_l: float
    c_star_r: float
    c_minus: float
    c_plus: float


def case_classify(f1: ReactionSpec, f2: ReactionSpec, f3: ReactionSpec,
                  alpha: float, gamma: float, sigma: float) -> CaseTag:
    """Classify the configuration and compute the admissible speed interval."""
    win = speed_window(f2, sigma)
    c1 = hat_c_f(f1, alpha)
    if gamma <= 0.0:
        raise Infeasible("gamma must be positive, got %g" % gamma)
    # hat_c3, the root of gamma psi3'(0;c) + c, is hat_c_f of f3 reflected
    c3 = -hat_c_f(f3, gamma)
    c_minus = max(c3, win.c_star_l)
    c_plus = min(c1, win.c_star_r)
    if not c_minus < c_plus:
        raise Infeasible(
            "empty admissible speed interval: max(%g, %g) >= min(%g, %g)"
            % (c3, win.c_star_l, c1, win.c_star_r))
    return CaseTag(
        left_case="Case1" if c1 <= win.c_star_r else "Case2",
        right_case="CaseI" if win.c_star_l <= c3 else "CaseII",
        hat_c1=c1, hat_c3=c3,
        c_star_l=win.c_star_l, c_star_r=win.c_star_r,
        c_minus=c_minus, c_plus=c_plus)


@dataclass(frozen=True)
class ThreeSpeciesWave:
    """Assembled three-species wave: two free boundaries, one speed."""

    c: float
    alpha: float
    gamma: float
    beta_l: float
    beta_r: float
    sigma: float
    f1: ReactionSpec
    f2: ReactionSpec
    f3: ReactionSpec
    left: SemiWave
    middle: CompactWave
    right: SemiWave
    case_tag: CaseTag
    tilde_beta_l: float
    tilde_beta_r: float
    residual_left: float
    residual_right: float


def solve_three_species(f1: ReactionSpec, f2: ReactionSpec, f3: ReactionSpec,
                        alpha: float, gamma: float, sigma: float,
                        c: float) -> ThreeSpeciesWave:
    """Assemble the three-species wave at an admissible speed c.

    For each c in the case interval there is a unique positive coefficient
    pair (beta_l, beta_r) balancing the two boundaries; both are obtained
    by slope division since the matching functions are affine in the
    coefficients.
    """
    if alpha <= 0.0 or gamma <= 0.0:
        raise Infeasible("alpha and gamma must be positive")
    tag = case_classify(f1, f2, f3, alpha, gamma, sigma)
    if not tag.c_minus < c < tag.c_plus:
        raise Infeasible(
            "speed %g outside the admissible interval (%.8g, %.8g)"
            % (c, tag.c_minus, tag.c_plus))
    edge_l = left_boundary(f1, f2, alpha, sigma)
    edge_r = right_boundary(f2, f3, gamma, sigma)
    b_l, b_r = edge_l.coefficient(c), edge_r.coefficient(c)

    left = semiwave_profile(f1, c)
    middle = compact_profile(f2, sigma, c)
    right = semiwave_profile_increasing(f3, c)
    res_l = alpha * left.interface_slope + b_l * middle.slope_left + c
    res_r = gamma * right.interface_slope + b_r * middle.slope_right + c
    return ThreeSpeciesWave(
        c=c, alpha=alpha, gamma=gamma, beta_l=b_l, beta_r=b_r, sigma=sigma,
        f1=f1, f2=f2, f3=f3, left=left, middle=middle, right=right,
        case_tag=tag, tilde_beta_l=edge_l.balanced(), tilde_beta_r=edge_r.balanced(),
        residual_left=res_l, residual_right=res_r)


# ---------------------------------------------------------------------------
# dispersion curves


@dataclass(frozen=True)
class DispersionCurve:
    """Tabulated coefficient-vs-speed curve with verified monotonicity."""

    kind: str
    endpoints: tuple
    c: np.ndarray
    columns: dict


def dispersion_curve(kind: str, params: dict, grid) -> DispersionCurve:
    """Sample the coefficient maps of a kind's boundaries over a c-grid and
    verify their monotonicity.

    kind 'two_beta': params f, g, alpha; column beta, strictly decreasing.
    kind 'two_alpha': params f, g, beta; column alpha, strictly increasing.
    kind 'three': params f1, f2, f3, alpha, gamma, sigma; columns beta_l
    (decreasing) and beta_r (increasing). Grid points outside the
    admissible interval raise a domain error naming the point.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise Infeasible("grid must be strictly increasing with at least 2 points")

    p = params
    if kind == "two_beta":
        boundaries = {"beta": beta_boundary(p["f"], p["g"], p["alpha"])}
        endpoints = boundaries["beta"].domain()
    elif kind == "two_alpha":
        boundaries = {"alpha": alpha_boundary(p["f"], p["g"], p["beta"])}
        endpoints = boundaries["alpha"].domain()
    elif kind == "three":
        tag = case_classify(p["f1"], p["f2"], p["f3"], p["alpha"], p["gamma"], p["sigma"])
        boundaries = {"beta_l": left_boundary(p["f1"], p["f2"], p["alpha"], p["sigma"]),
                      "beta_r": right_boundary(p["f2"], p["f3"], p["gamma"], p["sigma"])}
        endpoints = (tag.c_minus, tag.c_plus)
    else:
        raise Infeasible("unknown dispersion kind %r" % (kind,))
    _check_grid(grid, endpoints)
    columns = {}
    for label, boundary in boundaries.items():
        columns[label] = np.array([boundary.coefficient(c) for c in grid])
        _check_monotone(columns[label], decreasing=boundary.sign > 0.0, label=label)
    return DispersionCurve(kind, endpoints, grid, columns)


def _check_grid(grid, endpoints):
    lo, hi = endpoints
    for c in grid:
        if not lo < c < hi:
            raise Infeasible(
                "grid point %g outside the admissible interval (%g, %g)" % (c, lo, hi))


def _check_monotone(vals, decreasing: bool, label: str):
    d = np.diff(vals)
    ok = np.all(d < 0.0) if decreasing else np.all(d > 0.0)
    if not ok:
        raise FreewaveError(
            "%s column is not strictly %s; numerical contract violated"
            % (label, "decreasing" if decreasing else "increasing"))
