"""Free-boundary matching: assembling two- and three-species traveling waves.

A two-species wave couples a decreasing semi-wave phi (reaction f, left of
the single free boundary) with an increasing one psi (reaction g, right of
it), both moving at a common speed c fixed by the boundary condition

    c = -alpha phi'(0; c) - beta psi'(0; c),

i.e. by the root of the matching function

    D(c) = alpha phi'(0; c) + beta psi'(0; c) + c,

which is strictly increasing on the admissible interval (c*_g, c*_f). The
coefficient maps beta(c) and alpha(c) invert the same relation in closed
form, since D is affine in each coefficient.

A three-species wave adds a compactly supported middle profile of height
sigma between two boundaries moving at the same speed; each boundary
yields its own matching function (D_l with coefficient beta_l on the
middle's left edge slope, D_r with beta_r on its right edge slope), and
for every admissible speed there is a unique positive coefficient pair.
The admissible speed interval is governed by how the single-sided roots
hat_c1 > 0 and hat_c3 < 0 sit relative to the compact speed window
(c*_l, c*_r), which is the case classification.

Each boundary is written once, as the left boundary of the three-species
wave: an outer decreasing semi-wave paired with a partner slope (psi' for
two species, omega_l for three). The right boundary and the alpha side of
the two-species wave are the same pairing at -c with the outer species
swapped, so every mirror quantity is obtained by that reflection.
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

_SHRINK = 1e-6


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
class _Side:
    """One free boundary, seen from the frame where its outer species lies left.

    The outer decreasing semi-wave of f with positive coefficient a (named
    outer in the caller's terms) meets a partner of slope p(c) > 0, defined
    for c in interval() = (lo, hi), with first-integral energy
    E = p(0)^2 / 2; the boundary moves at c when
    a phi'(0; c) + b p(c) + c = 0. A boundary whose outer species lies right
    is this pairing at -c: sign = -1 maps speeds back to the caller's
    frame, and name labels the caller's side in error messages.
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

    def frame(self, lo: float, hi: float) -> tuple:
        """The speed interval (lo, hi) of this frame, in the caller's frame."""
        return (lo, hi) if self.sign > 0.0 else (-hi, -lo)


def _two_side(f: ReactionSpec, g: ReactionSpec, a: float, outer: str, name: str,
              sign: float = 1.0) -> _Side:
    """f left of the boundary, the increasing semi-wave of g right of it."""
    return _Side(f, a, outer, functools.partial(semiwave_slope_increasing, g),
                 lambda: (critical_speed_increasing(g), math.inf),
                 primitive_at(g, 1.0), name, sign)


def _three_side(f: ReactionSpec, f2: ReactionSpec, a: float, sigma: float,
                outer: str, name: str, sign: float = 1.0) -> _Side:
    """f left of the boundary, the compact middle profile of f2 right of it."""
    def window():
        win = speed_window(f2, sigma)
        return win.c_star_l, win.c_star_r

    return _Side(f, a, outer, functools.partial(left_slope, f2, sigma), window,
                 primitive_at(f2, sigma), name, sign)


def _balanced(side: _Side) -> float:
    """The coefficient giving speed 0, from the first integrals: a sqrt(F(1) / E)."""
    return side.a * math.sqrt(primitive_at(side.f, 1.0) / side.energy)


def _domain(side: _Side) -> tuple:
    """(lo, min(hat_c, hi)) in the caller's frame: where the partner exists
    and the coefficient map is positive."""
    lo, hi = side.interval()
    return side.frame(lo, min(hat_c_f(side.f, side.a), hi))


def _pairing(side: _Side, x: float) -> float:
    """The partner coefficient b making x, in this side's frame, the boundary speed."""
    return -(side.a * semiwave_slope(side.f, x) + x) / side.partner(x)


def _coefficient(side: _Side, c: float) -> float:
    """The partner coefficient b making c the boundary speed."""
    lo, hi = _domain(side)
    if not lo < c < hi:
        raise Infeasible("speed %g outside the %s coefficient domain (%g, %g)"
                         % (c, side.name, lo, hi))
    return _pairing(side, side.sign * c)


def _threshold(side: _Side) -> float:
    """The coefficient at the partner's upper speed hi, defined when hat_c > hi;
    below it the matching function has no root inside the partner's interval."""
    hat, hi = hat_c_f(side.f, side.a), side.interval()[1]
    if hat <= hi:
        raise Infeasible("the %s boundary balances inside the window (hat_c = %g, "
                         "edge %g); its threshold is undefined"
                         % (side.name, side.sign * hat, side.sign * hi))
    return _pairing(side, hi)


def _speed(side: _Side, b: float, tol: float) -> float:
    """Root of a phi'(0; c) + b p(c) + c on (lo, min(c*_f, hi)), in the caller's frame."""
    if b <= 0.0:
        raise Infeasible("%s coefficient must be positive, got %g" % (side.name, b))

    def objective(x):
        return (side.a * _or_zero(semiwave_slope, side.f, x)
                + b * _or_zero(side.partner, x) + x)

    # c = 0 splits the bracket; with balanced coefficients the reflected
    # slopes cancel exactly there, so symmetric data gives exactly 0
    f_zero = objective(0.0)
    if f_zero == 0.0:
        return 0.0
    lo, hi = side.interval()
    if f_zero > 0.0:
        # the partner's slope vanishes at its critical speed lo
        f_lo = side.a * semiwave_slope(side.f, lo) + lo
        root = find_root_monotone(objective, lo, 0.0, tol=tol, f_lo=f_lo, f_hi=f_zero)
    else:
        c_star = critical_speed_decreasing(side.f)
        if hi < c_star:
            top, f_top = hi, objective(hi)
        else:
            # the outer slope vanishes at c*_f
            top, f_top = c_star, b * _or_zero(side.partner, c_star) + c_star
        if f_top < 0.0:
            raise Infeasible(
                "%s coefficient %g below its threshold; no admissible speed in the "
                "window (%g, %g)" % ((side.name, b) + side.frame(lo, hi)))
        root = find_root_monotone(objective, 0.0, top, tol=tol, f_lo=f_zero, f_hi=f_top)
    return side.sign * root + 0.0   # + 0.0 turns a reflected -0.0 into 0.0


# ---------------------------------------------------------------------------
# two species


@functools.lru_cache(maxsize=1024)
def _hat_c_cached(f: ReactionSpec, alpha: float, tol: float) -> float:
    c_star = critical_speed_decreasing(f)

    def objective(c):
        return alpha * _or_zero(semiwave_slope, f, c) + c

    lo = 0.0
    f_lo = alpha * semiwave_slope(f, 0.0)
    hi = c_star - _SHRINK
    return find_root_monotone(objective, lo, hi, tol=tol, f_lo=f_lo)


def hat_c_f(f: ReactionSpec, alpha: float, tol: float = 1e-10) -> float:
    """The unique root of alpha * phi'(0; c) + c in (0, c*_f).

    This is the speed the left species sustains against a bare boundary
    (no partner pushing back); it is strictly increasing in alpha and
    approaches c*_f as alpha grows.
    """
    if alpha <= 0.0:
        raise Infeasible("alpha must be positive, got %g" % alpha)
    return _hat_c_cached(f, float(alpha), float(tol))


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


def tilde_beta(f: ReactionSpec, g: ReactionSpec, alpha: float) -> float:
    """Coefficient threshold at which the matched speed is 0: alpha sqrt(F(1)/G(1))."""
    return _balanced(_two_side(f, g, alpha, "alpha", "beta"))


def tilde_alpha(f: ReactionSpec, g: ReactionSpec, beta: float) -> float:
    """Dual threshold for the alpha coefficient: beta sqrt(G(1)/F(1))."""
    return _balanced(_two_side(g, f, beta, "beta", "alpha", -1.0))


def beta_of_c(f: ReactionSpec, g: ReactionSpec, alpha: float, c: float) -> float:
    """The unique beta making c the matched speed: -(alpha phi'(0;c) + c)/psi'(0;c).

    Positive and strictly decreasing on (c*_g, hat_c_f), vanishing at
    hat_c_f and blowing up at c*_g.
    """
    return _coefficient(_two_side(f, g, alpha, "alpha", "beta"), c)


def alpha_of_c(f: ReactionSpec, g: ReactionSpec, beta: float, c: float) -> float:
    """The unique alpha making c the matched speed; increasing on (hat_c_g, c*_f)."""
    return _coefficient(_two_side(g, f, beta, "beta", "alpha", -1.0), c)


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


def solve_two_species(f: ReactionSpec, g: ReactionSpec, alpha: float, beta: float,
                      tol: float = 1e-12, far_tol: float = 1e-8,
                      dz: float = 0.01) -> TwoSpeciesWave:
    """Find the unique speed balancing the free boundary and assemble the wave.

    The root of D lies in (c*_g, hat_c_f]; it is bracketed by c = 0 and
    one critical speed, where D takes its limit with the vanishing slope
    set to 0.
    """
    c = _speed(_two_side(f, g, alpha, "alpha", "beta"), beta, tol)
    left = semiwave_profile(f, c, far_tol=far_tol, dz=dz)
    right = semiwave_profile_increasing(g, c, far_tol=far_tol, dz=dz)
    residual = alpha * left.interface_slope + beta * right.interface_slope + c
    return TwoSpeciesWave(c=c, alpha=alpha, beta=beta, f=f, g=g,
                          left=left, right=right,
                          tilde_beta=tilde_beta(f, g, alpha), residual=residual)


# ---------------------------------------------------------------------------
# three species


def hat_c3(f3: ReactionSpec, gamma: float) -> float:
    """Root of gamma psi3'(0;c) + c; negative, above -c*(f3), by reflection."""
    if gamma <= 0.0:
        raise Infeasible("gamma must be positive, got %g" % gamma)
    return -hat_c_f(f3, gamma)


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
    c3 = hat_c3(f3, gamma)
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


def tilde_beta_l(f1: ReactionSpec, f2: ReactionSpec, alpha: float,
                 sigma: float) -> float:
    """Left coefficient threshold at zero speed: alpha sqrt(F1(1)/F2(sigma))."""
    return _balanced(_three_side(f1, f2, alpha, sigma, "alpha", "left"))


def tilde_beta_r(f2: ReactionSpec, f3: ReactionSpec, gamma: float,
                 sigma: float) -> float:
    """Right coefficient threshold at zero speed: gamma sqrt(F3(1)/F2(sigma))."""
    return _balanced(_three_side(f3, f2, gamma, sigma, "gamma", "right", -1.0))


def beta_l_of_c(f1: ReactionSpec, f2: ReactionSpec, alpha: float, sigma: float,
                c: float) -> float:
    """Left coefficient map: -(alpha phi1'(0;c) + c) / omega_l(c).

    Positive and strictly decreasing between the window's left edge and
    hat_c1.
    """
    return _coefficient(_three_side(f1, f2, alpha, sigma, "alpha", "left"), c)


def beta_r_of_c(f2: ReactionSpec, f3: ReactionSpec, gamma: float, sigma: float,
                c: float) -> float:
    """Right coefficient map: -(gamma psi3'(0;c) + c) / omega_r(c).

    Positive and strictly increasing between hat_c3 and the window's right
    edge.
    """
    return _coefficient(_three_side(f3, f2, gamma, sigma, "gamma", "right", -1.0), c)


def beta0_l(f1: ReactionSpec, f2: ReactionSpec, alpha: float, sigma: float) -> float:
    """Threshold coefficient beta_l at the window's right edge (Case2 only).

    Below it the left matching function has no root inside the window.
    """
    return _threshold(_three_side(f1, f2, alpha, sigma, "alpha", "left"))


def beta0_r(f2: ReactionSpec, f3: ReactionSpec, gamma: float, sigma: float) -> float:
    """Threshold coefficient beta_r at the window's left edge (CaseII only)."""
    return _threshold(_three_side(f3, f2, gamma, sigma, "gamma", "right", -1.0))


def C_l(f1: ReactionSpec, f2: ReactionSpec, alpha: float, sigma: float,
        beta_l: float, tol: float = 1e-10) -> float:
    """Speed solving the left matching condition for a given coefficient.

    Inverse of beta_l_of_c: the unique root of
    alpha phi1'(0;c) + beta_l omega_l(c) + c, strictly increasing in c.
    In Case2 the root exists inside the window only for beta_l >= beta0_l.
    """
    return _speed(_three_side(f1, f2, alpha, sigma, "alpha", "left"), beta_l, tol)


def C_r(f2: ReactionSpec, f3: ReactionSpec, gamma: float, sigma: float,
        beta_r: float, tol: float = 1e-10) -> float:
    """Speed solving the right matching condition for a given coefficient.

    Inverse of beta_r_of_c; in CaseII the root exists inside the window
    only for beta_r >= beta0_r.
    """
    side = _three_side(f3, f2, gamma, sigma, "gamma", "right", -1.0)
    return _speed(side, beta_r, tol)


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
                        alpha: float, gamma: float, sigma: float, c: float,
                        far_tol: float = 1e-8, dz: float = 0.01) -> ThreeSpeciesWave:
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
    b_l = beta_l_of_c(f1, f2, alpha, sigma, c)
    b_r = beta_r_of_c(f2, f3, gamma, sigma, c)

    left = semiwave_profile(f1, c, far_tol=far_tol, dz=dz)
    middle = compact_profile(f2, sigma, c, dz=dz)
    right = semiwave_profile_increasing(f3, c, far_tol=far_tol, dz=dz)
    res_l = alpha * left.interface_slope + b_l * middle.slope_left + c
    res_r = gamma * right.interface_slope + b_r * middle.slope_right + c
    return ThreeSpeciesWave(
        c=c, alpha=alpha, gamma=gamma, beta_l=b_l, beta_r=b_r, sigma=sigma,
        f1=f1, f2=f2, f3=f3, left=left, middle=middle, right=right,
        case_tag=tag,
        tilde_beta_l=tilde_beta_l(f1, f2, alpha, sigma),
        tilde_beta_r=tilde_beta_r(f2, f3, gamma, sigma),
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
    """Sample a coefficient map over a c-grid and verify its monotonicity.

    kind 'two_beta': params f, g, alpha; column beta, strictly decreasing.
    kind 'two_alpha': params f, g, beta; column alpha, strictly increasing.
    kind 'three': params f1, f2, f3, alpha, gamma, sigma; columns beta_l
    (decreasing) and beta_r (increasing). Grid points outside the
    admissible interval raise a domain error naming the point.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise Infeasible("grid must be strictly increasing with at least 2 points")

    if kind in ("two_beta", "two_alpha"):
        f, g = params["f"], params["g"]
        side = (_two_side(f, g, params["alpha"], "alpha", "beta")
                if kind == "two_beta"
                else _two_side(g, f, params["beta"], "beta", "alpha", -1.0))
        endpoints = _domain(side)
        _check_grid(grid, endpoints)
        vals = np.array([_coefficient(side, c) for c in grid])
        _check_monotone(vals, decreasing=side.sign > 0.0, label=side.name)
        return DispersionCurve(kind, endpoints, grid, {side.name: vals})

    if kind == "three":
        f1, f2, f3 = params["f1"], params["f2"], params["f3"]
        alpha, gamma, sigma = params["alpha"], params["gamma"], params["sigma"]
        tag = case_classify(f1, f2, f3, alpha, gamma, sigma)
        endpoints = (tag.c_minus, tag.c_plus)
        _check_grid(grid, endpoints)
        bl = np.array([beta_l_of_c(f1, f2, alpha, sigma, c) for c in grid])
        br = np.array([beta_r_of_c(f2, f3, gamma, sigma, c) for c in grid])
        _check_monotone(bl, decreasing=True, label="beta_l")
        _check_monotone(br, decreasing=False, label="beta_r")
        return DispersionCurve(kind, endpoints, grid, {"beta_l": bl, "beta_r": br})

    raise Infeasible("unknown dispersion kind %r" % (kind,))


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
