"""Compactly supported middle profiles built by apex shooting.

The middle species of a three-species wave occupies a finite interval in
the wave frame: phi2 > 0 on (0, W), phi2(0) = phi2(W) = 0, with a single
apex where phi2' = 0. Given the apex height sigma, each half is a shot of
the profile equation phi'' + c phi' + f2(phi) = 0 launched forward in z
from the apex state (sigma, 0), the same shot that builds semi-waves:

* the right half at speed c is the forward shot at c, ending where phi
  falls through 0 with edge slope omega_r < 0;
* the left half at speed c is the forward shot at -c under the reflection
  (z, p) -> (-z, -p), so omega_l(c) = -omega_r(-c) > 0 and c*_l = -c*_r
  exactly.

A right connection exists for c below a critical right-edge speed
c*_r > 0: above it the flow is no longer able to reach phi = 0 (it spirals
into an interior equilibrium for bistable terms, or relaxes into the
origin node for monostable ones). Existence at c = 0 requires positive
apex energy F2(sigma) > 0, with edge slope sqrt(2 F2(sigma)) there by the
first integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import Infeasible, NoSemiWave
from .phase_plane import (CROSSES, SLOPE_REL_TOL, TAG_REL_TOL, Z_CAP_TAG,
                          TrajectoryOutcome, _classify, _last_crossing_speed,
                          _run_shot, critical_speed_decreasing,
                          critical_speed_increasing)
from .reaction import ReactionSpec, evaluate, primitive_at


def _check_apex(f2: ReactionSpec, sigma: float) -> None:
    if not 0.0 < sigma < 1.0:
        raise Infeasible("apex height must lie in (0, 1), got %g" % sigma)
    if evaluate(f2, sigma) <= 0.0:
        raise Infeasible(
            "apex height %g has f2(sigma) <= 0; the profile cannot bend down there" % sigma)
    if primitive_at(f2, sigma) <= 0.0:
        raise Infeasible(
            "apex energy F2(%g) = %g is not positive; no edge connection exists"
            % (sigma, primitive_at(f2, sigma)))


def _apex_shot(f2: ReactionSpec, sigma: float, c: float, rel_tol: float,
               dense: bool = False):
    """Forward shot from the apex (sigma, 0) at speed c: the right half at c."""
    _check_apex(f2, sigma)
    traj = _run_shot(f2, c, (sigma, 0.0), Z_CAP_TAG, rel_tol, dense=dense)
    return _classify(traj, c), traj


@functools.lru_cache(maxsize=8192)
def _right_slope_cached(f2: ReactionSpec, sigma: float, c: float,
                        rel_tol: float) -> TrajectoryOutcome:
    # the outcome, not the slope: a shot that fails to cross is cached too
    return _apex_shot(f2, sigma, c, rel_tol)[0]


def left_slope(f2: ReactionSpec, sigma: float, c: float,
               rel_tol: float = SLOPE_REL_TOL) -> float:
    """Left edge slope omega_l(c) = -omega_r(-c) > 0; raises NoSemiWave if the
    edge is not reached."""
    return -right_slope(f2, sigma, -c, rel_tol=rel_tol)


def right_slope(f2: ReactionSpec, sigma: float, c: float,
                rel_tol: float = SLOPE_REL_TOL) -> float:
    """Right edge slope omega_r(c) < 0; raises NoSemiWave if the edge is not reached."""
    res = _right_slope_cached(f2, float(sigma), float(c), float(rel_tol))
    if res.tag != CROSSES:
        raise NoSemiWave(
            "no edge connection of the forward apex shot at c = %g, sigma = %g (shot %s)"
            % (c, sigma, res.tag))
    return res.dphi_stop


@functools.lru_cache(maxsize=256)
def _right_edge_cached(f2: ReactionSpec, sigma: float, tol: float) -> float:
    def crosses(c):
        return _apex_shot(f2, sigma, c, TAG_REL_TOL)[0].tag == CROSSES

    return _last_crossing_speed(crosses, critical_speed_decreasing(f2) + 1.0, tol)


@dataclass(frozen=True)
class SpeedWindow:
    """Admissible speed interval for a compact profile of a given height.

    (c_star_l, c_star_r) is the open window where both edges connect;
    [L_sigma, R_sigma] is the energy-scaled inner bound it strictly
    contains: L_sigma = c*_l(1) * F2(sigma) / F2(1), R_sigma = -L_sigma.
    """

    c_star_l: float
    c_star_r: float
    L_sigma: float
    R_sigma: float


def speed_window(f2: ReactionSpec, sigma: float, tol: float = 1e-8) -> SpeedWindow:
    """Bisect the edge-connection window of apex height sigma.

    c*_l = -c*_r exactly by the reflection symmetry of the two halves, so a
    single bisection determines both. Cached on (f2, sigma, tol).
    """
    _check_apex(f2, sigma)
    c_r = _right_edge_cached(f2, float(sigma), float(tol))
    full = critical_speed_increasing(f2, tol=tol)
    ratio = primitive_at(f2, sigma) / primitive_at(f2, 1.0)
    return SpeedWindow(c_star_l=-c_r, c_star_r=c_r,
                       L_sigma=full * ratio, R_sigma=-full * ratio)


@dataclass(frozen=True)
class CompactWave:
    """Sampled compact middle profile on [0, width], zero at both ends.

    apex is the z position of the maximum (value sigma); slope_left > 0 and
    slope_right < 0 are the edge derivatives entering the free-boundary
    matching conditions.
    """

    c: float
    sigma: float
    z: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    width: float
    apex: float
    slope_left: float
    slope_right: float


def compact_profile(f2: ReactionSpec, sigma: float, c: float, dz: float = 0.01,
                    rel_tol: float = SLOPE_REL_TOL) -> CompactWave:
    """Assemble the compact profile at speed c from the two apex halves.

    The right half is the forward apex shot at c, the left half the
    reflected forward shot at -c; they join smoothly at the apex. Raises
    an out-of-window error carrying the window when either edge fails.
    """
    res_l, traj_l = _apex_shot(f2, sigma, -c, rel_tol, dense=True)
    res_r, traj_r = _apex_shot(f2, sigma, c, rel_tol, dense=True)
    if res_l.tag != CROSSES or res_r.tag != CROSSES:
        win = speed_window(f2, sigma)
        raise Infeasible(
            "speed %g outside the compact-wave window (%.8g, %.8g) for sigma = %g"
            % (c, win.c_star_l, win.c_star_r, sigma))

    s_l, s_r = res_l.z_stop, res_r.z_stop
    width = s_l + s_r
    # the apex at z = s_l is a shared grid point of the two halves
    nl = max(int(math.ceil(s_l / dz)), 4)
    nr = max(int(math.ceil(s_r / dz)), 4)
    z = np.concatenate([np.linspace(0.0, s_l, nl + 1),
                        np.linspace(s_l, width, nr + 1)[1:]])

    phi = np.empty_like(z)
    dphi = np.empty_like(z)
    left = z <= s_l
    # left half: z in [0, s_l] maps to the reflected shot at s = s_l - z
    vals = traj_l.dense(s_l - z[left])
    phi[left] = vals[0]
    dphi[left] = -vals[1]
    # right half: z in (s_l, width] maps to the forward shot at s = z - s_l
    vals = traj_r.dense(z[~left] - s_l)
    phi[~left] = vals[0]
    dphi[~left] = vals[1]
    phi[0] = 0.0
    phi[-1] = 0.0
    dphi[0] = -res_l.dphi_stop
    dphi[-1] = res_r.dphi_stop
    phi[nl] = sigma
    dphi[nl] = 0.0
    return CompactWave(c=c, sigma=sigma, z=z, phi=phi, dphi=dphi, width=width,
                       apex=s_l, slope_left=-res_l.dphi_stop,
                       slope_right=res_r.dphi_stop)


def width_energy_quadrature(f2: ReactionSpec, sigma: float) -> float:
    """Width of the c = 0 profile by the first-integral quadrature.

    At c = 0 the energy p^2/2 + F2(u) is conserved, so the half-width is
    int_0^sigma du / sqrt(2 (F2(sigma) - F2(u))); the substitution
    u = sigma - t^2 removes the apex singularity.
    """
    _check_apex(f2, sigma)
    F_sig = primitive_at(f2, sigma)

    def integrand(t):
        gap = F_sig - primitive_at(f2, sigma - t * t)
        if gap <= 0.0:
            # only reachable at t = 0 through rounding; use the limit value
            return 2.0 / math.sqrt(2.0 * evaluate(f2, sigma))
        return 2.0 * t / math.sqrt(2.0 * gap)

    half, _ = quad(integrand, 0.0, math.sqrt(sigma), limit=200)
    return 2.0 * half


def edge_slope_energy(f2: ReactionSpec, sigma: float) -> float:
    """Left edge slope at c = 0 from the first integral: sqrt(2 F2(sigma))."""
    _check_apex(f2, sigma)
    return math.sqrt(2.0 * primitive_at(f2, sigma))
