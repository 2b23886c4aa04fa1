"""Compactly supported middle profiles built by apex shooting.

The middle species of a three-species wave occupies a finite interval in
the wave frame: phi2 > 0 on (0, W), phi2(0) = phi2(W) = 0, with a single
apex where phi2' = 0. Given the apex height sigma, each half is a shot of
the profile equation phi'' + c phi' + f2(phi) = 0 launched forward in z
from the apex state (sigma, 0): phase_plane's shot with apex = sigma,
which shares the semi-wave shot's slope cache, critical-speed search,
node trap, horizons, tolerances and largest grid spacing:

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .phase_plane import (CROSSES, MAX_DZ, SLOPE_REL_TOL, Z_CAP_SLOPE, _check_apex,
                          _critical_speed_cached, _edge_slope, _sector_growth,
                          _shot, critical_speed_increasing)
from .reaction import ReactionSpec, primitive_at


def left_slope(f2: ReactionSpec, sigma: float, c: float) -> float:
    """Left edge slope omega_l(c) = -omega_r(-c) > 0; raises NoSemiWave if the
    edge is not reached."""
    return -right_slope(f2, sigma, -c)


def right_slope(f2: ReactionSpec, sigma: float, c: float) -> float:
    """Right edge slope omega_r(c) < 0; raises NoSemiWave if the edge is not reached."""
    return _edge_slope(f2, float(sigma), c)


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
    single bisection determines both; it runs on the bracket of c*(f2),
    [c_focus, 2 sqrt(K)]. Cached on (f2, sigma, tol).
    """
    _check_apex(f2, sigma)
    c_r = _critical_speed_cached(f2, float(sigma), float(tol))
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


def compact_profile(f2: ReactionSpec, sigma: float, c: float) -> CompactWave:
    """Assemble the compact profile at speed c from the two apex halves.

    The right half is the forward apex shot at c, the left half the
    reflected forward shot at -c; they join smoothly at the apex, and each
    is sampled uniformly at spacing up to MAX_DZ. Raises an out-of-window
    error carrying the window when either edge fails.
    """
    # from the sector speed 2 sqrt(K) on, an edge cannot connect: no shot
    inside = abs(c) < 2.0 * math.sqrt(_sector_growth(f2))
    if inside:
        res_l, traj_l = _shot(f2, -c, Z_CAP_SLOPE, SLOPE_REL_TOL, sigma, dense=True)
        res_r, traj_r = _shot(f2, c, Z_CAP_SLOPE, SLOPE_REL_TOL, sigma, dense=True)
    if not inside or res_l.tag != CROSSES or res_r.tag != CROSSES:
        win = speed_window(f2, sigma)
        raise Infeasible(
            "speed %g outside the compact-wave window (%.8g, %.8g) for sigma = %g"
            % (c, win.c_star_l, win.c_star_r, sigma))

    s_l, s_r = res_l.z_stop, res_r.z_stop
    width = s_l + s_r
    # the apex at z = s_l is a shared grid point of the two halves
    nl = max(int(math.ceil(s_l / MAX_DZ)), 4)
    nr = max(int(math.ceil(s_r / MAX_DZ)), 4)
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

