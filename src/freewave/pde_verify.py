"""Front-fixing finite-difference check that assembled waves travel rigidly.

The two-species free-boundary system is simulated in the frame attached to
the boundary, xi = x - s(t): the left species u lives on [-L, 0], the
right species v on [0, L], the boundary is pinned at xi = 0, and the
boundary motion reappears as an advection term s'(t) d/dxi in both
equations. The boundary speed is read off the one-sided interface
derivatives through the same condition that defined the wave:

    s'(t) = -alpha u_xi(0-, t) - beta v_xi(0+, t).

An assembled traveling wave is an exact steady state of this frame up to
discretization error, so a healthy wave shows s'(t) ~ c and a frame
profile that barely drifts.

Scheme: explicit Euler, central second differences for diffusion,
first-order upwinding for the advection term (direction chosen by the sign
of s'), second-order three-point one-sided stencils for the interface
derivatives, Dirichlet far values pinned at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepError
from .matching import TwoSpeciesWave
from .reaction import ReactionSpec, evaluate

_CFL_FACTOR = 0.45
_FAR_FIELD_TOL = 1e-6


@dataclass(frozen=True)
class FrontFrameState:
    """State of the front-fixed simulation at one time.

    u samples xi in [-L, 0] (left species), v samples xi in [0, L], both
    on uniform grids of spacing dx with the interface pinned at xi = 0:
    u[-1] = v[0] = 0, u[0] = v[-1] = 1. s is the boundary position in the
    lab frame and speed the most recent s'(t).
    """

    u: np.ndarray
    v: np.ndarray
    s: float
    speed: float
    t: float
    dx: float


def _interface_speed(u, v, dx, alpha, beta) -> float:
    # second-order one-sided derivatives using the pinned zero at the interface
    ux = (-4.0 * u[-2] + u[-3]) / (2.0 * dx)
    vx = (4.0 * v[1] - v[2]) / (2.0 * dx)
    return -alpha * ux - beta * vx


def _advance(u, v, dx, dt, f, g, alpha, beta) -> float:
    """One in-place explicit Euler step; returns the s' used."""
    sp = _interface_speed(u, v, dx, alpha, beta)
    r = dt / (dx * dx)
    a = sp * dt / dx
    if sp >= 0.0:
        adv_u = u[2:] - u[1:-1]
        adv_v = v[2:] - v[1:-1]
    else:
        adv_u = u[1:-1] - u[:-2]
        adv_v = v[1:-1] - v[:-2]
    lap_u = u[2:] - 2.0 * u[1:-1] + u[:-2]
    lap_v = v[2:] - 2.0 * v[1:-1] + v[:-2]
    u[1:-1] += r * lap_u + a * adv_u + dt * evaluate(f, u[1:-1])
    v[1:-1] += r * lap_v + a * adv_v + dt * evaluate(g, v[1:-1])
    return sp


def step(state: FrontFrameState, dt: float, f: ReactionSpec, g: ReactionSpec,
         alpha: float, beta: float) -> FrontFrameState:
    """Advance the frame state by one explicit Euler step of size dt.

    Raises StepError before touching the state if dt violates the
    diffusion stability bound dx^2 / 2.
    """
    dx = state.dx
    if dt > 0.5 * dx * dx:
        raise StepError(
            "dt = %g violates the diffusion stability bound dx^2/2 = %g"
            % (dt, 0.5 * dx * dx))
    u = state.u.copy()
    v = state.v.copy()
    sp = _advance(u, v, dx, dt, f, g, alpha, beta)
    return FrontFrameState(u=u, v=v, s=state.s + dt * sp, speed=sp,
                           t=state.t + dt, dx=dx)


@dataclass(frozen=True)
class SimReport:
    """Outcome of a front-frame run.

    history rows are (t, s, s') at the recording stride; mean_speed is the
    displacement average over the second half of the run; profile_drift is
    the largest frame-profile change (both species) between the initial
    and final states.
    """

    mean_speed: float
    profile_drift: float
    history: np.ndarray
    final: FrontFrameState
    L: float
    N: int
    T: float
    dt: float


def initial_state(wave: TwoSpeciesWave, L: float, N: int) -> FrontFrameState:
    """Sample the wave's profiles onto the frame grid, extended by constants.

    Raises StepError if the wave's far-field residual at +-L exceeds the
    far-field tolerance 1e-6 (the run precondition).
    """
    dx = L / N
    xi_l = np.linspace(-L, 0.0, N + 1)
    xi_r = np.linspace(0.0, L, N + 1)
    u = np.interp(xi_l, wave.left.z, wave.left.phi, left=1.0, right=0.0)
    v = np.interp(xi_r, wave.right.z, wave.right.phi, left=0.0, right=1.0)
    if abs(u[0] - 1.0) > _FAR_FIELD_TOL or abs(v[-1] - 1.0) > _FAR_FIELD_TOL:
        raise StepError(
            "far-field residual at +-L exceeds %g; enlarge the profile span "
            "or reduce L" % _FAR_FIELD_TOL)
    u[0] = 1.0
    u[-1] = 0.0
    v[0] = 0.0
    v[-1] = 1.0
    sp = _interface_speed(u, v, dx, wave.alpha, wave.beta)
    return FrontFrameState(u=u, v=v, s=0.0, speed=sp, t=0.0, dx=dx)


def run(wave: TwoSpeciesWave, L: float, N: int, T: float,
        max_records: int = 4000) -> SimReport:
    """Run the front-frame simulation from the assembled wave to time T."""
    state0 = initial_state(wave, L, N)
    dx = state0.dx
    nsteps = max(int(math.ceil(T / (_CFL_FACTOR * dx * dx))), 2)
    dt = T / nsteps
    u = state0.u.copy()
    v = state0.v.copy()
    f, g, alpha, beta = wave.f, wave.g, wave.alpha, wave.beta

    stride = max(1, nsteps // max_records)
    rows = []
    s = 0.0
    sp = state0.speed
    half_step = nsteps // 2
    s_half = 0.0
    t_half = 0.0
    for k in range(nsteps):
        if k == half_step:
            s_half = s
            t_half = k * dt
        sp = _advance(u, v, dx, dt, f, g, alpha, beta)
        s += dt * sp
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            rows.append((dt * (k + 1), s, sp))

    mean_speed = (s - s_half) / (T - t_half)
    drift = max(float(np.max(np.abs(u - state0.u))),
                float(np.max(np.abs(v - state0.v))))
    final = FrontFrameState(u=u, v=v, s=s, speed=sp, t=T, dx=dx)
    return SimReport(mean_speed=mean_speed, profile_drift=drift,
                     history=np.array(rows), final=final,
                     L=L, N=N, T=T, dt=dt)
