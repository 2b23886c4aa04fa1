import numpy as np
import pytest

from freewave import matching, pde_verify, reaction
from freewave.errors import StepError


@pytest.fixture(scope="module")
def symmetric_wave():
    f = reaction.logistic()
    return matching.solve_two_species(f, f, 1.0, 1.0)


@pytest.fixture(scope="module")
def moving_wave():
    f = reaction.logistic()
    return matching.solve_two_species(f, f, 1.0, 0.5)


def test_step_rejects_large_dt(moving_wave):
    # diffusion is implicit, so only the advection CFL |s'| dt/dx <= 1 binds
    state = pde_verify.initial_state(moving_wave, L=20.0, N=200)
    f, g = moving_wave.f, moving_wave.g
    u, v, dx = state.u.copy(), state.v.copy(), state.dx
    cfl_dt = dx / abs(state.speed)
    dt = 1.01 * cfl_dt
    with pytest.raises(StepError):
        pde_verify._advance(u, v, dx, dt, pde_verify._factor(dx, dt, u.size - 2),
                            f, g, 1.0, 0.5)
    assert np.array_equal(u, state.u) and np.array_equal(v, state.v)
    dt = 0.5 * cfl_dt
    sp = pde_verify._advance(u, v, dx, dt, pde_verify._factor(dx, dt, u.size - 2),
                             f, g, 1.0, 0.5)
    assert sp == state.speed


def test_one_step_keeps_profile_nearly_fixed(symmetric_wave):
    state = pde_verify.initial_state(symmetric_wave, L=20.0, N=1000)
    assert state.dx == pytest.approx(0.02, abs=1e-12)
    u, v = state.u.copy(), state.v.copy()
    sp = pde_verify._advance(u, v, state.dx, 1e-4,
                             pde_verify._factor(state.dx, 1e-4, u.size - 2),
                             symmetric_wave.f, symmetric_wave.g, 1.0, 1.0)
    assert np.max(np.abs(u - state.u)) < 1e-4
    assert np.max(np.abs(v - state.v)) < 1e-4
    assert sp == state.speed


def test_far_field_precondition(symmetric_wave):
    with pytest.raises(StepError):
        pde_verify.initial_state(symmetric_wave, L=8.0, N=100)
    with pytest.raises(StepError):
        pde_verify.initial_state(symmetric_wave, L=20.0, N=pde_verify.MIN_N - 1)


def test_run_report_structure(moving_wave):
    report = pde_verify.run(moving_wave, L=20.0, N=200, T=2.0)
    assert report.history.shape[1] == 3
    assert np.all(np.diff(report.history[:, 0]) > 0)
    assert report.L == 20.0 and report.N == 200 and report.T == 2.0
    assert np.max(np.abs(report.history[:, 2])) * report.dt <= 20.0 / 200
    assert isinstance(report.final, pde_verify.FrontFrameState)
    assert report.profile_drift < 0.05


def test_run_step_count_is_set_by_advection(moving_wave):
    report = pde_verify.run(moving_wave, L=40.0, N=2000, T=20.0)
    assert round(report.T / report.dt) <= 2 * report.N


def test_run_is_deterministic(moving_wave):
    a = pde_verify.run(moving_wave, L=20.0, N=200, T=1.0)
    b = pde_verify.run(moving_wave, L=20.0, N=200, T=1.0)
    assert a.mean_speed == b.mean_speed
    assert a.profile_drift == b.profile_drift


def test_reflection_equivalence(moving_wave):
    f = reaction.logistic()
    mirror = matching.solve_two_species(f, f, 0.5, 1.0)
    assert mirror.c == pytest.approx(-moving_wave.c, abs=1e-9)
    fwd = pde_verify.run(moving_wave, L=20.0, N=200, T=2.0)
    bwd = pde_verify.run(mirror, L=20.0, N=200, T=2.0)
    assert bwd.mean_speed == pytest.approx(-fwd.mean_speed, abs=1e-6)
    assert bwd.profile_drift == pytest.approx(fwd.profile_drift, abs=1e-6)


def test_grid_refinement_reduces_speed_error(moving_wave):
    c = moving_wave.c
    coarse = pde_verify.run(moving_wave, L=20.0, N=200, T=4.0)
    fine = pde_verify.run(moving_wave, L=20.0, N=400, T=4.0)
    err_coarse = abs(coarse.mean_speed - c)
    err_fine = abs(fine.mean_speed - c)
    assert err_fine < 0.75 * err_coarse


def test_mean_speed_monotone_in_coefficient(symmetric_wave, moving_wave):
    f = reaction.logistic()
    slow = matching.solve_two_species(f, f, 1.0, 2.0)
    speeds = []
    for wave in (moving_wave, symmetric_wave, slow):
        speeds.append(pde_verify.run(wave, L=20.0, N=200, T=2.0).mean_speed)
    assert speeds[0] > speeds[1] > speeds[2]
    assert abs(speeds[1]) < 1e-3
