import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import make_bistable, make_monostable
from freewave import ode_core, phase_plane
from freewave.errors import BracketError, StepError
from freewave.reaction import evaluate


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_integrate_harmonic_oscillator():
    traj = ode_core.integrate(_oscillator, (0.0, 2 * math.pi), [1.0, 0.0])
    assert traj.y[0, -1] == pytest.approx(1.0, abs=1e-8)
    assert traj.y[1, -1] == pytest.approx(0.0, abs=1e-8)


def test_integrate_dense_output():
    traj = ode_core.integrate(_oscillator, (0.0, 3.0), [1.0, 0.0], dense_output=True)
    ts = np.linspace(0.1, 2.9, 7)
    for t in ts:
        y = traj.dense(t)
        assert y[0] == pytest.approx(math.cos(t), abs=1e-8)


def test_event_stops_at_first_falling_zero():
    def ev(t, y):
        return y[0]

    ev.terminal, ev.direction = True, -1.0
    traj = ode_core.integrate(_oscillator, (0.0, 10.0), [1.0, 0.0], events=[ev])
    hit = traj.first_event(0)
    assert hit is not None
    t_hit, y_hit = hit
    assert t_hit == pytest.approx(math.pi / 2, abs=1e-9)
    assert y_hit[1] == pytest.approx(-1.0, abs=1e-9)
    assert traj.t[-1] == pytest.approx(t_hit, abs=1e-12)


def _position(t, y):
    return y[0]


def test_non_terminal_event_records_all_crossings():
    # a plain function is a non-terminal event counting crossings both ways
    traj = ode_core.integrate(_oscillator, (0.0, 4 * math.pi), [1.0, 0.0],
                              events=[_position])
    assert len(traj.event_times[0]) == 4
    assert traj.event_times[0][1] == pytest.approx(3 * math.pi / 2, abs=1e-8)


def test_max_steps_raises(monkeypatch):
    # the guard stops the loop itself, not a finished run over the whole span
    calls = []

    def rhs(t, y):
        calls.append(t)
        return y[1], -y[0]

    monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
    with pytest.raises(StepError):
        ode_core.integrate(rhs, (0.0, 100.0), [1.0, 0.0])
    assert len(calls) <= 7 * 4 + 2


def test_finite_time_blow_up_raises():
    # y' = y^2 from 1 blows up at t = 1: the step size collapses, and the
    # overflow to inf on the way raises no Python float exception
    with pytest.raises(StepError):
        ode_core.integrate(lambda t, y: (y[0] * y[0], 0.0), (0.0, 2.0), [1.0, 0.0])


def test_nan_step_raises():
    # a NaN step size fails every comparison, so the step guard must be
    # written to stop it; the cap on calls turns a runaway loop into a failure
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 100:
            raise RuntimeError("integrate kept stepping on NaN")
        return math.nan, math.nan

    with pytest.raises(StepError):
        ode_core.integrate(rhs, (0.0, 1.0), [1.0, 0.0])
    assert len(calls) <= 10


def _oracle_shot(f, c, y0, rel_tol):
    """The shot phase_plane._run_shot takes, integrated by scipy's solve_ivp."""

    def rhs(z, y):
        return y[1], -c * y[1] - evaluate(f, y[0])

    span = (0.0, phase_plane.Z_CAP_TAG)
    abs_tol = phase_plane.PURE_REL_ABS_TOL
    first_step = None
    if 0.0 in y0:
        # apex launches start from the kernel's floored first step
        first_step = ode_core._first_step(rhs, *span, y0, rhs(0.0, y0), rel_tol,
                                          abs_tol, math.inf)
    sol = solve_ivp(rhs, span, y0, method="RK45", rtol=rel_tol, atol=abs_tol,
                    events=list(phase_plane._SHOT_EVENTS), first_step=first_step)
    assert sol.status >= 0
    return ode_core.Trajectory(t=sol.t, y=sol.y,
                               event_times=[np.asarray(te) for te in sol.t_events],
                               event_states=[np.asarray(ye) for ye in sol.y_events])


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-0.95, 0.95), st.floats(0.85, 0.95))
def test_kernel_matches_scipy_oracle(seed, fraction, sigma):
    # saddle and apex shots of random cubics at speeds inside (-c*, c*)
    rng = np.random.default_rng(seed)
    for f in (make_monostable(rng), make_bistable(rng)):
        c = fraction * phase_plane.critical_speed_decreasing(f)
        for y0 in (phase_plane._launch_state(f, c)[0], (sigma, 0.0)):
            for rel_tol in (phase_plane.TAG_REL_TOL, phase_plane.SLOPE_REL_TOL):
                traj = phase_plane._run_shot(f, c, y0, phase_plane.Z_CAP_TAG, rel_tol)
                oracle = _oracle_shot(f, c, y0, rel_tol)
                got = phase_plane._classify(traj, c)
                want = phase_plane._classify(oracle, c)
                assert (got.tag, len(traj.t)) == (want.tag, len(oracle.t))
                assert got.z_stop == pytest.approx(want.z_stop, rel=1e-9, abs=0.0)
                assert got.dphi_stop == pytest.approx(want.dphi_stop, rel=1e-9, abs=0.0)


def test_find_root_monotone_cube_root():
    root = ode_core.find_root_monotone(lambda x: x ** 3 - 2.0, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def test_find_root_monotone_accepts_precomputed_endpoints():
    asked = []

    def fn(x):
        asked.append(x)
        return x - 0.25

    root = ode_core.find_root_monotone(fn, 0.0, 1.0, f_lo=fn(0.0), f_hi=fn(1.0))
    assert root == pytest.approx(0.25, abs=1e-10)
    # an end whose value was given is never evaluated again
    assert asked.count(0.0) == asked.count(1.0) == 1


def test_find_root_monotone_no_sign_change():
    with pytest.raises(BracketError):
        ode_core.find_root_monotone(lambda x: x + 10.0, 0.0, 1.0)


def test_bisect_predicate_locates_threshold():
    edge = ode_core.bisect_predicate(lambda x: x < 1.3, 0.0, 2.0, tol=1e-10)
    assert edge == pytest.approx(1.3, abs=1e-9)


def test_bisect_predicate_requires_flip():
    with pytest.raises(BracketError):
        ode_core.bisect_predicate(lambda x: True, 0.0, 1.0)
