import math

import numpy as np
import pytest

from freewave import ode_core
from freewave.errors import BracketError, StepError


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
    monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
    with pytest.raises(StepError):
        ode_core.integrate(_oscillator, (0.0, 100.0), [1.0, 0.0])


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
