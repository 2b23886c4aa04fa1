import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_bistable, make_monostable
from freewave import phase_plane, reaction
from freewave.errors import InvalidReaction, NoSemiWave
from freewave.reaction import primitive_at


def energy_slope(f):
    """Interface slope of the zero-speed semi-wave, from the first integral."""
    return -math.sqrt(2.0 * primitive_at(f, 1.0))


def test_energy_identity_families(logistic, cubic25):
    for f in (logistic, cubic25, reaction.cubic_bistable(0.1),
              reaction.cubic_bistable(0.4)):
        assert phase_plane.semiwave_slope(f, 0.0) == pytest.approx(
            energy_slope(f), abs=1e-10)


def test_energy_identity_random(rng):
    for _ in range(10):
        f = make_monostable(rng)
        assert phase_plane.semiwave_slope(f, 0.0) == pytest.approx(
            energy_slope(f), abs=1e-10)
    for _ in range(10):
        f = make_bistable(rng)
        assert phase_plane.semiwave_slope(f, 0.0) == pytest.approx(
            energy_slope(f), abs=1e-10)


def test_example_slopes(logistic, cubic25):
    assert phase_plane.semiwave_slope(logistic, 0.0) == pytest.approx(
        -0.5773503, abs=1e-6)
    assert phase_plane.semiwave_slope(cubic25, 0.0) == pytest.approx(
        -0.2886751, abs=1e-6)


def test_slope_strictly_increasing_in_c(logistic, cubic25):
    for f, speeds in ((logistic, (-0.5, 0.0, 0.5)), (cubic25, (-0.2, 0.0, 0.1))):
        s = [phase_plane.semiwave_slope(f, c) for c in speeds]
        assert s[0] < s[1] < s[2] < 0.0


def test_increasing_side_is_exact_reflection(logistic, cubic25):
    for f in (logistic, cubic25):
        for c in (-0.3, 0.0, 0.25):
            assert phase_plane.semiwave_slope_increasing(f, c) == \
                -phase_plane.semiwave_slope(f, -c)
            inc = phase_plane.semiwave_profile_increasing(f, c)
            dec = phase_plane.semiwave_profile(f, -c)
            assert np.array_equal(inc.z, -dec.z[::-1])
            assert np.array_equal(inc.phi, dec.phi[::-1])
            assert np.array_equal(inc.dphi, -dec.dphi[::-1])


def test_slope_vanishes_toward_critical(logistic, cubic25):
    for f in (logistic, cubic25):
        c_star = phase_plane.critical_speed_decreasing(f)
        s = [phase_plane.semiwave_slope(f, c_star - eps)
             for eps in (1e-2, 1e-3, 1e-4)]
        assert s[0] < s[1] < s[2] < 0.0


def test_no_crossing_above_critical(logistic):
    out = phase_plane.shoot_decreasing(logistic, 3.0)
    assert out.tag == "converges_origin"
    with pytest.raises(NoSemiWave):
        phase_plane.semiwave_slope(logistic, 3.0)


def test_failed_slope_shot_is_cached(logistic, monkeypatch):
    # a speed with no semi-wave raises every time, but shoots only once
    calls = []
    real = phase_plane.integrate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(phase_plane, "integrate", counted)
    phase_plane._slope_cached.cache_clear()
    for _ in range(2):
        with pytest.raises(NoSemiWave):
            phase_plane.semiwave_slope(logistic, 2.0)
    assert len(calls) == 1


def _pushed(a, nu):
    """u (1 - u) (a + a nu u): pushed for nu > 2, with c* = sqrt(a) (nu + 2) / sqrt(2 nu)."""
    return (reaction.polynomial([0.0, a, a * nu - a, -a * nu]),
            math.sqrt(a) * (nu + 2.0) / math.sqrt(2.0 * nu))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.floats(0.3, 2.0), st.floats(2.5, 8.0), st.floats(0.01, 0.99),
       st.floats(1e-7, 1e-6))
def test_node_trap_keeps_the_horizon_tag(a, nu, fraction, offset):
    # the trapped tag shot must tag every speed past the node speed as the
    # full-horizon shot does, crossing or not, right up against c*
    f, c_star = _pushed(a, nu)
    lo = 2.0 * math.sqrt(a)
    hi = 2.0 * math.sqrt(phase_plane._sector_growth(f))
    tags = []
    for c in (lo + fraction * (hi - lo), c_star - offset, c_star + offset):
        y0, _ = phase_plane._launch_state(f, c)
        full = phase_plane._run_shot(f, c, y0, phase_plane.Z_CAP_TAG,
                                     phase_plane.TAG_REL_TOL)
        tags.append(phase_plane.shoot_decreasing(f, c).tag)
        assert tags[-1] == phase_plane._classify(full, c).tag
    assert tags[1:] == ["crosses_zero", "converges_origin"]


def test_pushed_speed_step_budget(monkeypatch):
    # the node trap stops non-crossing bisection shots long before z = 450
    steps = []
    real = phase_plane.integrate

    def counted(*args, **kwargs):
        traj = real(*args, **kwargs)
        steps.append(len(traj.t) - 1)
        return traj

    monkeypatch.setattr(phase_plane, "integrate", counted)
    phase_plane._critical_speed_cached.cache_clear()
    f, c_star = _pushed(1.0, 4.0)
    assert f.coeffs == (0.0, 1.0, 3.0, -4.0)
    assert abs(phase_plane.critical_speed_decreasing(f) - c_star) <= 1e-7
    assert sum(steps) <= 8000


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.floats(2.5, 8.0))
def test_pushed_speed_property(nu):
    f, exact = _pushed(1.0, nu)
    c_star = phase_plane.critical_speed_decreasing(f)
    assert abs(c_star - exact) <= 1e-6
    growth = phase_plane._sector_growth(f)
    assert 2.0 * math.sqrt(reaction.derivative_at(f, 0.0)) < c_star < 2.0 * math.sqrt(growth)
    assert phase_plane.critical_speed_increasing(f) == -c_star


def test_shot_outcome_fields(logistic):
    out = phase_plane.shoot_decreasing(logistic, 0.0)
    assert out.tag == "crosses_zero"
    assert out.c == 0.0
    assert out.z_stop > 0.0
    assert abs(out.phi_stop) < 1e-10
    assert out.dphi_stop < 0.0


def test_critical_speed_examples(logistic):
    assert phase_plane.critical_speed_decreasing(logistic) == pytest.approx(
        2.0, abs=1e-3)
    c4 = phase_plane.critical_speed_decreasing(reaction.cubic_bistable(0.4))
    assert c4 == pytest.approx((1 - 0.8) / math.sqrt(2), abs=1e-5)


def test_kpp_speed_is_exact(logistic):
    # f(u) <= f'(0) u on [0, 1]: c* = 2 sqrt(f'(0)) with no bisection fuzz
    kpp = reaction.polynomial((0.0, 2.0, -1.0, -1.0))
    assert phase_plane.critical_speed_decreasing(logistic) == 2.0
    assert phase_plane.critical_speed_decreasing(kpp) == 2.0 * math.sqrt(2.0)


def test_no_crossing_at_sector_speed(cubic25):
    # K = max f(u)/u: u (1-u)(1+3u) peaks at K = 4/3, the cubic at ((1-theta)/2)^2
    pushed = reaction.polynomial((0.0, 1.0, 2.0, -3.0))
    for f, growth in ((pushed, 4.0 / 3.0), (cubic25, 0.375 ** 2)):
        assert phase_plane._sector_growth(f) == pytest.approx(growth, rel=1e-12)
        trap = 2.0 * math.sqrt(growth)
        assert phase_plane.shoot_decreasing(f, trap).tag != "crosses_zero"


def test_critical_speed_increasing_is_mirror(logistic, cubic25):
    for f in (logistic, cubic25):
        assert phase_plane.critical_speed_increasing(f) == \
            -phase_plane.critical_speed_decreasing(f)


def test_semiwave_profile_invariants(logistic, cubic25):
    for f, c in ((logistic, 0.3), (cubic25, 0.1)):
        prof = phase_plane.semiwave_profile(f, c)
        assert prof.z[-1] == 0.0
        assert prof.phi[-1] == 0.0
        assert np.all(np.diff(prof.z) > 0)
        assert np.all(np.diff(prof.phi) < 0)
        assert 1.0 - prof.phi[0] <= 2.0 * prof.far_tol
        assert prof.interface_slope == pytest.approx(
            phase_plane.semiwave_slope(f, c), abs=1e-8)
        assert phase_plane.profile_residual(prof, f) <= 1e-6


def test_semiwave_profile_increasing_mirror(logistic):
    prof = phase_plane.semiwave_profile_increasing(logistic, 0.3)
    assert prof.z[0] == 0.0
    assert prof.phi[0] == 0.0
    assert np.all(np.diff(prof.phi) > 0)
    assert prof.interface_slope == pytest.approx(
        phase_plane.semiwave_slope_increasing(logistic, 0.3), abs=1e-8)
    assert phase_plane.profile_residual(prof, logistic) <= 1e-6


def test_front_profile_matches_exact_cubic(cubic25):
    front = phase_plane.front_profile(cubic25)
    exact = 1.0 / (1.0 + np.exp(front.z / math.sqrt(2)))
    assert np.max(np.abs(front.phi - exact)) <= 1e-3
    mid = np.argmin(np.abs(front.z))
    assert front.z[mid] == 0.0
    assert front.phi[mid] == pytest.approx(0.5, abs=1e-9)
    assert phase_plane.profile_residual(front, cubic25) <= 1e-6


def test_front_profile_rejects_monostable(logistic):
    with pytest.raises(InvalidReaction):
        phase_plane.front_profile(logistic)
