import math

import numpy as np
import pytest

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
