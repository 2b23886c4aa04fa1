import math

import numpy as np
import pytest

from conftest import make_monostable
from freewave import compact_wave, phase_plane, reaction
from freewave.errors import Infeasible, NoSemiWave
from freewave.reaction import primitive_at


def test_zero_speed_slope_energy_identity(logistic, cubic25, rng):
    cases = [(logistic, 0.3), (logistic, 0.5), (logistic, 0.8), (cubic25, 0.5)]
    for _ in range(5):
        cases.append((make_monostable(rng), float(rng.uniform(0.3, 0.9))))
    for f2, sigma in cases:
        w = compact_wave.left_slope(f2, sigma, 0.0)
        assert w * w == pytest.approx(2.0 * primitive_at(f2, sigma), abs=1e-10)
        assert w == pytest.approx(compact_wave.edge_slope_energy(f2, sigma), abs=1e-10)


def test_left_slope_example(logistic):
    assert compact_wave.left_slope(logistic, 0.5, 0.0) == pytest.approx(
        0.4082483, abs=1e-6)


def test_right_slope_is_reflected_left_slope(logistic, cubic25):
    # speeds stay inside each term's window (the bistable one is narrow)
    for f2, sigma, speeds in ((logistic, 0.5, (-0.2, 0.0, 0.3)),
                              (logistic, 0.8, (-0.2, 0.0, 0.3)),
                              (cubic25, 0.5, (-0.04, 0.0, 0.04))):
        for c in speeds:
            assert compact_wave.right_slope(f2, sigma, c) == \
                -compact_wave.left_slope(f2, sigma, -c)


def test_left_slope_increasing_in_c(logistic):
    s = [compact_wave.left_slope(logistic, 0.5, c) for c in (-0.2, 0.0, 0.2)]
    assert s[0] < s[1] < s[2]
    assert all(v > 0 for v in s)


def test_apex_shot_direction_reflection(logistic):
    # the profile at -c is the profile at c mirrored about its apex
    for c in (-0.3, 0.0, 0.4):
        a = compact_wave.compact_profile(logistic, 0.5, c)
        b = compact_wave.compact_profile(logistic, 0.5, -c)
        assert a.width == b.width
        assert a.slope_left == -b.slope_right
        assert a.slope_right == -b.slope_left
        assert a.apex == pytest.approx(b.width - b.apex, abs=1e-12)


def test_speed_window_structure(logistic, cubic25):
    for f2, sigma in ((logistic, 0.5), (cubic25, 0.5)):
        win = compact_wave.speed_window(f2, sigma)
        assert win.c_star_l < win.L_sigma < 0.0 < win.R_sigma < win.c_star_r
        assert win.c_star_r == -win.c_star_l
        assert win.R_sigma == -win.L_sigma


def test_speed_window_logistic_half_marks(logistic):
    win = compact_wave.speed_window(logistic, 0.5)
    # F2(1/2)/F2(1) = 1/2 for the logistic term, so the inner marks sit at -1, 1
    assert win.L_sigma == pytest.approx(-1.0, abs=1e-3)
    assert win.c_star_r == pytest.approx(2.0, abs=1e-3)


def test_compact_profile_shape(logistic):
    wave = compact_wave.compact_profile(logistic, 0.5, 0.0)
    assert wave.z[0] == 0.0
    assert wave.z[-1] == pytest.approx(wave.width, abs=1e-12)
    assert wave.phi[0] == 0.0
    assert wave.phi[-1] == 0.0
    assert wave.phi.max() == pytest.approx(0.5, abs=1e-9)
    # exactly one interior turning point
    d = np.sign(np.diff(wave.phi))
    d = d[d != 0]
    assert int(np.sum(d[1:] != d[:-1])) == 1
    assert 0.0 < wave.apex < wave.width
    assert wave.slope_left == pytest.approx(
        compact_wave.left_slope(logistic, 0.5, 0.0), abs=1e-10)
    assert wave.slope_right == pytest.approx(
        compact_wave.right_slope(logistic, 0.5, 0.0), abs=1e-10)
    assert wave.dphi[0] == pytest.approx(wave.slope_left, abs=1e-9)
    assert wave.dphi[-1] == pytest.approx(wave.slope_right, abs=1e-9)


def test_compact_profile_zero_speed_symmetry(logistic):
    wave = compact_wave.compact_profile(logistic, 0.5, 0.0)
    assert wave.apex == pytest.approx(wave.width / 2, abs=1e-8)
    assert wave.slope_right == pytest.approx(-wave.slope_left, abs=1e-12)


def test_compact_profile_moving(logistic):
    wave = compact_wave.compact_profile(logistic, 0.5, 1.5)
    assert wave.phi.max() == pytest.approx(0.5, abs=1e-9)
    assert wave.apex < wave.width / 2   # positive drift skews the hump toward the trailing edge


def test_width_matches_energy_quadrature(logistic):
    wave = compact_wave.compact_profile(logistic, 0.5, 0.0)
    assert wave.width == pytest.approx(
        compact_wave.width_energy_quadrature(logistic, 0.5), abs=1e-4)


def test_width_stability_under_tighter_tolerance(logistic):
    base = compact_wave.compact_profile(logistic, 0.5, 0.0)
    tight = compact_wave.compact_profile(logistic, 0.5, 0.0, rel_tol=1e-13)
    assert abs(base.width - tight.width) < 1e-6


def test_infeasible_apex_heights(cubic25):
    with pytest.raises(Infeasible):
        compact_wave.speed_window(cubic25, 0.2)    # f2(sigma) <= 0
    with pytest.raises(Infeasible):
        compact_wave.speed_window(cubic25, 0.3)    # F2(sigma) <= 0
    with pytest.raises(Infeasible):
        compact_wave.speed_window(cubic25, 1.2)    # outside (0, 1)


def test_speed_outside_window_is_infeasible(logistic):
    with pytest.raises(Infeasible):
        compact_wave.compact_profile(logistic, 0.5, 2.5)


def test_failed_edge_shot_is_cached(logistic, monkeypatch):
    # past the window edge right_slope raises every time, but shoots only once
    calls = []
    real = phase_plane.integrate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(phase_plane, "integrate", counted)
    compact_wave._right_slope_cached.cache_clear()
    for _ in range(2):
        with pytest.raises(NoSemiWave):
            compact_wave.right_slope(logistic, 0.5, 2.5)
    assert len(calls) == 1
