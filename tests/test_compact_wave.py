import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_bistable, make_monostable, width_energy_quadrature
from freewave import compact_wave, phase_plane, reaction
from freewave.errors import Infeasible, NoSemiWave
from freewave.reaction import derivative_at, evaluate, primitive_at


def edge_slope_energy(f2, sigma):
    """Left edge slope at c = 0 from the first integral: sqrt(2 F2(sigma))."""
    return math.sqrt(2.0 * primitive_at(f2, sigma))


def test_zero_speed_slope_energy_identity(logistic, cubic25, rng):
    cases = [(logistic, 0.3), (logistic, 0.5), (logistic, 0.8), (cubic25, 0.5)]
    for _ in range(5):
        cases.append((make_monostable(rng), float(rng.uniform(0.3, 0.9))))
    for f2, sigma in cases:
        w = compact_wave.left_slope(f2, sigma, 0.0)
        assert w * w == pytest.approx(2.0 * primitive_at(f2, sigma), abs=1e-10)
        assert w == pytest.approx(edge_slope_energy(f2, sigma), abs=1e-10)


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


def test_compact_profile_residual_on_each_side(logistic, cubic25):
    # off c = 0 the two halves have different spacings, each uniform
    for f2, speeds in ((logistic, (-0.3, 0.3, 1.0)), (cubic25, (0.04,))):
        for c in speeds:
            wave = compact_wave.compact_profile(f2, 0.5, c)
            assert phase_plane.profile_residual(wave, f2) <= 1e-6


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.75, 0.95))
def test_edge_slope_and_window_property(seed, sigma):
    # over random reactions: omega_l(0) = sqrt(2 F2(sigma)) by the first
    # integral, and the window is symmetric, c*_l = -c*_r
    rng = np.random.default_rng(seed)
    for f2 in (make_monostable(rng), make_bistable(rng)):
        assert evaluate(f2, sigma) > 0.0 and primitive_at(f2, sigma) > 0.0
        assert compact_wave.left_slope(f2, sigma, 0.0) == pytest.approx(
            edge_slope_energy(f2, sigma), abs=1e-10)
        win = compact_wave.speed_window(f2, sigma)
        assert win.c_star_l == -win.c_star_r < 0.0


def test_width_matches_energy_quadrature(logistic):
    wave = compact_wave.compact_profile(logistic, 0.5, 0.0)
    assert wave.width == pytest.approx(
        width_energy_quadrature(logistic, 0.5), abs=1e-4)


def test_width_stability_under_tighter_tolerance(logistic, monkeypatch):
    base = compact_wave.compact_profile(logistic, 0.5, 0.0)
    monkeypatch.setattr(compact_wave, "SLOPE_REL_TOL", 1e-13)
    tight = compact_wave.compact_profile(logistic, 0.5, 0.0)
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


def test_failed_edge_shot_is_cached(cubic25, monkeypatch):
    # past the window edge right_slope raises every time, but shoots only once;
    # a bistable edge has no node trap, so the shot must run
    calls = []
    real = phase_plane.integrate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(phase_plane, "integrate", counted)
    phase_plane._slope_cached.cache_clear()
    for _ in range(2):
        with pytest.raises(NoSemiWave):
            compact_wave.right_slope(cubic25, 0.5, 0.2)
    assert len(calls) == 1


def test_window_edge_follows_tol(cubic25):
    # the edge's shots are as sharp as tol asks: at tol 1e-12 it agrees with
    # a bisection on 1e-13 shots, where 1e-7 shots leave it 1e-8 off
    def crosses(c):
        traj = phase_plane._run_shot(cubic25, c, (0.9, 0.0), phase_plane.Z_CAP_TAG, 1e-13)
        return phase_plane._classify(traj, c).tag == "crosses_zero"

    edge = compact_wave.speed_window(cubic25, 0.9, tol=1e-12).c_star_r
    lo, hi = edge - 1e-6, edge + 1e-6
    assert crosses(lo) and not crosses(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    assert abs(edge - lo) <= 1e-11


def test_speed_past_the_sector_is_infeasible_without_a_shot(cubic25, monkeypatch):
    # from 2 sqrt(K) on no edge connects; the error still quotes the window
    compact_wave.speed_window(cubic25, 0.5)
    calls = []
    real = phase_plane.integrate
    monkeypatch.setattr(phase_plane, "integrate",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for c in (1e300, -math.inf, math.nan):
        with pytest.raises(Infeasible, match="outside the compact-wave window"):
            compact_wave.compact_profile(cubic25, 0.5, c)
    assert calls == []


def test_logistic_window_needs_no_shot(logistic, monkeypatch):
    # KPP type: the bracket [2 sqrt(f'(0)), 2 sqrt(K)] is a single point
    calls = []
    monkeypatch.setattr(phase_plane, "integrate", lambda *a, **k: calls.append(1))
    phase_plane._critical_speed_cached.cache_clear()
    assert compact_wave.speed_window(logistic, 0.5).c_star_r == 2.0
    assert calls == []


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.3, 0.9))
def test_critical_speeds_lie_in_the_analytic_bracket(seed, sigma):
    # every shot below c_focus crosses (2 sqrt(f'(0)) for monostable f, 0 for
    # bistable f) and none at or above 2 sqrt(K), for saddle and apex alike
    rng = np.random.default_rng(seed)
    for f in (make_monostable(rng), make_bistable(rng)):
        lo = 2.0 * math.sqrt(derivative_at(f, 0.0)) if f.kind == "monostable" else 0.0
        hi = 2.0 * math.sqrt(phase_plane._sector_growth(f))
        assert lo <= phase_plane.critical_speed_decreasing(f) <= hi
        if evaluate(f, sigma) > 0.0 and primitive_at(f, sigma) > 0.0:
            assert lo <= compact_wave.speed_window(f, sigma).c_star_r <= hi
