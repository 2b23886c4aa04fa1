import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_monostable
from freewave import compact_wave, matching, phase_plane, reaction
from freewave.errors import Infeasible
from freewave.reaction import primitive_at


@pytest.fixture
def strong():
    return reaction.polynomial([0.0, 4.0, -4.0])


def test_tilde_beta_closed_form(logistic, cubic25):
    for f, g, alpha in ((logistic, logistic, 1.0), (cubic25, logistic, 1.0),
                        (logistic, cubic25, 0.7)):
        expected = alpha * math.sqrt(primitive_at(f, 1.0) / primitive_at(g, 1.0))
        assert matching.tilde_beta(f, g, alpha) == pytest.approx(expected, abs=1e-12)
    assert matching.tilde_beta(cubic25, logistic, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert matching.tilde_alpha(cubic25, logistic, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_balanced_coefficient_is_zero_speed_root(logistic, cubic25):
    for f, g, alpha in ((logistic, logistic, 1.0), (cubic25, logistic, 1.0)):
        bt = matching.tilde_beta(f, g, alpha)
        assert matching.D_two(0.0, alpha, bt, f, g) == pytest.approx(0.0, abs=1e-9)


def test_symmetric_matching_vanishes(logistic):
    assert matching.D_two(0.0, 1.0, 1.0, logistic, logistic) == pytest.approx(
        0.0, abs=1e-9)


def test_matching_function_increasing(logistic):
    lo = phase_plane.critical_speed_increasing(logistic)
    hat = matching.hat_c_f(logistic, 1.0)
    grid = np.linspace(lo + 1e-3, hat - 1e-3, 7)
    vals = [matching.D_two(c, 1.0, 0.7, logistic, logistic) for c in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_matching_function_domain(logistic):
    with pytest.raises(Infeasible):
        matching.D_two(2.5, 1.0, 1.0, logistic, logistic)
    with pytest.raises(Infeasible):
        matching.D_two(-2.5, 1.0, 1.0, logistic, logistic)


def test_admissible_interval_symmetric(logistic):
    lo = phase_plane.critical_speed_increasing(logistic)
    hi = phase_plane.critical_speed_decreasing(logistic)
    assert lo == -hi
    assert hi == pytest.approx(2.0, abs=1e-3)


def test_hat_c_residual(logistic, cubic25):
    for f, alpha in ((logistic, 1.0), (logistic, 0.5), (cubic25, 1.0)):
        hat = matching.hat_c_f(f, alpha)
        c_star = phase_plane.critical_speed_decreasing(f)
        assert 0.0 < hat < c_star
        resid = alpha * phase_plane.semiwave_slope(f, hat) + hat
        assert abs(resid) < 1e-8


def test_hat_c_increasing_in_alpha(logistic):
    hats = [matching.hat_c_f(logistic, a) for a in (0.01, 0.1, 1.0)]
    assert hats[0] < hats[1] < hats[2]


def test_hat_c_requires_positive_alpha(logistic):
    with pytest.raises(Infeasible):
        matching.hat_c_f(logistic, 0.0)


def test_beta_of_c_tilde_and_monotone(logistic):
    assert matching.beta_of_c(logistic, logistic, 1.0, 0.0) == pytest.approx(
        1.0, abs=1e-8)
    grid = np.linspace(-0.5, 0.3, 9)
    vals = [matching.beta_of_c(logistic, logistic, 1.0, c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_beta_of_c_domain(logistic):
    hat = matching.hat_c_f(logistic, 1.0)
    with pytest.raises(Infeasible):
        matching.beta_of_c(logistic, logistic, 1.0, hat + 0.05)


def test_alpha_of_c_inverse_relation(logistic):
    assert matching.alpha_of_c(logistic, logistic, 1.0, 0.0) == pytest.approx(
        1.0, abs=1e-8)
    a = matching.alpha_of_c(logistic, logistic, 1.0, 0.12)
    assert matching.D_two(0.12, a, 1.0, logistic, logistic) == pytest.approx(
        0.0, abs=1e-10)
    with pytest.raises(Infeasible):
        matching.alpha_of_c(logistic, logistic, 1.0, -0.5)


def test_solve_two_species_symmetric(logistic):
    wave = matching.solve_two_species(logistic, logistic, 1.0, 1.0)
    assert wave.c == pytest.approx(0.0, abs=1e-6)
    assert wave.residual <= 1e-8
    assert wave.tilde_beta == pytest.approx(1.0, abs=1e-12)
    assert wave.left.z[-1] == 0.0 and wave.left.phi[-1] == 0.0
    assert wave.right.z[0] == 0.0 and wave.right.phi[0] == 0.0


def test_solve_two_species_sign_law(logistic):
    bt = matching.tilde_beta(logistic, logistic, 1.0)
    cs = [matching.solve_two_species(logistic, logistic, 1.0, b).c
          for b in (0.5 * bt, bt, 2.0 * bt)]
    assert cs[0] > 1e-3
    assert cs[1] == pytest.approx(0.0, abs=1e-6)
    assert cs[2] < -1e-3


def test_sign_law_random_draws(rng):
    for _ in range(20):
        f = make_monostable(rng)
        g = make_monostable(rng)
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.3, 2.0))
        bt = matching.tilde_beta(f, g, alpha)
        d0 = matching.D_two(0.0, alpha, beta, f, g)
        # beta below the balanced value pushes the root (the wave speed) right
        if beta < bt:
            assert d0 < 0.0
        elif beta > bt:
            assert d0 > 0.0


def _refuse(*args, **kwargs):
    raise AssertionError("the speed root must not need this")


def test_symmetric_speed_needs_no_critical_speed(monkeypatch, cubic25):
    for name in ("hat_c_f", "critical_speed_decreasing", "critical_speed_increasing"):
        monkeypatch.setattr(matching, name, _refuse)
    assert matching.solve_two_species(cubic25, cubic25, 1.0, 1.0).c == 0.0


def test_positive_speed_needs_no_hat_c(monkeypatch):
    # F(1) = (1 - 2 theta) / 12: the lower threshold on the left wins
    f, g = reaction.cubic_bistable(0.2), reaction.cubic_bistable(0.3)
    monkeypatch.setattr(matching, "hat_c_f", _refuse)
    wave = matching.solve_two_species(f, g, 1.0, 1.0)
    assert 0.0 < wave.c < phase_plane.critical_speed_decreasing(f)
    assert abs(matching.D_two(wave.c, 1.0, 1.0, f, g)) <= 1e-9


def _scaled_cubic(k, theta):
    return reaction.polynomial([k * c for c in reaction.cubic_bistable(theta).coeffs])


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.floats(0.5, 2.0), st.floats(0.1, 0.4), st.floats(0.5, 2.0),
       st.floats(0.1, 0.4), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_two_species_speed_reflects(kf, theta_f, kg, theta_g, a, b):
    # swapping the species and their coefficients mirrors the wave: c -> -c
    f, g = _scaled_cubic(kf, theta_f), _scaled_cubic(kg, theta_g)
    c = matching.solve_two_species(f, g, a, b).c
    assert c == pytest.approx(-matching.solve_two_species(g, f, b, a).c, abs=1e-10)
    assert abs(matching.D_two(c, a, b, f, g)) <= 1e-9


def test_two_species_inverse_pair(logistic):
    b = matching.beta_of_c(logistic, logistic, 1.0, 0.1)
    wave = matching.solve_two_species(logistic, logistic, 1.0, b)
    assert wave.c == pytest.approx(0.1, abs=1e-6)


def test_case_classify_symmetric(cubic25, logistic):
    tag = matching.case_classify(cubic25, logistic, cubic25, 1.0, 1.0, 0.5)
    assert tag.left_case == "Case1"
    assert tag.right_case == "CaseI"
    assert tag.hat_c3 == -tag.hat_c1
    assert tag.c_star_r == -tag.c_star_l
    assert tag.c_minus == max(tag.hat_c3, tag.c_star_l) == tag.hat_c3
    assert tag.c_plus == min(tag.hat_c1, tag.c_star_r) == tag.hat_c1
    assert tag.c_minus < 0.0 < tag.c_plus


def test_tilde_beta_l_r_closed_form(cubic25, logistic):
    bl = matching.tilde_beta_l(cubic25, logistic, 1.0, 0.5)
    br = matching.tilde_beta_r(logistic, cubic25, 1.0, 0.5)
    expected = math.sqrt(primitive_at(cubic25, 1.0) / primitive_at(logistic, 0.5))
    assert bl == pytest.approx(expected, abs=1e-12)
    assert bl == pytest.approx(0.7071068, abs=1e-6)
    assert br == pytest.approx(bl, abs=1e-12)


def test_beta_l_r_at_zero_speed(cubic25, logistic):
    bl0 = matching.beta_l_of_c(cubic25, logistic, 1.0, 0.5, 0.0)
    br0 = matching.beta_r_of_c(logistic, cubic25, 1.0, 0.5, 0.0)
    assert bl0 == pytest.approx(matching.tilde_beta_l(cubic25, logistic, 1.0, 0.5),
                                abs=1e-8)
    assert br0 == pytest.approx(matching.tilde_beta_r(logistic, cubic25, 1.0, 0.5),
                                abs=1e-8)


def test_beta_l_decreasing_beta_r_increasing(cubic25, logistic):
    tag = matching.case_classify(cubic25, logistic, cubic25, 1.0, 1.0, 0.5)
    grid = np.linspace(tag.c_minus + 0.01, tag.c_plus - 0.01, 7)
    bl = [matching.beta_l_of_c(cubic25, logistic, 1.0, 0.5, c) for c in grid]
    br = [matching.beta_r_of_c(logistic, cubic25, 1.0, 0.5, c) for c in grid]
    assert all(a > b for a, b in zip(bl, bl[1:]))
    assert all(a < b for a, b in zip(br, br[1:]))


def test_beta_l_domain(cubic25, logistic):
    hat1 = matching.hat_c_f(cubic25, 1.0)
    with pytest.raises(Infeasible):
        matching.beta_l_of_c(cubic25, logistic, 1.0, 0.5, hat1 + 0.05)


def test_reflected_maps_name_their_own_domain(cubic25, logistic):
    # beta_r and alpha are the left pairing at -c; errors stay in the caller's frame
    c3 = matching.hat_c3(cubic25, 1.0)
    c_r = compact_wave.speed_window(logistic, 0.5).c_star_r
    with pytest.raises(Infeasible, match="right") as exc:
        matching.beta_r_of_c(logistic, cubic25, 1.0, 0.5, c3 - 0.05)
    assert "(%g, %g)" % (c3, c_r) in str(exc.value)
    hat_g = -matching.hat_c_f(logistic, 1.0)
    c_f = phase_plane.critical_speed_decreasing(logistic)
    with pytest.raises(Infeasible, match="alpha") as exc:
        matching.alpha_of_c(logistic, logistic, 1.0, hat_g - 0.05)
    assert "(%g, %g)" % (hat_g, c_f) in str(exc.value)


def test_beta0_requires_matching_case(strong, logistic):
    # symmetric data sits in Case1/CaseI, so the limiting coefficients are undefined
    with pytest.raises(Infeasible):
        matching.beta0_l(logistic, logistic, 1.0, 0.5)
    with pytest.raises(Infeasible):
        matching.beta0_r(logistic, logistic, 1.0, 0.5)
    # a strong left reaction with a large coefficient pushes hat_c1 past the window
    tag = matching.case_classify(strong, logistic, logistic, 10.0, 1.0, 0.5)
    assert tag.left_case == "Case2"
    assert matching.beta0_l(strong, logistic, 10.0, 0.5) > 0.0


def test_speed_from_coefficient_roundtrip(cubic25, logistic):
    c0 = 0.08
    bl = matching.beta_l_of_c(cubic25, logistic, 1.0, 0.5, c0)
    br = matching.beta_r_of_c(logistic, cubic25, 1.0, 0.5, c0)
    assert matching.C_l(cubic25, logistic, 1.0, 0.5, bl) == pytest.approx(
        c0, abs=1e-6)
    assert matching.C_r(logistic, cubic25, 1.0, 0.5, br) == pytest.approx(
        c0, abs=1e-6)


def test_speed_from_coefficient_case2_threshold(strong, logistic):
    b0 = matching.beta0_l(strong, logistic, 10.0, 0.5)
    with pytest.raises(Infeasible):
        matching.C_l(strong, logistic, 10.0, 0.5, 0.5 * b0)
    c = matching.C_l(strong, logistic, 10.0, 0.5, 2.0 * b0)
    assert matching.beta_l_of_c(strong, logistic, 10.0, 0.5, c) == pytest.approx(
        2.0 * b0, abs=1e-8)


def test_case2_maps_stop_at_window_edge(strong, logistic):
    # hat_c1 lies beyond c*_r here, but no compact middle profile exists past it
    c_r = compact_wave.speed_window(logistic, 0.5).c_star_r
    assert matching.hat_c_f(strong, 10.0) > 2.0129 > c_r
    with pytest.raises(Infeasible, match="left"):
        matching.beta_l_of_c(strong, logistic, 10.0, 0.5, 2.0129)
    with pytest.raises(Infeasible, match="right"):
        matching.beta_r_of_c(logistic, strong, 10.0, 0.5, -2.0129)


def test_positivity_errors_name_the_coefficient(cubic25, logistic):
    with pytest.raises(Infeasible, match="gamma must be positive"):
        matching.C_r(logistic, cubic25, -1.0, 0.5, 1.0)
    with pytest.raises(Infeasible, match="gamma must be positive"):
        matching.hat_c3(cubic25, -1.0)
    with pytest.raises(Infeasible, match="beta must be positive"):
        matching.alpha_of_c(logistic, logistic, -1.0, 0.1)
    with pytest.raises(Infeasible, match="beta must be positive"):
        matching.tilde_alpha(logistic, logistic, -1.0)


def test_solve_three_species_symmetric(cubic25, logistic):
    wave = matching.solve_three_species(cubic25, logistic, cubic25, 1.0, 1.0, 0.5, 0.0)
    assert wave.beta_l == pytest.approx(wave.tilde_beta_l, abs=1e-6)
    assert wave.beta_r == pytest.approx(wave.tilde_beta_r, abs=1e-6)
    assert wave.residual_left <= 1e-8
    assert wave.residual_right <= 1e-8
    assert wave.case_tag.left_case == "Case1"
    assert wave.middle.phi.max() == pytest.approx(0.5, abs=1e-8)
    assert wave.left.z[-1] == 0.0
    assert wave.right.z[0] == 0.0


def test_solve_three_species_domain(cubic25, logistic):
    with pytest.raises(Infeasible):
        matching.solve_three_species(cubic25, logistic, cubic25, 1.0, 1.0, 0.5, 0.5)


def test_dispersion_two_beta(logistic):
    grid = np.linspace(-0.3, 0.3, 5)
    curve = matching.dispersion_curve(
        "two_beta", {"f": logistic, "g": logistic, "alpha": 1.0}, grid)
    lo = phase_plane.critical_speed_increasing(logistic)
    hi = matching.hat_c_f(logistic, 1.0)
    assert curve.endpoints[0] == pytest.approx(lo, abs=1e-6)
    assert curve.endpoints[1] == pytest.approx(hi, abs=1e-6)
    beta = curve.columns["beta"]
    assert all(a > b for a, b in zip(beta, beta[1:]))


def test_dispersion_two_alpha(logistic):
    grid = np.linspace(-0.3, 0.3, 5)
    curve = matching.dispersion_curve(
        "two_alpha", {"f": logistic, "g": logistic, "beta": 1.0}, grid)
    alpha = curve.columns["alpha"]
    assert all(a < b for a, b in zip(alpha, alpha[1:]))
    assert curve.endpoints[1] == pytest.approx(
        phase_plane.critical_speed_decreasing(logistic), abs=1e-6)


def test_dispersion_three(cubic25, logistic):
    grid = np.linspace(-0.1, 0.1, 5)
    curve = matching.dispersion_curve(
        "three", {"f1": cubic25, "f2": logistic, "f3": cubic25,
                  "alpha": 1.0, "gamma": 1.0, "sigma": 0.5}, grid)
    bl = curve.columns["beta_l"]
    br = curve.columns["beta_r"]
    assert all(a > b for a, b in zip(bl, bl[1:]))
    assert all(a < b for a, b in zip(br, br[1:]))
    tag = matching.case_classify(cubic25, logistic, cubic25, 1.0, 1.0, 0.5)
    assert curve.endpoints[0] == pytest.approx(tag.c_minus, abs=1e-6)
    assert curve.endpoints[1] == pytest.approx(tag.c_plus, abs=1e-6)


def test_dispersion_grid_out_of_range(logistic):
    grid = np.linspace(-0.3, 0.5, 5)
    with pytest.raises(Infeasible, match="outside"):
        matching.dispersion_curve(
            "two_beta", {"f": logistic, "g": logistic, "alpha": 1.0}, grid)
