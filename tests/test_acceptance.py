"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test covers one numbered criterion and records a single PASS/FAIL line
(printed, and echoed in the terminal summary).
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import make_monostable, width_energy_quadrature
from freewave import (cli, compact_wave, matching, pde_verify, phase_plane,
                      reaction)
from freewave.reaction import primitive_at


def test_criterion_1_invasion_speed(acceptance, logistic):
    phase_plane._critical_speed_cached.cache_clear()
    phase_plane._slope_cached.cache_clear()
    t0 = time.perf_counter()
    c_star = phase_plane.critical_speed_decreasing(logistic)
    elapsed = time.perf_counter() - t0
    err = abs(c_star - 2.0)
    ok = err <= 1e-3 and elapsed < 5.0
    acceptance(1, ok, "spreading speed %.7f (err %.2e, tol 1e-3) in %.2fs (limit 5s)"
               % (c_star, err, elapsed))
    assert ok


def test_criterion_2_bistable_speed_and_front(acceptance):
    worst_speed = 0.0
    worst_front = 0.0
    for theta in (0.1, 0.25, 0.4):
        f = reaction.cubic_bistable(theta)
        exact_c = (1.0 - 2.0 * theta) / math.sqrt(2.0)
        c_star = phase_plane.critical_speed_decreasing(f)
        worst_speed = max(worst_speed, abs(c_star - exact_c))
        front = phase_plane.front_profile(f)
        # align at the half-level crossing, then compare to the exact front
        shift = float(np.interp(0.5, front.phi[::-1], front.z[::-1]))
        exact = 1.0 / (1.0 + np.exp((front.z - shift) / math.sqrt(2.0)))
        worst_front = max(worst_front, float(np.max(np.abs(front.phi - exact))))
    ok = worst_speed <= 1e-4 and worst_front <= 1e-3
    acceptance(2, ok, "bistable speed err %.2e (tol 1e-4), front sup err %.2e (tol 1e-3)"
               % (worst_speed, worst_front))
    assert ok


def test_criterion_3_zero_speed_energy_identities(acceptance, rng, logistic):
    specs = [logistic, reaction.cubic_bistable(0.1), reaction.cubic_bistable(0.25),
             reaction.cubic_bistable(0.4)]
    worst = 0.0
    for f in specs:
        expected = -math.sqrt(2.0 * primitive_at(f, 1.0))
        worst = max(worst, abs(phase_plane.semiwave_slope(f, 0.0) - expected))
    for _ in range(20):
        f = make_monostable(rng)
        sigma = float(rng.uniform(0.3, 0.9))
        expected = -math.sqrt(2.0 * primitive_at(f, 1.0))
        worst = max(worst, abs(phase_plane.semiwave_slope(f, 0.0) - expected))
        edge = math.sqrt(2.0 * primitive_at(f, sigma))
        worst = max(worst, abs(compact_wave.left_slope(f, sigma, 0.0) - edge))
        worst = max(worst, abs(compact_wave.right_slope(f, sigma, 0.0) + edge))
    ok = worst <= 1e-6
    acceptance(3, ok, "zero-speed slope identities, worst err %.2e (tol 1e-6)" % worst)
    assert ok


def test_criterion_4_two_species_dispersion(acceptance, logistic):
    alpha = 1.0
    boundary = matching.beta_boundary(logistic, logistic, alpha)
    bt = boundary.balanced()
    b0 = boundary.coefficient(0.0)
    c_g = phase_plane.critical_speed_increasing(logistic)
    hat = matching.hat_c_f(logistic, alpha)
    grid = np.linspace(c_g + 1e-3, hat - 1e-3, 50)
    betas = [boundary.coefficient(c) for c in grid]
    decreasing = all(a > b for a, b in zip(betas, betas[1:]))
    tails = betas[-1] < 0.05 * bt and betas[0] > 20.0 * bt
    c_signs = [matching.solve_two_species(logistic, logistic, alpha, b).c
               for b in (0.5 * bt, bt, 2.0 * bt)]
    signs_ok = c_signs[0] > 0 and abs(c_signs[1]) <= 1e-6 and c_signs[2] < 0
    ok = abs(b0 - bt) <= 1e-6 and decreasing and tails and signs_ok
    acceptance(4, ok,
               "beta(0) err %.2e (tol 1e-6), 50-pt monotone %s, tails %s, "
               "speed signs (%.3f, %.1e, %.3f)"
               % (abs(b0 - bt), decreasing, tails, c_signs[0], c_signs[1], c_signs[2]))
    assert ok


def test_criterion_5_compact_window_and_width(acceptance, logistic, cubic25):
    cases = [(logistic, s) for s in (0.3, 0.5, 0.7, 0.9)]
    cases += [(cubic25, s) for s in (0.5, 0.7, 0.9)]
    ordered = True
    worst_width = 0.0
    for f2, sigma in cases:
        win = compact_wave.speed_window(f2, sigma)
        ordered = ordered and (win.c_star_l < win.L_sigma < 0.0
                               < win.R_sigma < win.c_star_r)
        wave = compact_wave.compact_profile(f2, sigma, 0.0)
        quad = width_energy_quadrature(f2, sigma)
        worst_width = max(worst_width, abs(wave.width - quad))
    ok = ordered and worst_width <= 1e-4
    acceptance(5, ok, "window ordering %s over %d cases, width err %.2e (tol 1e-4)"
               % (ordered, len(cases), worst_width))
    assert ok


def test_criterion_6_three_species_at_given_speed(acceptance, cubic25, logistic):
    alpha = gamma = 1.0
    sigma = 0.5
    tag = matching.case_classify(cubic25, logistic, cubic25, alpha, gamma, sigma)
    interval_ok = tag.c_minus < 0.0 < tag.c_plus
    left = matching.left_boundary(cubic25, logistic, alpha, sigma)
    right = matching.right_boundary(logistic, cubic25, gamma, sigma)
    btl = left.balanced()
    btr = right.balanced()
    bl0 = left.coefficient(0.0)
    br0 = right.coefficient(0.0)
    balanced_err = max(abs(bl0 - btl), abs(br0 - btr), abs(btl - 0.7071068 * alpha))
    grid = np.linspace(tag.c_minus + 1e-3, tag.c_plus - 1e-3, 30)
    bl = [left.coefficient(c) for c in grid]
    br = [right.coefficient(c) for c in grid]
    monotone = (all(a > b for a, b in zip(bl, bl[1:]))
                and all(a < b for a, b in zip(br, br[1:])))
    inverse_err = 0.0
    for c0 in (-0.06, 0.08):
        blc = left.coefficient(c0)
        inverse_err = max(inverse_err, abs(left.speed(blc) - c0))
    brc = right.coefficient(0.08)
    inverse_err = max(inverse_err, abs(right.speed(brc) - 0.08))
    signs_ok = True
    for c in (-0.05, 0.0, 0.05):
        wave = matching.solve_three_species(cubic25, logistic, cubic25,
                                            alpha, gamma, sigma, c)
        if c > 0:
            signs_ok = signs_ok and wave.beta_l < btl and wave.beta_r > btr
        elif c < 0:
            signs_ok = signs_ok and wave.beta_l > btl and wave.beta_r < btr
        else:
            signs_ok = signs_ok and abs(wave.beta_l - btl) <= 1e-6
    ok = (interval_ok and balanced_err <= 1e-6 and monotone
          and inverse_err <= 1e-6 and signs_ok)
    acceptance(6, ok,
               "interval (%.4f, %.4f), balanced err %.2e (tol 1e-6), 30-pt "
               "monotone %s, inverse err %.2e (tol 1e-6), sign law %s"
               % (tag.c_minus, tag.c_plus, balanced_err, monotone,
                  inverse_err, signs_ok))
    assert ok


def test_criterion_7_case_coverage(acceptance, logistic):
    strong = reaction.polynomial([0.0, 4.0, -4.0])
    sweep = [
        (logistic, 1.0, logistic, 1.0),
        (strong, 10.0, logistic, 1.0),
        (logistic, 1.0, strong, 10.0),
        (strong, 10.0, strong, 10.0),
    ]
    seen = set()
    for f1, alpha, f3, gamma in sweep:
        tag = matching.case_classify(f1, logistic, f3, alpha, gamma, 0.5)
        seen.add((tag.left_case, tag.right_case))
    expected = {("Case1", "CaseI"), ("Case2", "CaseI"),
                ("Case1", "CaseII"), ("Case2", "CaseII")}
    ok = seen == expected
    acceptance(7, ok, "case sweep produced %s" % sorted(seen))
    assert ok


def test_criterion_8_front_frame_simulation(acceptance, logistic):
    t0 = time.perf_counter()
    wave = matching.solve_two_species(logistic, logistic, 1.0, 0.5)
    report = pde_verify.run(wave, L=40.0, N=2000, T=20.0)
    rel_err = abs(report.mean_speed - wave.c) / abs(wave.c)
    sym = matching.solve_two_species(logistic, logistic, 1.0, 1.0)
    sym_report = pde_verify.run(sym, L=40.0, N=2000, T=20.0)
    elapsed = time.perf_counter() - t0
    ok = (rel_err < 0.02 and report.profile_drift < 5e-2
          and abs(sym_report.mean_speed) < 1e-3 and elapsed < 60.0)
    acceptance(8, ok,
               "moving: rel speed err %.2e (tol 2e-2), drift %.2e (tol 5e-2); "
               "pinned: |mean| %.1e (tol 1e-3); %.1fs (limit 60s)"
               % (rel_err, report.profile_drift, abs(sym_report.mean_speed), elapsed))
    assert ok


def test_criterion_9_reproducible_outputs(acceptance, tmp_path):
    argsets = [
        ["semiwave", "--f", "logistic", "--c", "0.3", "--out"],
        ["compact", "--f2", "logistic", "--sigma", "0.5", "--c", "0", "--out"],
    ]
    identical = True
    for i, argset in enumerate(argsets):
        d1 = str(tmp_path / ("a%d" % i))
        d2 = str(tmp_path / ("b%d" % i))
        assert cli.main(argset + [d1]) == 0
        assert cli.main(argset + [d2]) == 0
        for name in sorted(os.listdir(d1)):
            if not name.endswith(".csv"):
                continue
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            identical = identical and b1 == b2
    ok = identical
    acceptance(9, ok, "repeated runs byte-identical CSVs: %s" % identical)
    assert ok
