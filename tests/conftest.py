import math

import numpy as np
import pytest
from scipy.integrate import quad

from freewave import reaction
from freewave.reaction import evaluate, primitive_at

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Recorder for one PASS/FAIL line per acceptance criterion."""
    def record(name, ok, detail):
        line = "%s  criterion %s: %s" % ("PASS" if ok else "FAIL", name, detail)
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok
    return record


@pytest.fixture
def logistic():
    return reaction.logistic()


@pytest.fixture
def cubic25():
    return reaction.cubic_bistable(0.25)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_monostable(rng):
    """Random u (1 - u) (a + b u) with a > 0 and a + b > 0, so f > 0 on (0, 1)."""
    a = rng.uniform(0.3, 2.0)
    b = rng.uniform(-0.9 * a, 2.0)
    return reaction.polynomial([0.0, a, b - a, -b])


def make_bistable(rng):
    """Random positive multiple of a cubic with threshold below one half."""
    k = rng.uniform(0.3, 2.0)
    theta = rng.uniform(0.08, 0.42)
    base = reaction.cubic_bistable(theta)
    return reaction.polynomial([k * c for c in base.coeffs])


def width_energy_quadrature(f2, sigma):
    """Width of the c = 0 compact profile by the first-integral quadrature.

    At c = 0 the energy p^2/2 + F2(u) is conserved, so the half-width is
    int_0^sigma du / sqrt(2 (F2(sigma) - F2(u))); the substitution
    u = sigma - t^2 removes the apex singularity.
    """
    F_sig = primitive_at(f2, sigma)

    def integrand(t):
        gap = F_sig - primitive_at(f2, sigma - t * t)
        if gap <= 0.0:
            # only reachable at t = 0 through rounding; use the limit value
            return 2.0 / math.sqrt(2.0 * evaluate(f2, sigma))
        return 2.0 * t / math.sqrt(2.0 * gap)

    half, _ = quad(integrand, 0.0, math.sqrt(sigma), limit=200)
    return 2.0 * half
