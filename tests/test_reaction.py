import numpy as np
import pytest

from conftest import make_bistable, make_monostable
from freewave import reaction
from freewave.errors import InvalidReaction


def test_logistic_values(logistic):
    assert reaction.evaluate(logistic, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert reaction.evaluate(logistic, 0.0) == 0.0
    assert reaction.evaluate(logistic, 1.0) == 0.0
    assert reaction.derivative_at(logistic, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert reaction.derivative_at(logistic, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert reaction.primitive_at(logistic, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert logistic.kind == "monostable"


def test_cubic_values(cubic25):
    theta = 0.25
    assert reaction.evaluate(cubic25, theta) == pytest.approx(0.0, abs=1e-15)
    assert reaction.evaluate(cubic25, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert reaction.derivative_at(cubic25, 0.0) == pytest.approx(-theta, abs=1e-15)
    # primitive over [0, 1] is 1/12 - theta/6 for this family
    assert reaction.primitive_at(cubic25, 1.0) == pytest.approx(1.0 / 12 - theta / 6, rel=1e-13)
    assert cubic25.kind == "bistable"


def test_evaluate_matches_polyval(rng):
    spec = make_monostable(rng)
    u = np.linspace(0.0, 1.0, 17)
    expected = np.polyval(list(reversed(spec.coeffs)), u)
    got = reaction.evaluate(spec, u)
    assert isinstance(got, np.ndarray)
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_primitive_is_antiderivative(rng):
    spec = make_bistable(rng)
    u = 0.7
    h = 1e-6
    fd = (reaction.primitive_at(spec, u + h) - reaction.primitive_at(spec, u - h)) / (2 * h)
    assert fd == pytest.approx(reaction.evaluate(spec, u), abs=1e-8)
    assert reaction.primitive_at(spec, 0.0) == 0.0


def test_classify_random_monostable(rng):
    for _ in range(10):
        spec = make_monostable(rng)
        assert spec.kind == "monostable"


def test_classify_random_bistable(rng):
    for _ in range(10):
        k = rng.uniform(0.3, 2.0)
        theta = rng.uniform(0.08, 0.42)
        base = reaction.cubic_bistable(theta)
        spec = reaction.polynomial([k * c for c in base.coeffs])
        assert spec.kind == "bistable"


def test_invalid_reactions():
    with pytest.raises(InvalidReaction):
        reaction.cubic_bistable(0.5)
    with pytest.raises(InvalidReaction):
        reaction.cubic_bistable(0.0)
    with pytest.raises(InvalidReaction):
        reaction.polynomial([0.1, 1.0, -1.0])   # f(0) != 0
    with pytest.raises(InvalidReaction):
        reaction.polynomial([0.0, 1.0, -0.5])   # f(1) != 0
    with pytest.raises(InvalidReaction):
        reaction.polynomial([0.0, -1.0, 1.0])   # negative on (0, 1)


def test_spec_is_hashable(logistic):
    assert hash(logistic) == hash(reaction.logistic())
    assert logistic == reaction.logistic()
    d = {logistic: 1}
    assert d[reaction.logistic()] == 1
