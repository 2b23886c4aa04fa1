"""Polynomial reaction terms and their structural classification.

A reaction term is a real polynomial f with f(0) = f(1) = 0, used as the
source term of a scalar reaction-diffusion equation on the unit density
range. Two shapes are supported:

* monostable: f > 0 on (0, 1), f'(0) > 0, f'(1) < 0 (logistic-like);
* bistable: a single interior zero theta with f < 0 on (0, theta),
  f > 0 on (theta, 1), f'(0) < 0, f'(1) < 0 (cubic-like), and positive
  total mass F(1) = int_0^1 f > 0 so the high state wins.

Coefficients are stored in increasing-power order: f(u) = sum c_k u^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidReaction

_ZERO_TOL = 1e-10
_GRID_N = 4001


@dataclass(frozen=True)
class ReactionSpec:
    """Immutable polynomial reaction term.

    Frozen (hashable) so downstream solvers can memoize on it.
    """

    coeffs: tuple
    kind: str
    theta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.kind not in ("monostable", "bistable"):
            raise InvalidReaction("kind must be 'monostable' or 'bistable', got %r" % (self.kind,))
        if self.kind == "bistable" and self.theta is None:
            raise InvalidReaction("bistable reactions require an interior zero theta")


def logistic() -> ReactionSpec:
    """f(u) = u (1 - u)."""
    return ReactionSpec(coeffs=(0.0, 1.0, -1.0), kind="monostable")


def cubic_bistable(theta: float) -> ReactionSpec:
    """f(u) = u (u - theta) (1 - u) with interior zero theta in (0, 1/2).

    theta < 1/2 keeps F(1) > 0, so the u = 1 state is dominant.
    """
    theta = float(theta)
    if not 0.0 < theta < 0.5:
        raise InvalidReaction("cubic_bistable requires 0 < theta < 1/2, got %g" % theta)
    return ReactionSpec(coeffs=(0.0, -theta, 1.0 + theta, -1.0), kind="bistable", theta=theta)


def polynomial(coeffs, kind: Optional[str] = None) -> ReactionSpec:
    """Build a ReactionSpec from raw coefficients, classifying if kind is None.

    Always validates the structural requirements of the resulting kind.
    """
    coeffs = tuple(float(c) for c in coeffs)
    found_kind, theta = classify(coeffs)
    if kind is not None and kind != found_kind:
        raise InvalidReaction(
            "declared kind %r but coefficients classify as %r" % (kind, found_kind))
    return ReactionSpec(coeffs=coeffs, kind=found_kind, theta=theta)


def evaluate(spec: ReactionSpec, u):
    """f(u) by Horner's rule; u may be a scalar or an ndarray."""
    return _horner(spec.coeffs, u)


def derivative_at(spec: ReactionSpec, u):
    """f'(u); u may be a scalar or an ndarray."""
    dcoeffs = tuple(k * c for k, c in enumerate(spec.coeffs))[1:]
    if not dcoeffs:
        return 0.0 * u if isinstance(u, np.ndarray) else 0.0
    return _horner(dcoeffs, u)


def primitive_at(spec: ReactionSpec, u):
    """F(u) = int_0^u f, exact polynomial antiderivative with F(0) = 0."""
    pcoeffs = (0.0,) + tuple(c / (k + 1.0) for k, c in enumerate(spec.coeffs))
    return _horner(pcoeffs, u)


def _horner(coeffs, u):
    acc = np.zeros_like(u, dtype=float) if isinstance(u, np.ndarray) else 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def classify(coeffs) -> tuple:
    """Classify raw coefficients as (kind, theta).

    Requires f(0) = f(1) = 0 within 1e-10, then inspects interior zeros and
    sign structure on a dense grid, refining each sign change with a
    bracketing root solve.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs or all(c == 0.0 for c in coeffs):
        raise InvalidReaction("reaction polynomial is identically zero")
    f = lambda u: _horner(coeffs, u)
    scale = max(abs(c) for c in coeffs)
    if abs(f(0.0)) > _ZERO_TOL * scale:
        raise InvalidReaction("f(0) must vanish, got %g" % f(0.0))
    if abs(f(1.0)) > _ZERO_TOL * scale:
        raise InvalidReaction("f(1) must vanish, got %g" % f(1.0))

    grid = np.linspace(0.0, 1.0, _GRID_N)[1:-1]
    vals = f(grid)
    zeros = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            zeros.append(grid[i])
        elif a * b < 0.0:
            zeros.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    # collapse near-duplicates from tangencies
    distinct = []
    for z in zeros:
        if not distinct or z - distinct[-1] > 1e-8:
            distinct.append(z)

    dcoeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
    fp0 = _horner(dcoeffs, 0.0)
    fp1 = _horner(dcoeffs, 1.0)

    if not distinct:
        if not np.all(vals > 0.0):
            raise InvalidReaction("no interior zero but f is not positive on (0, 1)")
        if fp0 <= 0.0:
            raise InvalidReaction("monostable reaction needs f'(0) > 0, got %g" % fp0)
        if fp1 >= 0.0:
            raise InvalidReaction("monostable reaction needs f'(1) < 0, got %g" % fp1)
        return "monostable", None

    if len(distinct) == 1:
        theta = distinct[0]
        left = vals[grid < theta - 1e-6]
        right = vals[grid > theta + 1e-6]
        if left.size and not np.all(left < 0.0):
            raise InvalidReaction("bistable reaction needs f < 0 on (0, theta)")
        if right.size and not np.all(right > 0.0):
            raise InvalidReaction("bistable reaction needs f > 0 on (theta, 1)")
        if fp0 >= 0.0:
            raise InvalidReaction("bistable reaction needs f'(0) < 0, got %g" % fp0)
        if fp1 >= 0.0:
            raise InvalidReaction("bistable reaction needs f'(1) < 0, got %g" % fp1)
        mass = _horner((0.0,) + tuple(c / (k + 1.0) for k, c in enumerate(coeffs)), 1.0)
        if mass <= 0.0:
            raise InvalidReaction(
                "bistable reaction needs positive total mass int_0^1 f, got %g" % mass)
        return "bistable", theta

    raise InvalidReaction(
        "reaction has %d interior zeros in (0, 1); expected 0 or 1" % len(distinct))
