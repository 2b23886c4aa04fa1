"""Thin integration and root-finding layer used by every solver in the library.

Wraps scipy's RK45 initial-value solver (with event detection and dense
output) and Brent root bracketing behind small dataclasses, so the rest of
the code never touches scipy directly and every numerical knob lives in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import BracketError, StepError


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for one initial-value integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = float("inf")
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class EventSpec:
    """A scalar event g(t, y); integration can stop where g crosses zero.

    direction > 0 fires only on rising crossings, < 0 only on falling,
    0 on both.
    """

    fn: Callable
    terminal: bool = True
    direction: float = 0.0
    name: str = ""


@dataclass
class Trajectory:
    """Result of one integration.

    y has one row per state component and one column per time, so y[k, -1]
    is component k at the stopping point.
    status: 0 = reached the end of the span, 1 = a terminal event fired.
    event_times[i] / event_states[i] collect every firing of events[i].
    dense(t) evaluates the continuous interpolant when dense output was
    requested.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    event_times: list = field(default_factory=list)
    event_states: list = field(default_factory=list)
    dense: Optional[Callable] = None

    def first_event(self, i: int):
        """(time, state) of the first firing of event i, or None."""
        if i < len(self.event_times) and len(self.event_times[i]):
            return self.event_times[i][0], self.event_states[i][0]
        return None


def integrate(rhs, t_span, y0, config: IntegratorConfig = IntegratorConfig(),
              events: Sequence[EventSpec] = (), dense_output: bool = False) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span from y0.

    Raises StepError if the solver gives up or exceeds config.max_steps.
    """
    wrapped = []
    for ev in events:
        g = _wrap_event(ev)
        wrapped.append(g)
    y0 = np.asarray(y0, dtype=float)
    first_step = None
    if np.any(y0 == 0.0):
        first_step = _first_step(rhs, t_span, y0, config)
    sol = solve_ivp(rhs, tuple(t_span), y0,
                    method="RK45", rtol=config.rel_tol, atol=config.abs_tol,
                    max_step=config.max_step, events=wrapped or None,
                    dense_output=dense_output, first_step=first_step)
    if sol.status < 0:
        raise StepError("integration failed: %s" % sol.message)
    if sol.t.size > config.max_steps:
        raise StepError("integration exceeded %d steps" % config.max_steps)
    ev_times = [np.asarray(te) for te in (sol.t_events or [])]
    ev_states = [np.asarray(ye) for ye in (sol.y_events or [])]
    return Trajectory(t=sol.t, y=sol.y, status=sol.status,
                      event_times=ev_times, event_states=ev_states,
                      dense=sol.sol if dense_output else None)


def _first_step(rhs, t_span, y0, config: IntegratorConfig) -> float:
    """Hairer's initial-step estimate for RK45 with a floored error scale.

    scipy scales errors by abs_tol + rel_tol |y|, so an exact zero in y0
    under a tiny abs_tol overflows its estimate to a zero step, and the
    solver then spends hundreds of steps growing back from the smallest
    representable one. Flooring the scale at rel_tol * max|y0| keeps the
    estimate finite.
    """
    t0, span = t_span[0], abs(t_span[1] - t_span[0])
    direction = 1.0 if t_span[1] >= t0 else -1.0
    scale = np.maximum(config.abs_tol + np.abs(y0) * config.rel_tol,
                       config.rel_tol * np.max(np.abs(y0)))

    def norm(v):
        return float(np.sqrt(np.mean((v / scale) ** 2)))

    f0 = np.asarray(rhs(t0, y0), dtype=float)
    d0, d1 = norm(y0), norm(f0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = np.asarray(rhs(t0 + direction * h0, y0 + direction * h0 * f0), dtype=float)
    d2 = norm(f1 - f0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)   # RK45's error estimator is order 4
    return min(100.0 * h0, h1, span, config.max_step)


def _wrap_event(ev: EventSpec):
    def g(t, y):
        return ev.fn(t, y)
    g.terminal = ev.terminal
    g.direction = ev.direction
    return g


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] expected to enclose a sign change."""

    lo: float
    hi: float


def find_root_monotone(fn, bracket: RootBracket, tol: float = 1e-10,
                       f_lo: Optional[float] = None, f_hi: Optional[float] = None) -> float:
    """Brent's method on a bracketed sign change; raises BracketError otherwise.

    Precomputed endpoint values may be passed to avoid re-evaluating an
    expensive fn.
    """
    lo, hi = bracket.lo, bracket.hi
    if not lo < hi:
        raise BracketError("empty bracket [%g, %g]" % (lo, hi))
    flo = fn(lo) if f_lo is None else f_lo
    fhi = fn(hi) if f_hi is None else f_hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            "no sign change on [%g, %g]: f(lo)=%g, f(hi)=%g" % (lo, hi, flo, fhi))
    return brentq(fn, lo, hi, xtol=tol, rtol=8.881784197001252e-16)


def bisect_predicate(pred, lo: float, hi: float, tol: float = 1e-8,
                     max_iter: int = 200) -> float:
    """Bisection on a boolean predicate that flips exactly once on [lo, hi].

    pred(lo) and pred(hi) must differ. Returns the midpoint of the final
    interval, whose width is at most 2*tol. Used where the shooting outcome
    is a discrete tag rather than a continuous residual.
    """
    plo = pred(lo)
    phi = pred(hi)
    if plo == phi:
        raise BracketError("predicate does not flip on [%g, %g]" % (lo, hi))
    for _ in range(max_iter):
        if hi - lo <= 2.0 * tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid) == plo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
