"""Thin integration and root-finding layer used by every solver in the library.

Wraps scipy's RK45 initial-value solver (with event detection and dense
output) and Brent root bracketing, so the rest of the code never touches
scipy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import BracketError, StepError

MAX_STEPS = 1_000_000     # guard against an integration that never settles


@dataclass
class Trajectory:
    """Result of one integration.

    y has one row per state component and one column per time, so y[k, -1]
    is component k at the stopping point.
    event_times[i] / event_states[i] collect every firing of events[i].
    dense(t) evaluates the continuous interpolant when dense output was
    requested.
    """

    t: np.ndarray
    y: np.ndarray
    event_times: list
    event_states: list
    dense: Optional[Callable] = None

    def first_event(self, i: int):
        """(time, state) of the first firing of event i, or None."""
        if i < len(self.event_times) and len(self.event_times[i]):
            return self.event_times[i][0], self.event_states[i][0]
        return None


def integrate(rhs, t_span, y0, events=(), dense_output: bool = False,
              rel_tol: float = 1e-10, abs_tol: float = 1e-12,
              max_step: float = math.inf) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span from y0.

    Each event is a scalar function g(t, y), recorded where it crosses zero
    and read by scipy's conventions: an attribute terminal = True stops the
    integration at the first crossing, and direction > 0 (< 0) counts only
    rising (falling) crossings. Raises StepError if the solver gives up or
    takes more than MAX_STEPS steps.
    """
    y0 = np.asarray(y0, dtype=float)
    first_step = None
    if np.any(y0 == 0.0):
        first_step = _first_step(rhs, t_span, y0, rel_tol, abs_tol, max_step)
    sol = solve_ivp(rhs, tuple(t_span), y0,
                    method="RK45", rtol=rel_tol, atol=abs_tol, max_step=max_step,
                    events=list(events) or None, dense_output=dense_output,
                    first_step=first_step)
    if sol.status < 0:
        raise StepError("integration failed: %s" % sol.message)
    if sol.t.size > MAX_STEPS:
        raise StepError("integration exceeded %d steps" % MAX_STEPS)
    return Trajectory(t=sol.t, y=sol.y,
                      event_times=[np.asarray(te) for te in (sol.t_events or [])],
                      event_states=[np.asarray(ye) for ye in (sol.y_events or [])],
                      dense=sol.sol if dense_output else None)


def _first_step(rhs, t_span, y0, rel_tol: float, abs_tol: float,
                max_step: float) -> float:
    """Hairer's initial-step estimate for RK45 with a floored error scale.

    scipy scales errors by abs_tol + rel_tol |y|, so an exact zero in y0
    under a tiny abs_tol overflows its estimate to a zero step, and the
    solver then spends hundreds of steps growing back from the smallest
    representable one. Flooring the scale at rel_tol * max|y0| keeps the
    estimate finite.
    """
    t0, span = t_span[0], abs(t_span[1] - t_span[0])
    direction = 1.0 if t_span[1] >= t0 else -1.0
    scale = np.maximum(abs_tol + np.abs(y0) * rel_tol, rel_tol * np.max(np.abs(y0)))

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
    return min(100.0 * h0, h1, span, max_step)


def find_root_monotone(fn, lo: float, hi: float, tol: float = 1e-10,
                       f_lo: Optional[float] = None, f_hi: Optional[float] = None) -> float:
    """Brent's method on a sign change of fn over [lo, hi]; raises BracketError
    when there is none.

    Endpoint values may be passed to spare evaluations of an expensive fn, or
    to stand in for its limit at an end where it cannot be evaluated; fn is
    then never called at that end.
    """
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

    def known_ends(x):
        # brentq evaluates both ends again before its first step
        return flo if x == lo else fhi if x == hi else fn(x)

    return brentq(known_ends, lo, hi, xtol=tol, rtol=8.881784197001252e-16)


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
