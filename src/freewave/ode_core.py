"""Planar shooting kernel and root finding used by every solver in the library.

integrate() is a Dormand-Prince 5(4) loop on two plain floats (Dormand &
Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6). It
follows scipy's RK45 step for step: the same tableau with its FSAL stage,
RMS error norm, step controller and initial-step estimate, the same event
rules, and the same quartic continuous extension for event location and
dense output, without numpy's per-step overhead. It integrates forward in
t only and keeps each event's first firing and the final state. Its stage
sums run left to right where scipy's go through BLAS, so step sizes agree
with scipy's to rounding, not bit for bit. scipy's initial-value solver is
this kernel's test oracle, not a code path. Root finding wraps Brent's
method from scipy.optimize.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, StepError

MAX_STEPS = 1_000_000     # guard against an integration that never settles
MAX_BISECTIONS = 200      # guard against a bisection tolerance below rounding

EPS = sys.float_info.epsilon
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -0.2     # -1 / (order of the error estimator + 1)
_SQRT2 = math.sqrt(2.0)

# Dormand-Prince 5(4): nodes C, stages A, solution weights B and error
# weights E; the second stage has zero weight in B, E and the interpolant
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                          -22 / 525, 1 / 40)
# continuous extension y(t_old + x h) = y_old + h sum_m Q_m x^(m+1), Q = K^T P,
# over the stages K1, K3, ..., K7 (scipy's RK45.P without its zero row)
P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


@dataclass
class Trajectory:
    """Result of one integration: t holds the start and then one entry per
    accepted step (the last one moved back to the root of a terminal event),
    y_end the final state, hits[i] the (time, state) of the first firing of
    events[i] or None, and dense(t), when requested, the continuous
    interpolant: shape (2,) for a scalar t, (2, n) for n times.
    """

    t: np.ndarray
    y_end: tuple
    hits: list
    dense: Optional[Callable] = None

    def first_event(self, i: int):
        """(time, state) of the first firing of event i, or None."""
        return self.hits[i]


def integrate(rhs, t_span, y0, events=(), dense_output: bool = False,
              rel_tol: float = 1e-10, abs_tol: float = 1e-12,
              max_step: float = math.inf) -> Trajectory:
    """Integrate the planar system y' = rhs(t, (y0, y1)) forward over t_span
    from y0, t_span[0] <= t_span[1].

    rhs returns the two derivatives. Each event is a scalar function
    g(t, (y0, y1)) that fires where it changes sign over a step, located on
    the step's interpolant; its first firing is kept in hits. scipy's
    conventions apply: an attribute
    terminal = True stops the integration at the earliest such root, and
    direction > 0 (< 0) counts only rising (falling) crossings. Raises
    StepError when the step size falls below 10 ulp of t or is NaN, or
    after MAX_STEPS accepted steps.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    ya, yb = (float(v) for v in y0)
    rtol, atol = max(float(rel_tol), 100.0 * EPS), float(abs_tol)
    fa, fb = rhs(t, (ya, yb))
    h_abs = _first_step(rhs, t, t_end, (ya, yb), (fa, fb), rtol, atol, max_step)

    events = tuple(events)
    stops = [bool(getattr(e, "terminal", False)) for e in events]
    sides = [getattr(e, "direction", 0.0) for e in events]
    g = [e(t, (ya, yb)) for e in events]
    hits = [None] * len(events)
    ts, pieces = [t], []
    steps = 0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:     # true for a NaN step as well
                raise StepError("integration failed: %s at t = %g" % (
                    "the step size is NaN" if math.isnan(h_abs) else
                    "required step size is less than spacing between numbers", t))
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k2a, k2b = rhs(t + C2 * h, (ya + fa * A21 * h, yb + fb * A21 * h))
            k3a, k3b = rhs(t + C3 * h, (ya + (fa * A31 + k2a * A32) * h,
                                        yb + (fb * A31 + k2b * A32) * h))
            k4a, k4b = rhs(t + C4 * h, (ya + (fa * A41 + k2a * A42 + k3a * A43) * h,
                                        yb + (fb * A41 + k2b * A42 + k3b * A43) * h))
            k5a, k5b = rhs(t + C5 * h, (
                ya + (fa * A51 + k2a * A52 + k3a * A53 + k4a * A54) * h,
                yb + (fb * A51 + k2b * A52 + k3b * A53 + k4b * A54) * h))
            k6a, k6b = rhs(t + h, (
                ya + (fa * A61 + k2a * A62 + k3a * A63 + k4a * A64 + k5a * A65) * h,
                yb + (fb * A61 + k2b * A62 + k3b * A63 + k4b * A64 + k5b * A65) * h))
            na = ya + h * (fa * B1 + k3a * B3 + k4a * B4 + k5a * B5 + k6a * B6)
            nb = yb + h * (fb * B1 + k3b * B3 + k4b * B4 + k5b * B5 + k6b * B6)
            k7a, k7b = rhs(t + h, (na, nb))
            ea = ((fa * E1 + k3a * E3 + k4a * E4 + k5a * E5 + k6a * E6 + k7a * E7) * h
                  / (atol + max(abs(ya), abs(na)) * rtol))
            eb = ((fb * E1 + k3b * E3 + k4b * E4 + k5b * E5 + k6b * E6 + k7b * E7) * h
                  / (atol + max(abs(yb), abs(nb)) * rtol))
            err = math.sqrt(ea * ea + eb * eb) / _SQRT2
            if err < 1.0:
                factor = (MAX_FACTOR if err == 0.0
                          else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        steps += 1
        if steps > MAX_STEPS:
            raise StepError("integration exceeded %d steps" % MAX_STEPS)
        piece = (t, h, ya, yb, fa, k3a, k4a, k5a, k6a, k7a, fb, k3b, k4b, k5b, k6b, k7b)
        t, ya, yb, fa, fb = t_new, na, nb, k7a, k7b
        if dense_output:
            pieces.append(piece)
        stop = False
        if events:
            g_new = [e(t, (ya, yb)) for e in events]
            active = [i for i, (lo, hi, side) in enumerate(zip(g, g_new, sides))
                      if (side >= 0.0 and lo <= 0.0 <= hi) or (side <= 0.0 and lo >= 0.0 >= hi)]
            g = g_new
            if active:
                sol = _step_interpolant(piece)
                roots = [brentq(lambda s, e=events[i]: e(s, sol(s)), piece[0], t,
                                xtol=4.0 * EPS, rtol=4.0 * EPS) for i in active]
                for root, i in sorted(zip(roots, active)):
                    if hits[i] is None:
                        hits[i] = (root, sol(root))
                    if stops[i]:
                        stop = True
                        t, (ya, yb) = root, sol(root)
                        break
        ts.append(t)
        if stop:
            break

    return Trajectory(t=np.array(ts), y_end=(ya, yb), hits=hits,
                      dense=_dense_output(ts, pieces) if dense_output else None)


def _quartic(x, h, y_old, q):
    """One component of the continuous extension at step fraction x."""
    x2 = x * x
    x3 = x2 * x
    return y_old + h * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * (x3 * x))


def _step_interpolant(piece):
    """The continuous extension of one step as a function of t on plain floats."""
    t_old, h, ya, yb = piece[:4]
    qa = (np.array(piece[4:10]) @ P).tolist()
    qb = (np.array(piece[10:]) @ P).tolist()

    def sol(t):
        x = (t - t_old) / h
        return _quartic(x, h, ya, qa), _quartic(x, h, yb, qb)

    return sol


def _dense_output(ts, pieces):
    """Piecewise continuous extension over every step, evaluated vectorised."""
    data = np.array(pieces)
    t_old, h, ya, yb = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    qa, qb = data[:, 4:10] @ P, data[:, 10:] @ P
    starts = np.asarray(ts)
    last = len(pieces) - 1

    def dense(t):
        t = np.asarray(t, dtype=float)
        # the step whose closed interval holds t, the earlier one at a break
        i = np.clip(np.searchsorted(starts, t, side="left") - 1, 0, last)
        x = (t - t_old[i]) / h[i]
        return np.stack([_quartic(x, h[i], ya[i], qa[i].T),
                         _quartic(x, h[i], yb[i], qb[i].T)])

    return dense


def _first_step(rhs, t0: float, t_end: float, y, f, rel_tol: float,
                abs_tol: float, max_step: float) -> float:
    """Hairer's initial-step estimate (scipy's select_initial_step for RK45).

    f is rhs(t0, y). Errors are scaled by abs_tol + rel_tol |y|, so when y
    holds an exact zero a tiny abs_tol overflows the estimate to a zero
    step, and the solver then spends hundreds of steps growing back from
    the smallest representable one. Only in that case is the scale
    floored at rel_tol * max|y|, which keeps the estimate finite.
    """
    span = abs(t_end - t0)
    if span == 0.0:
        return 0.0
    (ya, yb), (fa, fb) = y, f
    sa, sb = abs_tol + abs(ya) * rel_tol, abs_tol + abs(yb) * rel_tol
    if ya == 0.0 or yb == 0.0:
        floor = rel_tol * max(abs(ya), abs(yb))
        sa, sb = max(sa, floor), max(sb, floor)
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    ga, gb = rhs(t0 + h0, (ya + h0 * fa, yb + h0 * fb))
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2     # the error estimator is order 4
    return min(100.0 * h0, h1, span, max_step)


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


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


def bisect_predicate(pred, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Bisection on a boolean predicate that flips exactly once on [lo, hi].

    pred(lo) and pred(hi) must differ. Returns the midpoint of the final
    interval, whose width is at most 2*tol. Used where the shooting outcome
    is a discrete tag rather than a continuous residual.
    """
    plo = pred(lo)
    phi = pred(hi)
    if plo == phi:
        raise BracketError("predicate does not flip on [%g, %g]" % (lo, hi))
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= 2.0 * tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid) == plo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
