"""Load-corrected timing: wall time rescaled by a probe of the machine's current speed.

On a shared machine the same job's wall time moves by up to 2x from minute to
minute as other tenants load the cores, and process CPU time moves with it.
While a measurement runs, a SIGPROF timer fires every SAMPLE_CPU_S of process
CPU time and its handler runs a fixed probe twice, timing the second run,
whose caches the first has warmed again after the program's code. The probe
is the kinds of work the program does: a short scipy `solve_ivp` shot, a
pure-Python loop, and small-array and 2000-point numpy arithmetic. Its
duration rises and falls with the load. A measured interval, less the time
spent in the handler, is rescaled to the speed at which one probe takes
PROBE_REF_S:

    seconds = (wall - handler time) * PROBE_REF_S / mean probe duration

The mean leaves out the slowest tenth of the probes, which are single
preemptions rather than load. Intervals that caught fewer than MIN_PROBES
probes are topped up with probes taken right after them.

On a 2-vCPU shared VM this cut the spread (IQR / median) of repeated
identical jobs from 0.23-0.25 to 0.06-0.08; the correction is not exact
(job times still rise by about 1.1-1.3x for each 1x rise in probe time).
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

SAMPLE_CPU_S = 0.025     # process CPU time between probes (about 3 % overhead)
PROBE_REF_S = 3.5e-4     # about one unloaded probe on a 2.1 GHz Xeon vCPU
MIN_PROBES = 8
TRIM = 0.1               # share of the slowest probes left out of the mean

_START = np.array([1.0, 0.0])
_SMALL = np.array([0.3, 0.7])
_GRID = np.linspace(0.0, 1.0, 2000)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def probe() -> float:
    """Seconds one fixed piece of mixed interpreter, scipy and numpy work takes now."""
    t0 = time.perf_counter()
    solve_ivp(_oscillator, (0.0, 1.0), _START, rtol=1e-3, atol=1e-6)
    x = 0.0
    for i in range(1000):
        x += i * 0.5
    a = _SMALL
    for _ in range(20):
        a = a * 0.5 + np.sqrt(a)
    u = _GRID
    for _ in range(4):
        u = np.concatenate((u[:1], 0.5 * u[1:-1] + 0.25 * (u[2:] + u[:-2]), u[-1:]))
    return time.perf_counter() - t0


@dataclass
class Interval:
    """One measured interval: raw wall time, the handler time inside it, the probes."""

    wall_s: float
    probe_s: float
    probes: list

    @property
    def load(self) -> float:
        """Trimmed mean probe duration over PROBE_REF_S: about 1 on an unloaded machine."""
        xs = sorted(self.probes)
        xs = xs[:max(1, len(xs) - int(TRIM * len(xs)))]
        return sum(xs) / len(xs) / PROBE_REF_S

    @property
    def seconds(self) -> float:
        """Wall time without the handler's, at the reference machine speed."""
        return (self.wall_s - self.probe_s) / self.load


class LoadClock:
    """Samples the probe on SIGPROF while started; measures intervals."""

    def __init__(self):
        self.durations = []
        self.probe_total = 0.0

    def _on_prof(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.durations.append(probe())
        self.probe_total += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def mark(self) -> tuple:
        n, p = len(self.durations), self.probe_total
        return n, p, time.perf_counter()

    def since(self, mark: tuple) -> Interval:
        """The interval from `mark` to now."""
        t = time.perf_counter()
        n0, p0, t0 = mark
        return measured(t - t0, self.probe_total - p0, self.durations[n0:])


def measured(wall_s: float, probe_s: float, probes: list) -> Interval:
    """An Interval, its probes topped up to MIN_PROBES by probing now."""
    probes = list(probes)
    while len(probes) < MIN_PROBES:
        probe()
        probes.append(probe())
    return Interval(wall_s, probe_s, probes)
