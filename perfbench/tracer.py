"""Span tracer that patches the program's public functions from outside.

Each public function of a layer module is wrapped, in its defining module
and in every `freewave` module that imported it, by a wrapper that records a
span: name, start, end, parent span and job id. Spans are kept in memory and
written out when the run ends. Per-RHS kernels (`reaction.evaluate` and the
other pointwise polynomial helpers) are left alone; instead the `rhs`
argument of `ode_core.integrate` is wrapped to count its calls, and the
function arguments of the two root finders are counted the same way.

A layer's self time is the time its spans cover minus the time their child
spans cover. The critical-speed hooks record the reaction's coefficients
only; `analyse` looks up the family from the workload's own inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("reaction", "ode_core", "phase_plane", "compact_wave", "matching",
          "pde_verify", "output", "cli")

# pointwise kernels called once per RHS evaluation or quadrature node
UNTRACED = {"reaction.evaluate", "reaction.derivative_at", "reaction.primitive_at"}

# spans whose work a per-layer metric names; each count is charged to the
# nearest enclosing span that has a category
CATEGORY = {
    "phase_plane.critical_speed_decreasing": "phase_plane.critical_speed",
    "phase_plane.critical_speed_increasing": "phase_plane.critical_speed",
    "phase_plane.semiwave_slope": "phase_plane.slope",
    "phase_plane.semiwave_slope_increasing": "phase_plane.slope",
    "phase_plane.semiwave_profile": "phase_plane.profile",
    "phase_plane.semiwave_profile_increasing": "phase_plane.profile",
    "phase_plane.front_profile": "phase_plane.profile",
    "compact_wave.speed_window": "compact_wave.window",
    "compact_wave.left_slope": "compact_wave.edge_slope",
    "compact_wave.right_slope": "compact_wave.edge_slope",
    "compact_wave.compact_profile": "compact_wave.profile",
    "matching.hat_c_f": "matching.hat_c",
    "matching.hat_c1": "matching.hat_c",
    "matching.hat_c3": "matching.hat_c",
    "matching.solve_two_species": "matching.two",
    "matching.solve_three_species": "matching.three",
    "matching.dispersion_curve": "matching.dispersion",
    "pde_verify.run": "pde_verify.run",
    "cli.parse_reaction": "reaction.parse",
    "output.write_csv": "output.write",
    "output.write_profile_csv": "output.write",
    "output.write_json": "output.write",
    "output.svg_polylines": "output.write",
}

# names the metrics read; a missing one is reported as absent, not an error
EXPECTED = ("ode_core.integrate", "ode_core.find_root_monotone",
            "ode_core.bisect_predicate", "pde_verify.run", "cli.main") + tuple(CATEGORY)

INTEGRATE = "ode_core.integrate"
ROOT = "bench.job"


class Tracer:
    """Records spans around the program's public functions while installed."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.jobs, self.attrs = [], [], []
        self.patched = set()
        self.warning_log = None          # list filled by warnings.catch_warnings
        self.step_errors = 0
        self._stack = []
        self._job = None
        self._undo = []

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "freewave") -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules.get("%s.%s" % (package, layer))
            if mod is None:
                continue
            for attr, fn in sorted(vars(mod).items()):
                qual = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or qual in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(qual, fn)
                for m in mods:
                    for name, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, name, fn))
                            setattr(m, name, wrapper)
                self.patched.add(qual)

    def restore(self) -> None:
        """Put every patched name back; raises if one was changed meanwhile."""
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)
        for mod, name, fn in self._undo:
            if getattr(mod, name) is not fn:
                raise RuntimeError("could not restore %s.%s" % (mod.__name__, name))
        self._undo = []

    @property
    def absent(self) -> list:
        return sorted(n for n in EXPECTED if n not in self.patched)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.attrs.append(None)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def job(self, job_id: int, fn, *args):
        """Call fn(*args) as the root span of one job."""
        self._job = job_id
        sid = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._job = None

    def _wrap(self, qual: str, fn):
        tracer = self
        hook = _HOOKS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(qual)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, sid, fn, args, kwargs)
            except BaseException as exc:
                if type(exc).__name__ == "StepError" and not getattr(exc, "_traced", False):
                    exc._traced = True
                    tracer.step_errors += 1
                raise
            finally:
                tracer._close(sid)

        return traced

    def dump(self, path: str) -> None:
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p, "job": j,
                  "attrs": a}
                 for i, (n, s, e, p, j, a) in enumerate(zip(
                     self.names, self.starts, self.ends, self.parents, self.jobs,
                     self.attrs))]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": spans}, fh)


# -- hooks: count calls of function arguments and read results -------------


def _counted(fn, box):
    def counted(*args):
        box[0] += 1
        return fn(*args)
    return counted


def _hook_integrate(tracer, sid, fn, args, kwargs):
    box = [0]
    warned = len(tracer.warning_log) if tracer.warning_log is not None else 0
    try:
        traj = fn(_counted(args[0], box), *args[1:], **kwargs)
    finally:
        attrs = {"rhs": box[0], "steps": 0}
        if tracer.warning_log is not None:
            attrs["warnings"] = sum(issubclass(w.category, RuntimeWarning)
                                    for w in tracer.warning_log[warned:])
        tracer.attrs[sid] = attrs
    times = getattr(traj, "t", None)
    attrs["steps"] = max(len(times) - 1, 0) if times is not None else 0
    return traj


def _hook_count_fn(tracer, sid, fn, args, kwargs):
    box = [0]
    try:
        return fn(_counted(args[0], box), *args[1:], **kwargs)
    finally:
        tracer.attrs[sid] = {"evals": box[0]}


def _hook_coeffs(tracer, sid, fn, args, kwargs):
    tracer.attrs[sid] = {"coeffs": getattr(args[0], "coeffs", None)}
    return fn(*args, **kwargs)


def _hook_pde_run(tracer, sid, fn, args, kwargs):
    report = fn(*args, **kwargs)
    T, dt = getattr(report, "T", None), getattr(report, "dt", None)
    if T and dt:
        tracer.attrs[sid] = {"steps": int(round(T / dt))}
    return report


_HOOKS = {
    INTEGRATE: _hook_integrate,
    "ode_core.find_root_monotone": _hook_count_fn,
    "ode_core.bisect_predicate": _hook_count_fn,
    "phase_plane.critical_speed_decreasing": _hook_coeffs,
    "phase_plane.critical_speed_increasing": _hook_coeffs,
    "pde_verify.run": _hook_pde_run,
}


# -- analysis ---------------------------------------------------------------


def analyse(tr: Tracer, scale: dict, families: dict, passes: int) -> dict:
    """Per-layer figures per traced pass, from the spans of `passes` passes.

    `X.s` is the time of the outermost spans of category X (what a caller
    waits for X, nested work included). Span durations are multiplied by
    `scale[job]`, the job's load correction (see clock.py). Counts (`shots`,
    `steps`, `root_evals`) are charged to the nearest enclosing categorised
    span, so the critical-speed shots a speed window triggers count as
    critical-speed shots, not window shots. `families` maps a reaction's
    coefficients to its family. Times and counts are means over the passes.
    """
    n = len(tr.names)
    dur = [(tr.ends[i] - tr.starts[i]) * scale.get(tr.jobs[i], 1.0) for i in range(n)]
    covered = [0.0] * n
    has_shot = [False] * n
    for i in range(n - 1, -1, -1):
        p = tr.parents[i]
        if tr.names[i] == INTEGRATE:
            has_shot[i] = True
        if p >= 0:
            covered[p] += dur[i]
            has_shot[p] = has_shot[p] or has_shot[i]
    self_t = [dur[i] - covered[i] for i in range(n)]

    cat = [CATEGORY.get(name) for name in tr.names]
    nearest = [-1] * n              # nearest categorised span, self included
    outer = [False] * n             # no ancestor of the same category
    anc = [frozenset()] * n         # categories of strict ancestors
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            anc[i] = anc[p] | {cat[p]} if cat[p] else anc[p]
            nearest[i] = nearest[p]
        if cat[i]:
            nearest[i] = i
            outer[i] = cat[i] not in anc[i]

    def attr(i, key):
        a = tr.attrs[i]
        return a.get(key, 0) if a else 0

    def family(i):
        return families.get(attr(i, "coeffs"))

    def near_cat(i):
        return cat[nearest[i]] if nearest[i] >= 0 else None

    def time_of(c, fam=None):
        return sum(dur[i] for i in range(n) if outer[i] and cat[i] == c
                   and (fam is None or family(i) == fam))

    def outer_spans(c):
        return [i for i in range(n) if outer[i] and cat[i] == c]

    shots = [i for i in range(n) if tr.names[i] == INTEGRATE]

    def shots_of(c, fam=None):
        return [i for i in shots if near_cat(i) == c
                and (fam is None or family(nearest[i]) == fam)]

    def evals_of(name, c=None):
        return sum(attr(i, "evals") for i in range(n) if tr.names[i] == name
                   and (c is None or near_cat(i) == c))

    def miss_ratio(c):
        calls = outer_spans(c)
        return sum(has_shot[i] for i in calls) / len(calls) if calls else 0.0

    layer_self = {}
    for i in range(n):
        layer = tr.names[i].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t[i]

    rhs = sum(attr(i, "rhs") for i in shots)
    steps = sum(attr(i, "steps") for i in shots)
    shot_self = sum(self_t[i] for i in shots)
    pde_runs = outer_spans("pde_verify.run")
    pde_steps = sum(attr(i, "steps") for i in pde_runs)
    pde_s = time_of("pde_verify.run")

    totals = {
        "ode_core.shots": len(shots),
        "ode_core.steps": steps,
        "ode_core.rhs_evals": rhs,
        "ode_core.root_evals": evals_of("ode_core.find_root_monotone"),
        "ode_core.bisect_evals": evals_of("ode_core.bisect_predicate"),
        "ode_core.step_errors": tr.step_errors,
        "ode_core.runtime_warnings": sum(attr(i, "warnings") for i in shots),
        "phase_plane.critical_speed.s": time_of("phase_plane.critical_speed"),
        "phase_plane.critical_speed.shots": len(shots_of("phase_plane.critical_speed")),
        "phase_plane.slope.calls": len(outer_spans("phase_plane.slope")),
        "phase_plane.profile.s": time_of("phase_plane.profile"),
        "phase_plane.profile.steps": sum(attr(i, "steps")
                                         for i in shots_of("phase_plane.profile")),
        "compact_wave.window.s": time_of("compact_wave.window"),
        "compact_wave.window.shots": len(shots_of("compact_wave.window")),
        "compact_wave.profile.s": time_of("compact_wave.profile"),
        "matching.hat_c.s": time_of("matching.hat_c"),
        "matching.hat_c.root_evals": evals_of("ode_core.find_root_monotone", "matching.hat_c"),
        "matching.two.s": time_of("matching.two"),
        "matching.two.root_evals": evals_of("ode_core.find_root_monotone", "matching.two"),
        "matching.three.s": time_of("matching.three"),
        "matching.dispersion.s": time_of("matching.dispersion"),
        "pde_verify.run.s": pde_s,
        "pde_verify.steps": pde_steps,
        "reaction.parse.s": time_of("reaction.parse"),
        "output.write.s": time_of("output.write"),
    }
    for fam in ("pulled", "pushed", "bistable"):
        totals["phase_plane.critical_speed.s.%s" % fam] = time_of(
            "phase_plane.critical_speed", fam)
        totals["phase_plane.critical_speed.shots.%s" % fam] = len(
            shots_of("phase_plane.critical_speed", fam))
    for layer in LAYERS:
        totals["%s.self_s" % layer] = layer_self.get(layer, 0.0)
    totals["bench.glue_s"] = layer_self.get("bench", 0.0)

    m = {k: v / passes for k, v in totals.items()}
    m["ode_core.us_per_rhs"] = 1e6 * shot_self / rhs if rhs else 0.0
    m["ode_core.us_per_step"] = 1e6 * shot_self / steps if steps else 0.0
    m["phase_plane.slope.miss_ratio"] = miss_ratio("phase_plane.slope")
    m["compact_wave.edge_slope.miss_ratio"] = miss_ratio("compact_wave.edge_slope")
    m["pde_verify.us_per_step"] = 1e6 * pde_s / pde_steps if pde_steps else 0.0
    return m


def check_spans(tr: Tracer, job_walls: dict) -> list:
    """Problems with the recorded spans, each a line of text.

    Every span must have closed and lie inside its parent's interval, so no
    self time is negative. Per job, the self times of all its spans (every
    layer plus the benchmark's glue) must add up, within 1 ms + 1 %, to
    `job_walls[job]`: the job's wall time as the runner measured it outside
    the tracer. Time the runner saw but no span covered shows up there.
    """
    problems = []
    n = len(tr.names)
    covered = [0.0] * n
    for i in range(n):
        s, e, p = tr.starts[i], tr.ends[i], tr.parents[i]
        if e < s:
            problems.append("span %d (%s) never closed" % (i, tr.names[i]))
        elif p >= 0 and not (tr.starts[p] <= s and e <= tr.ends[p]):
            problems.append("span %d (%s) lies outside its parent %s"
                            % (i, tr.names[i], tr.names[p]))
        if p >= 0:
            covered[p] += e - s
    total = {}
    for i in range(n):
        total[tr.jobs[i]] = total.get(tr.jobs[i], 0.0) + (tr.ends[i] - tr.starts[i]) - covered[i]
    for job, wall in sorted(job_walls.items()):
        got = total.get(job, 0.0)
        if abs(got - wall) > 1e-3 + 1e-2 * wall:
            problems.append("job %d: self times add up to %.6f s, its wall time is %.6f s"
                            % (job, got, wall))
    return problems
