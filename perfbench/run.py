"""freewave benchmark: seeded CLI workloads, exact output checks, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload speeds --seed 1 --seconds 30 --trace 0

Every job is one README subcommand run through `freewave.cli.main` in this
process, with `--out` pointing at a scratch directory under
`.perfbench-out/` and every `lru_cache` of the package cleared first, as a
fresh CLI invocation would find them. A pass runs the workload's jobs once;
passes repeat until the next one would end after `--seconds`. Set-up time is
sampled in fresh interpreters before the first pass and after the last.

Every time is load-corrected (see clock.py): wall time less the probe time
inside it, rescaled to a reference machine speed, so that other tenants of a
shared machine move it little. Raw wall times are kept in the run record.
Each pass draws fresh inputs (see workloads.py). `wall_s` is the median over
the run's passes of the sum of a pass's job times, `job_s.p50` the median
time over all jobs run, and `setup_s` the median set-up sample.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one untraced
pass, then traced passes for `--seconds`, the first over the same inputs; it
checks that those two wrote identical files and that the spans are well
formed and cover each traced job's wall time, and prints the per-layer
metrics as means per traced pass. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import clock  # noqa: E402  (after the thread limits above)
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-out")

SETUP_SAMPLES = 10          # half before the first pass, half after the last
JOB_LIMIT_S = 60.0          # about 5x the slowest job (verify, ~12 s) at the baseline
RUN_DEADLINE_S = 160.0      # no job starts or runs past this point of the run
SETUP_CODE = ("import json, sys, time\n"
              "sys.path.insert(0, %r)\n"
              "import clock\n"
              "c = clock.LoadClock()\n"
              "c.start()\n"
              "import freewave\n"
              "t = time.perf_counter()\n"
              "c.stop()\n"
              "sys.stdout.write(json.dumps([t, c.probe_total, c.durations]))\n") % HERE


class JobTimeout(Exception):
    """Raised by SIGALRM when a job exceeds its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout("job time limit reached")


def measure_setup(repeats: int) -> list:
    """Intervals from a fresh interpreter's start to `import freewave` finishing.

    The child samples the probe while it imports freewave; its own start-up
    and the import of clock.py before that are timed but not probed.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import freewave failed:\n" + proc.stderr)
        t, probe_s, probes = json.loads(proc.stdout)
        samples.append(clock.measured(t - t0, probe_s, probes))
    return samples


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "freewave" or name.startswith("freewave.")):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def file_digests(out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = [hashlib.sha256(data).hexdigest(), len(data)]
    return digests


class Runner:
    """Runs passes over one workload's jobs and keeps what each job showed."""

    def __init__(self, cli, make_jobs, work: str, deadline: float, clk):
        self.cli = cli
        self.make_jobs = make_jobs
        self.work = work
        self.deadline = deadline
        self.clock = clk
        self.records = []
        self.families = {}          # reaction coefficients -> family, for the tracer
        self.passes = 0

    def run_pass(self, draw: int, tracer=None) -> float:
        """Run the jobs of input draw `draw` once; returns the pass's raw wall time."""
        k = self.passes
        self.passes += 1
        t0 = time.perf_counter()
        for i, job in enumerate(self.make_jobs(draw)):
            for v in job.params.values():
                if isinstance(v, workloads.Reaction):
                    self.families[v.coeffs] = v.family
            self.records.append(self._run_job(k, draw, i, job, tracer))
        return time.perf_counter() - t0

    def _run_job(self, k, draw, i, job, tracer) -> dict:
        out_dir = os.path.join(self.work, "pass%d-job%d" % (k, i))
        shutil.rmtree(out_dir, ignore_errors=True)
        rec = {"pass": k, "draw": draw, "job": i, "name": job.name, "argv": job.argv,
               "traced": tracer is not None, "seconds": 0.0, "wall_s": 0.0, "load": 0.0,
               "exit": None, "failures": [], "errors": [], "values": {}}
        limit = min(JOB_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0.0:
            rec["failures"].append("not started: run deadline reached")
            return rec
        clear_caches()
        argv = job.argv + ["--out", out_dir]
        captured = io.StringIO()
        log = []
        mark = self.clock.mark()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured), \
                        warnings.catch_warnings(record=tracer is not None) as log:
                    if tracer is None:
                        rec["exit"] = self.cli.main(argv)
                    else:
                        warnings.simplefilter("always")
                        tracer.warning_log = log
                        rec["exit"] = tracer.job(len(self.records), self.cli.main, argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                took = self.clock.since(mark)
                rec["seconds"], rec["wall_s"], rec["load"] = took.seconds, took.wall_s, took.load
        except JobTimeout:
            rec["failures"].append("time limit of %.0f s reached" % limit)
        except Exception:
            rec["failures"].append("raised:\n" + traceback.format_exc(limit=-3))
        if tracer is not None:
            tracer.warning_log = None
        rec["output"] = captured.getvalue()[-2000:]
        if rec["exit"] != 0 and not rec["failures"]:
            rec["failures"].append("exit code %r" % rec["exit"])
        if not rec["failures"]:
            try:
                outcome = job.check(job, out_dir)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                rec["failures"].append("unreadable output: %r" % exc)
            else:
                rec["failures"] += outcome.failures
                rec["errors"] = outcome.errors
                rec["values"] = outcome.values
            rec["files"] = file_digests(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec


def _worst(records, key):
    vals = [r["values"][key] for r in records if key in r["values"]]
    return max(vals) if vals else 0.0


def pass_seconds(records) -> list:
    """Per pass, the sum of its jobs' load-corrected times."""
    totals = {}
    for r in records:
        totals[r["pass"]] = totals.get(r["pass"], 0.0) + r["seconds"]
    return [totals[k] for k in sorted(totals)]


def end_to_end(runner, setup) -> dict:
    recs = runner.records
    errors = [e for r in recs for e in r["errors"]]
    worst = max(max(errors, default=0.0), workloads.ERROR_FLOOR)
    failed = sum(bool(r["failures"]) for r in recs)
    return {
        "setup_s": (statistics.median(s.seconds for s in setup), "s"),
        "wall_s": (statistics.median(pass_seconds(recs)), "s"),
        "job_s.p50": (statistics.median(r["seconds"] for r in recs if r["seconds"] > 0.0), "s"),
        "pass_rate": (1.0 - failed / len(recs), "ratio"),
        "digits": (-math.log10(worst), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"s": "s", "shots": "count", "steps": "count", "rhs_evals": "count",
                   "root_evals": "count", "bisect_evals": "count", "calls": "count",
                   "step_errors": "count", "runtime_warnings": "count", "bytes": "bytes",
                   "miss_ratio": "ratio", "us_per_rhs": "us", "us_per_step": "us",
                   "self_s": "s", "glue_s": "s", "overhead_s": "s",
                   "speed_rel_err": "ratio", "drift": "1", "pinned_speed": "1"}


def _unit(name: str) -> str:
    return next(PER_LAYER_UNITS[p] for p in reversed(name.split(".")) if p in PER_LAYER_UNITS)


def tracer_call_costs(clk, calls: int = 50000) -> tuple:
    """Load-corrected seconds that one span wrapper call and one counted call add."""
    def noop(*args):
        return None

    costs = {}
    for name, fn in (("plain", noop), ("span", tracer_mod.Tracer()._wrap("bench.noop", noop)),
                     ("count", tracer_mod._counted(noop, [0]))):
        mark = clk.mark()
        for _ in range(calls):
            fn(0.5)
        costs[name] = clk.since(mark).seconds / calls
    return costs["span"] - costs["plain"], costs["count"] - costs["plain"]


def per_layer(tracer, runner, clk) -> dict:
    """Per-layer figures as means per traced pass, and the tracer's estimated cost.

    trace.overhead_s is the number of spans per pass times the measured cost
    of one wrapper call, plus the counted calls (RHS, root and predicate
    evaluations) times the cost of one counting call.
    """
    traced = {i: r for i, r in enumerate(runner.records) if r["traced"]}
    recs = list(traced.values())
    passes = len({r["pass"] for r in recs})
    scale = {i: r["seconds"] / r["wall_s"] for i, r in traced.items() if r["wall_s"] > 0.0}
    m = tracer_mod.analyse(tracer, scale, runner.families, passes)
    m["output.bytes"] = sum(size for r in recs for _, size in r.get("files", {}).values()) / passes
    m["pde_verify.speed_rel_err"] = _worst(recs, "speed_rel_err")
    m["pde_verify.drift"] = _worst(recs, "drift")
    m["pde_verify.pinned_speed"] = _worst(recs, "pinned_speed")
    span_cost, count_cost = tracer_call_costs(clk)
    counted = m["ode_core.rhs_evals"] + m["ode_core.root_evals"] + m["ode_core.bisect_evals"]
    m["trace.overhead_s"] = len(tracer.names) / passes * span_cost + counted * count_cost
    return {k: (v, _unit(k)) for k, v in sorted(m.items())}


def self_test(tracer, runner) -> list:
    """Untraced and traced runs of draw 0 wrote identical files; the spans are sound."""
    problems = []
    first = {}
    for r in runner.records:
        if r["draw"] != 0:
            continue
        if r["job"] in first and r.get("files") != first[r["job"]].get("files"):
            problems.append("%s: traced and untraced outputs differ" % r["name"])
        first.setdefault(r["job"], r)
    walls = {i: r["wall_s"] for i, r in enumerate(runner.records)
             if r["traced"] and r["wall_s"] > 0.0}
    return problems + tracer_mod.check_spans(tracer, walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "freewave", "cli.py")):
        print("error: no freewave sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else measure_setup(SETUP_SAMPLES // 2)
        sys.path.insert(0, SRC)
        from freewave import cli
    except (RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    def make_jobs(draw):
        return workloads.WORKLOADS[args.workload](args.seed, draw)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(WORK, tag)
    os.makedirs(work, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    clk = clock.LoadClock()
    clk.start()
    runner = Runner(cli, make_jobs, work, deadline, clk)

    def run_passes(tracer=None):
        """Passes of draws 0, 1, ... until the next would end after --seconds."""
        walls = []
        t_measure = time.perf_counter()
        while True:
            walls.append(runner.run_pass(len(walls), tracer))
            now = time.perf_counter()
            if now - t_measure + walls[-1] > args.seconds or now + walls[-1] > deadline:
                return walls

    problems = []
    if args.trace:
        walls = [runner.run_pass(0)]
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            walls += run_passes(tracer)
        finally:
            tracer.restore()
        tracer.dump(os.path.join(WORK, tag + "-spans.json"))
        problems = self_test(tracer, runner)
        metrics = per_layer(tracer, runner, clk)
    else:
        walls = run_passes()
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics = end_to_end(runner, setup)
    clk.stop()

    records = runner.records
    failed = sum(bool(r["failures"]) for r in records)
    with open(os.path.join(WORK, tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "pass_walls": walls, "pass_seconds": pass_seconds(records),
                   "setup": [vars(s) for s in setup], "jobs": records,
                   "self_test": problems, "metrics": metrics}, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    for r in records:
        if r["failures"]:
            print("FAILED pass %d %s: %s" % (r["pass"], r["name"], "; ".join(r["failures"])))
    for p in problems:
        print("SELF-TEST: %s" % p)
    if args.trace and tracer.absent:
        print("absent (reported as 0): %s" % ", ".join(tracer.absent))
    print("%s seed %d: %d passes (raw wall %s s), %d jobs attempted, %d failed (fail_rate %.4f)"
          % (args.workload, args.seed, len(walls), " ".join("%.2f" % w for w in walls),
             len(records), failed, failed / len(records)))
    for name, (value, unit) in metrics.items():
        note = {"wall_s": " (median of %d passes)" % len(walls),
                "setup_s": " (median of %d samples)" % len(setup),
                "job_s.p50": " (n=%d jobs)" % len(records)}.get(name, "") \
            if not args.trace else ""
        print("  %-40s %.6g %s%s" % (name, value, unit, note))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
