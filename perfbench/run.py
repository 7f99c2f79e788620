"""hcolkit benchmark: drives the real `hcol` commands in-process, through
``hcolkit.cli.main(argv)``, on four seeded workloads.

    python3 perfbench/run.py --workload witness-gnp --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25   # every workload, one table
    python3 perfbench/run.py --smoke                                # tiny inputs, checks every metric

A run is a closed loop in one process and one thread: each job starts
when the previous one has finished and been checked.  Jobs run until
their summed time reaches ``--seconds``; the check of each job's output
against goldens and oracles happens between jobs, outside the timed
region, and every miss counts as a failed job.  Jobs and set-up are
timed in CPU seconds (see ``cpu_seconds``) and reported in reference
seconds: CPU seconds scaled by the machine's pace, sampled while they
run (see ``pace.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of jobs eight times from the same state: twice untraced, traced,
traced, untraced, with layer spans and counters installed in the traced
passes (see ``tracing.py``).  It prints the per-layer metrics of the
last traced pass, the tracing overhead (mean traced minus mean untraced
time of the same jobs), and fails the run when a count differs between
traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("witness-gnp", "algebraic-prime", "algebraic-ext", "oracle-reduce")

E2E_UNITS = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import hcolkit from the checkout's src/, and the workloads built on it."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    Jobs are CPU-bound and run in this process, so this is their running
    time without the time the process waited for a CPU that other
    processes of the machine held.  Children count, so a job that hands
    work to worker processes is still charged for it."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


Span = tuple  # (pace.clock() at the start, at the end, CPU seconds)


def start_span() -> tuple[float, float]:
    return pace.clock(), cpu_seconds()


def end_span(started: tuple[float, float]) -> Span:
    return started[0], pace.clock(), cpu_seconds() - started[1]


def import_seconds() -> float:
    """CPU time a fresh interpreter spends importing the CLI and every layer under it.

    Timed inside the child, so interpreter start-up, which hcolkit does not
    control and which swung by 2x between runs, stays out."""
    probe = "import time; t = time.process_time(); import hcolkit.cli; print(time.process_time() - t)"
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        capture_output=True,
        text=True,
    )
    return float(child.stdout)


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, each weighted by the mass
    Beta((n+1)q, (n+1)(1-q)) puts on its 1/n-wide interval.  Job times
    of different corpus entries leave gaps of 10-30% between neighbours,
    and a single order statistic jumps across them from run to run; this
    estimate moves smoothly and halves that part of the spread.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule within each interval
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def quiet_cli(wl, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return wl.run_cli(argv)


def traced_call(tracer, span: str, fn, *args):
    """Call fn; under a tracer, as an active root span named `span`."""
    if tracer is None:
        return fn(*args)
    tracer.active = True
    try:
        with tracer.span(span):
            return fn(*args)
    finally:
        tracer.active = False


def cluster_cache() -> dict:
    """The oracle's module-level cluster cache."""
    import hcolkit.hom

    return hcolkit.hom._cluster_cache


class Run:
    def __init__(self, wl, workload, seed: int, smoke: bool, work: Path):
        self.wl, self.w, self.seed, self.work = wl, workload, seed, work
        self.part = wl.part_for_seed(seed, smoke)
        goldens = json.loads((HERE / "goldens.json").read_text())
        self.goldens = goldens[workload.name][self.part]
        self.failures: list[str] = []

    def setup(self) -> dict[str, Span]:
        """Generate the corpus, write it, and make the set-up `hcol` calls.

        Returns the span of generating the corpus and of each set-up
        command; writing the corpus files is left out, since it measured
        the file system rather than hcolkit."""
        started = start_span()
        self.entries = self.w.corpus(self.part)
        spans = {"generate_s": end_span(started)}
        for entry in self.entries:
            for name, text in entry.files.items():
                (self.work / name).write_text(text)
        self.w.prepare(self.work)
        for argv in self.w.setup_argv(self.work):
            started = start_span()
            code = quiet_cli(self.wl, argv)
            spans[f"{argv[0]}_s"] = end_span(started)
            if code != 0:
                self.failures.append(f"set-up call {argv[0]} exited {code}")
        self.jobs = self.wl.interleave(self.entries, self.seed)
        return spans

    def one_job(self, entry, tracer=None) -> Span:
        """Run one job, timed; then check it, untimed.  Returns its span."""
        outcome, reason = None, ""
        started = start_span()
        try:
            outcome = traced_call(tracer, "job", self.w.job, entry, self.work)
        except Exception:  # a crashing job is a failed job; the run goes on
            reason = traceback.format_exc(limit=3)
        span = end_span(started)
        if outcome is not None:
            golden = self.goldens.get(entry.key)
            reason = "no golden" if golden is None else self.w.check(entry, outcome, golden, self.work)
        if reason:
            self.failures.append(f"{entry.key}: {reason}")
        return span

    def post_check(self) -> dict:
        reason, points = self.w.post_check(self.jobs, self.goldens, self.work)
        if reason:
            self.failures.append(f"post-run check: {reason}")
        return points


def measure(wl, workload, seed: int, seconds: float, smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp, pace.Pace() as steady:
        setups: list[dict[str, Span]] = []
        job_spans: list[tuple[str, Span]] = []

        def set_up() -> Run:
            work = Path(tmp) / f"setup{len(setups)}"
            work.mkdir()
            fresh = Run(wl, workload, seed, smoke, work)
            spans = fresh.setup()
            # the child's CPU time, at the pace sampled nearest to it
            now = pace.clock()
            spans["import_s"] = (now, now, import_seconds())
            setups.append(spans)
            return fresh

        run = set_up()
        cluster_cache().clear()
        measured, jobs, wall_start = 0.0, 0, time.perf_counter()
        # CPU time runs slower than the clock when other processes hold the
        # CPUs; the wall-clock cap keeps the run's length bounded even then
        while measured < seconds and time.perf_counter() - wall_start < seconds + 5:
            # the other set-ups are spread over the run, so that their median,
            # like the job times, spans the machine's speed over the whole run
            # rather than one fast or slow spell of it
            if measured >= seconds * len(setups) / SETUP_REPEATS:
                run.failures.extend(set_up().failures)
            entry = run.jobs[jobs % len(run.jobs)]
            span = run.one_job(entry)
            job_spans.append((entry.key, span))
            measured += span[2]
            jobs += 1
        while len(setups) < SETUP_REPEATS:
            run.failures.extend(set_up().failures)
        points = run.post_check()
    visits: dict[str, list[float]] = {}
    for key, span in job_spans:
        visits.setdefault(key, []).append(steady.reference(*span))
    setup_times, call_times = [], {}
    for spans in setups:
        setup_times.append(sum(steady.reference(*span) for span in spans.values()))
        for name, span in spans.items():
            call_times.setdefault(name, []).append(steady.reference(*span))
    # each visited entry counts once, at its mean over visits, so that the
    # seed-dependent part of the last pass does not reweight the corpus
    means = {key: statistics.fmean(times) for key, times in visits.items()}
    strata = {e.key: e.stratum for e in run.entries}
    for stratum in sorted(set(strata[key] for key in means)):
        points[f"{stratum}_mean_s"] = statistics.fmean(t for k, t in means.items() if strata[k] == stratum)
    points.update((name, statistics.median(times)) for name, times in call_times.items())
    points["pace_loop_s"] = steady.median_loop()
    values = list(means.values())
    tail = quantile(values, workload.tail_pct / 100)
    metrics = {
        "job_s_p50": quantile(values, 0.5),
        "job_s_tail": tail,
        "jobs_per_s": len(values) / sum(values),
        # set-up samples fall into two clusters about 30% apart; the
        # sample median of 11 jumped between them from run to run
        "setup_s": quantile(setup_times, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(values)
    print(f"# {workload.name} seed={seed} part={run.part}: {jobs} jobs over {n} corpus entries "
          f"in {measured:.3f} CPU s measured ({jobs / measured:.6g} jobs per CPU s, raw); "
          f"{sum(map(sum, visits.values())):.3f} reference s ({len(steady.loops)} pace samples)")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {E2E_UNITS[name]} (n={n} entries, {jobs} jobs)")
    print(f"{workload.name} job_s_tail is p{workload.tail_pct}: "
          f"{sum(1 for v in values if v > tail)} of {n} entries beyond it")
    print(f"{workload.name} fail_frac = {len(run.failures) / jobs:.6g} ({len(run.failures)} of {jobs})")
    for name, value in points.items():
        print(f"{workload.name} point {name} = {value:.6g}")
    return finish(run.failures, jobs, {n: (v, E2E_UNITS[n]) for n, v in metrics.items()})


def trace(wl, workload, seed: int, smoke: bool) -> dict:
    import tracing

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp, pace.Pace() as steady:
        run = Run(wl, workload, seed, smoke, Path(tmp))
        run.setup()
        jobs = run.jobs[: workload.trace_jobs]
        tracers, passes = [], []
        # two rounds of untraced, traced, traced, untraced, so that a drift
        # in machine speed over the run weighs on both kinds of pass alike
        for kind in ("untraced", "traced", "traced", "untraced") * 2:
            tracer = tracing.Tracer() if kind == "traced" else None
            cluster_cache().clear()
            if tracer:
                tracer.install()
            try:
                started = start_span()
                for argv in workload.setup_argv(run.work):
                    traced_call(tracer, "setup", quiet_cli, wl, argv)
                spans = [end_span(started)] + [run.one_job(entry, tracer) for entry in jobs]
            finally:
                if tracer:
                    tracer.uninstall()
            passes.append((kind, spans))
            if tracer:
                tracer.counts["hom.cluster_cache_entries"] = len(cluster_cache())
                tracers.append(tracer)
        run.post_check()
    times = {"traced": [], "untraced": []}
    for kind, spans in passes:
        times[kind].append(sum(steady.reference(*span) for span in spans))
    tracing.dump(tracers, OUT / f"trace-{workload.name}-seed{seed}.json")
    values = tracing.layer_metrics(tracers[-1])
    for index, tracer in enumerate(tracers[:-1]):
        repeated = tracing.layer_metrics(tracer)
        for name in tracing.COUNT_METRICS:
            if values[name] != repeated[name]:
                run.failures.append(f"count {name} differs between traced passes {index} and "
                                    f"{len(tracers) - 1}: {repeated[name]} vs {values[name]}")
    untraced, traced = statistics.fmean(times["untraced"]), statistics.fmean(times["traced"])
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    units = dict(tracing.LAYER_UNITS, **{"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    print(f"# {workload.name} seed={seed}: {len(jobs)} jobs per pass, mean untraced {untraced:.3f} s, "
          f"mean traced {traced:.3f} s (reference s)")
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    attempted = 8 * len(jobs)
    return finish(run.failures, attempted, {n: (v, units[n]) for n, v in values.items()})


def finish(failures: list[str], attempted: int, metrics: dict) -> dict:
    for reason in failures[:20]:
        print(f"FAIL {reason}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# every workload in one command, and the smoke mode
# ---------------------------------------------------------------------------

def child(workload: str, seed: int, seconds: int, trace_flag: int, smoke: bool, echo: bool = True) -> dict:
    """Run one workload in a fresh process and return its result; with
    `echo`, print the lines before the result."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace_flag)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def run_all(seed: int, seconds: int, smoke: bool) -> dict:
    """Every workload untraced and traced, each in its own process.

    In smoke mode, also assert that each result names every metric of
    BENCHMARK.json with its unit, and that a second traced run repeats
    every count exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems, results = [], {}
    for workload in WORKLOAD_NAMES:
        for trace_flag in (0, 1):
            result = child(workload, seed, seconds, trace_flag, smoke)
            results[(workload, trace_flag)] = result
            if not result["correct"]:
                problems.append(f"{workload} trace={trace_flag}: incorrect output")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace_flag]:
                problems.append(f"{workload} trace={trace_flag}: metrics {got} != {expected[trace_flag]}")
        if smoke:
            again = child(workload, seed, seconds, 1, smoke)["metrics"]
            first = results[(workload, 1)]["metrics"]
            for name, unit in expected[1].items():
                if unit == "count" and again[name]["value"] != first[name]["value"]:
                    problems.append(f"{workload}: count {name} differs between traced runs")
    print(f"{'workload':16} {'metric':14} {'value':>12} unit")
    for workload in WORKLOAD_NAMES:
        result = results[(workload, 0)]
        for name, m in result["metrics"].items():
            print(f"{workload:16} {name:14} {m['value']:12.6g} {m['unit']}  (n={result['attempted']})")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    untraced = [results[(w, 0)] for w in WORKLOAD_NAMES]
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": {
            f"{w}.{name}": m for w, r in zip(WORKLOAD_NAMES, untraced) for name, m in r["metrics"].items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="negative seeds use the held-out corpus")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus; with --workload all, check every metric")
    args = parser.parse_args()
    if args.smoke and args.workload == "all":
        args.seconds = min(args.seconds, 2)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.smoke)
    else:
        try:
            wl = load_library()
        except ImportError as exc:
            print(f"cannot import hcolkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        workload = wl.WORKLOADS[args.workload]
        if args.trace:
            result = trace(wl, workload, args.seed, args.smoke)
        else:
            result = measure(wl, workload, args.seed, args.seconds, args.smoke)
    print(json.dumps(result))
    # a single workload reports problems in its result; `all` also exits 1
    return 0 if result["correct"] or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
