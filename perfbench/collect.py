"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 10 --workloads witness-gnp,oracle-reduce
    python3 perfbench/collect.py --seeds 10 --traced --json perfbench/out/summary.json

For every workload and end-to-end metric it prints the median of the
per-run values, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread (interquartile distance over the median), next to the
metric's bound in BENCHMARK.json.  Every run lasts BENCHMARK.json's
``run_seconds``.  Seeds run one after another, each in its own process.
``--traced`` adds one traced run per workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """One run in its own process: its result and its wall time."""
    started = time.perf_counter()
    result = run.child(workload, seed, seconds, trace, smoke=False, echo=False)
    return result, time.perf_counter() - started


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in range(args.seeds):
            result, wall = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            walls.append(wall)
            values = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        entry = summary[workload] = {
            "seeds": args.seeds,
            "max_wall_s": max(walls),
            "all_correct": all(r["correct"] for r in runs),
            "jobs_median": statistics.median(r["attempted"] for r in runs),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over a third")
            print(f"  {name:12} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound} {flag}", flush=True)
        if args.traced:
            result, _ = run_once(workload, 0, spec["run_seconds"], 1)
            entry["per_layer_seed0"] = {n: m["value"] for n, m in result["metrics"].items()}
            entry["traced_correct"] = result["correct"]
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
