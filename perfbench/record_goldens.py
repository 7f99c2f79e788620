"""Record the golden outputs that every benchmark run is checked against.

    python3 perfbench/record_goldens.py

Runs every corpus entry of every part (main, held-out, smoke) of every
workload once through the same job code as the benchmark and rewrites
``perfbench/goldens.json`` whole: the SHA-256
of each job's output file, plus q for witness jobs.  The goldens in the
repository were recorded from the code the benchmark was introduced
with; re-record only when an output format is meant to change.  Prints
each entry's job time to stderr.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    wl = run.load_library()
    path = run.HERE / "goldens.json"
    goldens: dict = {}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in wl.WORKLOADS.items():
        for part in wl.PARTS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                work = Path(tmp)
                entries = workload.corpus(part)
                for entry in entries:
                    for file_name, text in entry.files.items():
                        (work / file_name).write_text(text)
                workload.prepare(work)
                for argv in workload.setup_argv(work):
                    if run.quiet_cli(wl, argv) != 0:
                        raise SystemExit(f"{name}: set-up call {argv} failed")
                recorded = goldens.setdefault(name, {})[part] = {}
                for entry in entries:
                    started = time.perf_counter()
                    outcome = workload.job(entry, work)
                    elapsed = time.perf_counter() - started
                    if outcome.code != 0:
                        raise SystemExit(f"{name} {entry.key}: exit code {outcome.code}")
                    recorded[entry.key] = workload.golden(outcome)
                    reason = workload.check(entry, outcome, recorded[entry.key], work)
                    if reason:
                        raise SystemExit(f"{name} {entry.key}: {reason}")
                    print(f"{name}\t{entry.key}\t{elapsed:.6f}", file=sys.stderr, flush=True)
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
