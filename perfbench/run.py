#!/usr/bin/env python3
"""confsv benchmark.

    python3 perfbench/run.py --workload asr_ctc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Builds the workload's inputs from --seed, runs its confsv commands in passes
for --seconds, checks every output, and prints a report followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run.  Every run is also appended to
.perfbench_out/runs.jsonl at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("asr_ctc", "speaker_transfer", "verify_eval")

# One BLAS thread per worker and two embedding workers: at most two busy
# threads, one per core of the reference machine.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "CONFSV_THREADS": "2"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "confsv" / "__init__.py").is_file():
        print(f"benchmark: no confsv sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy is first imported
    sys.path.insert(0, str(src))
    import confsv

    if Path(confsv.__file__).resolve().parent != (src / "confsv").resolve():
        print(f"benchmark: imported confsv from {confsv.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    from tracing import metric_specs

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.scale, OUT_DIR)
    if args.trace:
        units = {name: unit for name, unit, _ in metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": unit}
                   for k, unit in harness.END_TO_END.items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
