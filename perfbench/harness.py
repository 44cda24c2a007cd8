"""One benchmark run: set up, run passes of a workload's commands, check, report.

A pass runs the workload's commands once, one at a time, in this process, through
`confsv.cli.main`: a closed loop with a single client.  Passes repeat until the
measuring time is used up; the first pass only warms caches and is not timed.
End-to-end metrics come from untraced passes; with tracing on, every untraced
pass is followed by a traced one, and the per-layer metrics come from the
traced passes.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from confsv import cli

import checks
import workloads
from tracing import Tracer
from workloads import Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set up at least this many times and for at least this long; setup_s is the median
SETUP_REPEATS, SETUP_MIN_S = 3, 3.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONFSV_THREADS")

# end-to-end metrics, reported with tracing off: name -> unit
END_TO_END = {"setup_s": "s", "pass_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class CommandRun:
    command: Command
    traced: bool
    seconds: float
    problems: list[str]
    digests: dict[str, str]


def run_command(cmd: Command, out_dir: Path, traced: bool) -> CommandRun:
    buf = io.StringIO()
    problems: list[str] = []
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(cmd.argv)
    except (Exception, SystemExit) as e:  # a crash fails this command; the run goes on
        code = None
        problems.append(f"{cmd.name} raised {e!r}")
        traceback.print_exc()
    seconds = time.perf_counter() - start
    if code is not None and code != 0:
        problems.append(f"{cmd.name} exited with code {code}")
    for check in cmd.checks:
        try:
            problems.extend(check(buf.getvalue()))
        except Exception as e:  # a check that cannot read the output fails the command
            problems.append(f"{check.func.__name__} raised {e!r}")
    digests = {str(p.relative_to(out_dir)): checks.sha256(p) for p in cmd.artefacts
               if p.is_file()}
    return CommandRun(cmd, traced, seconds, problems, digests)


@contextmanager
def timed_embeds(samples: list[float]):
    """Time every SpeakerModel.embed_utterance call with two clock reads."""
    from confsv.heads import SpeakerModel

    original = SpeakerModel.embed_utterance

    @functools.wraps(original)
    def timed(self, features):
        start = time.perf_counter()
        try:
            return original(self, features)
        finally:
            samples.append(time.perf_counter() - start)

    SpeakerModel.embed_utterance = timed
    try:
        yield
    finally:
        SpeakerModel.embed_utterance = original


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def code_identity() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # e.g. an exported checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def _previous_digests(results: Path, key: dict) -> dict | None:
    if not results.is_file():
        return None
    for line in results.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if all(record.get(k) == v for k, v in key.items()):
            return record["digests"]
    return None


def run(name: str, seed: int, seconds: float, trace: bool, scale: str, out_root: Path) -> dict:
    out_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=out_root))
    try:
        return _run(name, seed, seconds, trace, scale, out_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, scale, out_root, work) -> dict:
    setup_s: list[float] = []
    while not setup_s or not trace and (len(setup_s) < SETUP_REPEATS
                                        or sum(setup_s) < SETUP_MIN_S):
        start = time.perf_counter()
        wl = workloads.setup(name, seed, work / f"setup{len(setup_s)}",
                             workloads.SCALES[scale])
        setup_s.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    passes: list[tuple[bool, list[CommandRun]]] = []  # (traced, runs) of each timed pass
    embed_s: list[float] = []

    def run_pass(traced: bool) -> list[CommandRun]:
        done = []
        for cmd in wl.commands:
            if traced:
                tracer.command = cmd.name
            done.append(run_command(cmd, wl.out_dir, traced))
        return done

    start = time.perf_counter()
    warmup = run_pass(False)  # fills caches and finishes lazy set-up; not timed
    while not passes or time.perf_counter() - start < seconds:
        with timed_embeds(embed_s):
            passes.append((False, run_pass(False)))
        if trace:
            with tracer.installed():
                passes.append((True, run_pass(True)))
    runs = warmup + [r for _, done in passes for r in done]
    walls = {t: [sum(r.seconds for r in done) for traced, done in passes if traced == t]
             for t in (False, True)}

    # determinism: every pass, traced or not, writes the same bytes as the first
    first = {}
    for r in runs:
        ref = first.setdefault(id(r.command), r.digests)
        if r.digests != ref:
            changed = sorted(k for k in {**ref, **r.digests} if ref.get(k) != r.digests.get(k))
            r.problems.append(f"{'traced' if r.traced else 'untraced'} pass changed {changed}")
    digests = {k: v for r in warmup for k, v in r.digests.items()}
    # ... and so does every earlier run of the same code on the same inputs
    results = out_root / "runs.jsonl"
    key = {"workload": name, "seed": seed, "scale": scale, "code": code_identity()}
    previous = _previous_digests(results, key)
    if previous is not None:
        for r in warmup:
            changed = sorted(k for k in r.digests if previous.get(k) != r.digests[k])
            if changed:
                r.problems.append(f"differs from an earlier run of the same code: {changed}")

    stage = _stage_metrics(wl.commands, [done for traced, done in passes if not traced])
    failed = sum(bool(r.problems) for r in runs)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(walls[False]),
        "samples_per_s": stage[wl.headline][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    report.update(stage)
    if embed_s:
        report["embed_ms_p50"] = (1e3 * statistics.median(embed_s), "ms")
        report["embed_ms_p95"] = (1e3 * percentile(embed_s, 95), "ms")
        report["embed_samples"] = (len(embed_s), "count")
    evaluation = wl.out_dir / "eval.csv"
    if evaluation.is_file():
        report["eer_percent"] = (checks.read_evaluation(evaluation)[0], "%")
    report["error_rate"] = (failed / len(runs), "ratio")

    record = {
        **key, "trace": trace, "seconds": seconds, "passes": len(walls[False]),
        "environment": environment(), "setup_s": setup_s, "pass_s": walls[False],
        "command_s": [[r.seconds for r in done] for traced, done in passes if not traced],
        "metrics": {k: v for k, (v, _) in report.items()},
        "digests": digests, "attempted": len(runs), "failed": failed,
        "problems": [p for r in runs for p in r.problems],
    }
    if trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        record["per_layer"] = tracer.metrics(len(walls[True]), overhead)
        tracer.write_spans(out_root / f"spans-{name}-seed{seed}.jsonl")
    with open(results, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    _print_report(record, report)
    return record


def _stage_metrics(commands: list[Command], passes: list[list[CommandRun]]) -> dict:
    """Median over passes of samples per second, per stage and over all training."""
    groups: dict[str, list[Command]] = {}
    for cmd in commands:
        groups.setdefault(cmd.metric, []).append(cmd)
    training = [c for c in commands if c.training]
    if training:
        groups["train_samples_per_s"] = training
    out = {}
    for metric, cmds in groups.items():
        rates = []
        for done in passes:
            mine = [r for r in done if any(r.command is c for c in cmds)]
            rates.append(sum(r.command.samples for r in mine) / sum(r.seconds for r in mine))
        out[metric] = (statistics.median(rates), f"{cmds[0].unit}/s")
    return out


def _print_report(record: dict, report: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  scale {record['scale']}"
          f"  passes {record['passes']}{'  traced' if record['trace'] else ''}")
    for name, (value, unit) in report.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print("environment: " + "  ".join(
        [f"{k}={env[k]}" for k in ("nproc", "python", "numpy", "blas", "git_commit",
                                   "src_lines")]
        + [f"{k}={v}" for k, v in env["threads"].items()]))
    for artefact, digest in record["digests"].items():
        print(f"  sha256 {digest}  {artefact}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
