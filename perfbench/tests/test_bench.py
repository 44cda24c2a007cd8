"""Tests of the benchmark itself: result schema, tiny runs of every workload,
the traced run's per-layer report, and traced/untraced determinism.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """Last-line result and the runs.jsonl record of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    lines = (ROOT / ".perfbench_out" / "runs.jsonl").read_text().splitlines()
    record = next(r for r in map(json.loads, reversed(lines))
                  if (r["workload"], r["seed"], r["trace"], r["scale"])
                  == (workload, seed, bool(trace), "tiny"))
    return result, record


def test_spec_names_match_the_harness():
    import harness
    import run
    from tracing import metric_specs

    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == metric_specs()


@pytest.mark.parametrize("workload", ["asr_ctc", "speaker_transfer", "verify_eval"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 2  # the warm-up pass and at least one timed pass
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["environment"]["threads"]["CONFSV_THREADS"] == "2"
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_run_reports_every_layer_and_writes_the_same_bytes():
    result, record = bench("speaker_transfer", 1)
    assert result["correct"] is True, record["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # a layer that does no work on this workload reports zero calls
    assert metrics["losses.ctc_loss_batch.calls"] == 0
    assert metrics["training.extract_embeddings.calls"] == 0
    assert metrics["training.train_speaker.calls"] == 2  # train and distill
    # the frozen warm-up epoch computes encoder gradients the optimizer skips
    assert 0 < metrics["training.AdamW.step.wasted_grad_ratio"] < 1
    # V3 with L=1 taps one of the backbone's two blocks
    assert metrics["adaptation.SpeakerAdaptation.backbone_taps.blocks_used_ratio"] == 0.5
    assert metrics["trace_overhead"] > 0
    # the traced process wrote the same artefacts as an untraced one
    assert record["digests"] == bench("speaker_transfer", 0)[1]["digests"]


def test_reference_metrics_match_the_program_on_tied_scores():
    import checks
    from confsv.scoring import eer, min_dcf

    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=400)
    scores = np.round(rng.normal(labels, 1.0), 1)  # many ties
    assert checks.eer_percent(scores, labels) == eer(scores, labels)
    assert checks.min_dcf(scores, labels) == min_dcf(scores, labels)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asr_ctc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
