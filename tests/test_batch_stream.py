"""The training batch stream: the same bytes at any worker count, typed errors, no leaked threads.

Every training command builds its batches through one `util.map_batches`
stream.  At CONFSV_THREADS=2 the items of the next batch are built on worker
threads while the current batch trains; these tests check that this changes
nothing a run writes or reports, and that the workers and the
subsampling's lane end with the command.
"""

import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from confsv import autodiff as ad
from confsv import datapipe, training
from confsv.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from confsv.config import load_run_config
from confsv.datapipe import read_manifest, read_wav
from confsv.errors import NumericError

CONFIG = """
[experiment]
seed = 31

[data]
n_speakers = 3
utts_per_speaker = 2
crop_seconds = 1.0
augment_prob = 0.6
speed_perturb = true

[encoder]
layers = 2
dim = 16
heads = 4
hidden = 32
subsample_rate = 0.25
conv_kernel = 7
dropout = 0.1

[optim]
batch_size = 5
epochs = 2

[schedule]
frozen_epochs = 1
lmft_epochs = 1
lmft_crop_seconds = 1.5
"""

# half-rate student distilled from the quarter-rate ASR teacher
DISTILL_CONFIG = (CONFIG.replace("subsample_rate = 0.25", "subsample_rate = 0.5")
                  .replace("speed_perturb = true", "speed_perturb = false")
                  + "\n[loss]\nalpha = 0.5\n")

ADAPT_CONFIG = CONFIG.replace("speed_perturb = true", "speed_perturb = false") + (
    "\n[adaptation]\nvariant = V3\nadapted_layers = 1\nextra_layers = 1\n"
    "light_dim = 16\nlight_hidden = 32\nlight_kernel = 7\n"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    configs = {}
    for name, text in (("train", CONFIG), ("distill", DISTILL_CONFIG), ("adapt", ADAPT_CONFIG)):
        configs[name] = root / f"{name}.cfg"
        configs[name].write_text(text, encoding="utf-8")
    assert main(["gen-data", "--config", str(configs["train"]), "--out", str(root / "data")]) == 0
    return {"root": root, "configs": configs, "manifest": root / "data" / "manifest.txt"}


@pytest.fixture
def threads(monkeypatch):
    """Sets CONFSV_THREADS on a machine pinned to 4 CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def set_threads(n: int) -> None:
        monkeypatch.setenv("CONFSV_THREADS", str(n))

    return set_threads


def _argv(corpus, command: str, out, asr_ckpt=None) -> list[str]:
    configs, manifest = corpus["configs"], str(corpus["manifest"])
    if command == "pretrain-asr":
        return ["pretrain-asr", "--config", str(configs["train"]), "--manifest", manifest,
                "--out", str(out)]
    if command == "train":
        return ["train", "--config", str(configs["train"]), "--manifest", manifest,
                "--out", str(out), "--init", str(asr_ckpt), "--lmft"]
    return [command, "--config", str(configs[command]), "--manifest", manifest,
            "--out", str(out), "--teacher", str(asr_ckpt)]


def test_one_and_two_threads_write_the_same_bytes(corpus, threads, tmp_path):
    outputs = {}
    for n in (1, 2):
        threads(n)
        asr = tmp_path / f"t{n}" / "asr"
        assert main(_argv(corpus, "pretrain-asr", asr)) == EXIT_OK
        for command in ("train", "distill", "adapt"):
            assert main(_argv(corpus, command, tmp_path / f"t{n}" / command,
                              asr / "asr.ckpt")) == EXIT_OK
        outputs[n] = {str(p.relative_to(tmp_path / f"t{n}")): p.read_bytes()
                      for p in sorted((tmp_path / f"t{n}").rglob("*")) if p.is_file()}
    assert set(outputs[1]) == {"asr/asr_loss.csv", "asr/asr.ckpt", "train/loss.csv",
                               "train/speaker.ckpt", "distill/loss.csv", "distill/speaker.ckpt",
                               "adapt/loss.csv", "adapt/adaptation.ckpt"}
    # a header, then the frozen, the full and the LMFT epoch
    assert outputs[1]["train/loss.csv"].count(b"\n") == 4
    assert outputs[1] == outputs[2]


def test_train_with_babble_writes_the_same_bytes_at_one_and_two_threads_and_on_a_rerun(
        corpus, threads, tmp_path, monkeypatch, cold_bank):
    """Every crop augmented: the babble crops read the same voices whichever
    worker builds them first, from a cold bank or a warm one."""
    config = tmp_path / "babble.cfg"
    config.write_text(CONFIG.replace("augment_prob = 0.6", "augment_prob = 1.0"),
                      encoding="utf-8")
    kinds = []
    make_noise = datapipe.make_noise
    monkeypatch.setattr(datapipe, "make_noise",
                        lambda kind, n, rng: kinds.append(kind) or make_noise(kind, n, rng))
    outputs = []
    for run, (n, cold) in enumerate(((1, True), (2, True), (2, False))):
        threads(n)
        if cold:
            cold_bank()
        kinds.clear()
        out = tmp_path / f"run{run}"
        assert main(["train", "--config", str(config), "--manifest", str(corpus["manifest"]),
                     "--out", str(out), "--lmft"]) == EXIT_OK
        assert kinds.count("babble") >= 3
        outputs.append({name: (out / name).read_bytes() for name in ("loss.csv", "speaker.ckpt")})
    assert outputs[0] == outputs[1] == outputs[2]


def test_pretrain_asr_writes_the_same_bytes_at_one_and_two_threads_and_on_a_rerun(
        corpus, threads, tmp_path):
    outputs = []
    for run, n in enumerate((1, 2, 2)):
        threads(n)
        out = tmp_path / f"run{run}"
        assert main(_argv(corpus, "pretrain-asr", out)) == EXIT_OK
        outputs.append({name: (out / name).read_bytes() for name in ("asr_loss.csv", "asr.ckpt")})
    assert outputs[0] == outputs[1] == outputs[2]


def test_pretrain_asr_builds_its_features_on_the_workers(corpus, threads, tmp_path,
                                                          monkeypatch):
    """Each utterance's padded log-mel is built off the training thread."""
    log_mel = training.log_mel
    on_main, feats_seen = [], []

    def recording_log_mel(wave):
        on_main[-1].add(threading.current_thread() is threading.main_thread())
        return log_mel(wave)

    forward = training.ConformerEncoder.forward

    def recording_forward(self, mel, *args, **kwargs):
        feats_seen[-1].append(mel.data.copy())
        return forward(self, mel, *args, **kwargs)

    monkeypatch.setattr(training, "log_mel", recording_log_mel)
    monkeypatch.setattr(training.ConformerEncoder, "forward", recording_forward)
    for n in (1, 2):
        threads(n)
        on_main.append(set())
        feats_seen.append([])
        assert main(_argv(corpus, "pretrain-asr", tmp_path / f"t{n}")) == EXIT_OK
    # serially on the main thread; with workers, never on it
    assert on_main == [{True}, {False}]
    assert len(feats_seen[0]) == len(feats_seen[1]) == 4
    for a, b in zip(*feats_seen):
        np.testing.assert_array_equal(a, b)
    # the first batch of the length-sorted plan: each utterance zero-padded to
    # the batch maximum, then featurised
    cfg = load_run_config(corpus["configs"]["train"])
    entries = read_manifest(corpus["manifest"])
    all_waves = [read_wav(corpus["manifest"].parent / e.path) for e in entries]
    lengths = np.array([w.size for w in all_waves])
    keys = next(training._batch_plan(cfg, len(entries), range(cfg.epochs), "asr_order",
                                     lengths=lengths))
    waves = [all_waves[idx] for _, idx in keys]
    longest = max(w.size for w in waves)
    expected = np.stack([log_mel(np.pad(w, (0, longest - w.size))) for w in waves])
    np.testing.assert_array_equal(feats_seen[0][0], expected)


def test_each_training_command_reads_one_stream(corpus, threads, tmp_path, monkeypatch):
    streams = []
    map_batches = training.map_batches

    @contextmanager
    def counting(fn, plan):
        with map_batches(fn, plan) as results:
            streams.append(0)

            def counted():
                for result in results:
                    streams[-1] += 1
                    yield result

            yield counted()

    monkeypatch.setattr(training, "map_batches", counting)
    threads(2)
    asr = tmp_path / "asr"
    # 6 utterances in batches of 5: pretrain-asr 2 epochs x 2; train 2 epochs of
    # 18 speed-perturbed items x 4, then 1 LMFT epoch x 2; distill and adapt 2 x 2
    expected = {"pretrain-asr": 4, "train": 10, "distill": 4, "adapt": 4}
    for command, batches in expected.items():
        streams.clear()
        out = asr if command == "pretrain-asr" else tmp_path / command
        assert main(_argv(corpus, command, out, asr / "asr.ckpt")) == EXIT_OK
        assert streams == [batches], command


def _later_entry(corpus) -> int:
    """An entry none of whose speed replicas is in the first batch of `train`."""
    cfg = load_run_config(corpus["configs"]["train"])
    entries = read_manifest(corpus["manifest"])
    items, _ = training.build_items(entries, cfg.speed_perturb)
    plan = training._batch_plan(cfg, len(items), range(cfg.epochs), "order", cfg.crop_seconds)
    first = {idx % len(entries) for _, idx, _ in next(plan)}
    return min(set(range(len(entries))) - first)


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_bad_wav_in_a_later_batch_fails_alike_at_one_and_two_threads(
        corpus, threads, tmp_path, capsys, damage):
    asr = tmp_path / "asr"
    assert main(_argv(corpus, "pretrain-asr", asr)) == EXIT_OK
    manifest = corpus["manifest"]
    wav = manifest.parent / read_manifest(manifest)[_later_entry(corpus)].path
    original = wav.read_bytes()
    try:
        if damage == "missing":
            wav.unlink()
        else:
            wav.write_bytes(original[:1001])
        results = []
        for n in (1, 2):
            threads(n)
            capsys.readouterr()
            before = threading.active_count()
            code = main(_argv(corpus, "train", tmp_path / f"t{n}", asr / "asr.ckpt"))
            assert threading.active_count() == before
            results.append((code, capsys.readouterr().err))
    finally:
        wav.write_bytes(original)
    assert results[0] == results[1]
    assert results[0][0] == EXIT_DATA
    assert results[0][1].startswith("data error: ") and wav.name in results[0][1]


def test_a_finished_command_leaves_no_worker_or_lane_running(corpus, threads, tmp_path,
                                                             monkeypatch):
    forks = []
    fork_join = ad.fork_join

    def counting(a, b):
        forks.append(threading.active_count())
        return fork_join(a, b)

    monkeypatch.setattr(ad, "fork_join", counting)
    threads(2)
    before = threading.active_count()
    assert main(_argv(corpus, "pretrain-asr", tmp_path / "asr")) == EXIT_OK
    assert forks and max(forks) > before  # the subsampling forked with threads running
    assert threading.active_count() == before


def test_numeric_error_in_a_step_leaves_no_worker_running(corpus, threads, tmp_path,
                                                          monkeypatch):
    asr = tmp_path / "asr"
    assert main(_argv(corpus, "pretrain-asr", asr)) == EXIT_OK
    step = training.AdamW.step
    calls = []

    def failing_step(self, named_params, lr):
        calls.append(lr)
        if len(calls) == 2:
            raise NumericError("injected")
        step(self, named_params, lr)

    monkeypatch.setattr(training.AdamW, "step", failing_step)
    threads(2)
    before = threading.active_count()
    assert main(_argv(corpus, "train", tmp_path / "train", asr / "asr.ckpt")) == EXIT_NUMERIC
    assert len(calls) == 2
    assert threading.active_count() == before
