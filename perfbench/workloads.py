"""Workload inputs and the command sequence each workload runs.

Every input is generated here from the workload seed; the program under test
only sees the generated files, through `confsv.cli.main([...])`.  Checkpoints
are seeded rather than trained, so no training work leaks into set-up time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from confsv.config import RunConfig
from confsv.conformer import ConformerEncoder, EncoderConfig
from confsv.datapipe import Corpus, make_trials, read_manifest, write_wav
from confsv.heads import SpeakerModel
from confsv.losses import CtcDecoder
from confsv.nn import seed_parameters
from confsv.training import save_asr_checkpoint, save_speaker_checkpoint

import checks

# The toy encoder of the test suite: 2 blocks, d=32, quarter rate.
ENCODER = dict(layers=2, dim=32, heads=4, hidden=64, subsample_rate=0.25,
               conv_kernel=15, dropout=0.1)
# Corpus.min_duration values merged into one manifest, so that utterance
# lengths spread from about 1 s to 3.6 s and zero-padding to the batch maximum
# is a visible share of an ASR batch.
LENGTH_GROUPS = (1.0, 2.3, 3.6)
# Seed of every run config.  Corpora, checkpoints and trials come from the
# workload seed; the training streams do not, so each seed draws the same
# augmentation plan (babble with 3-8 synthesized voices costs far more than
# none) and does the same amount of work per pass.
RUN_SEED = 7


@dataclass(frozen=True)
class Scale:
    """Input sizes; `(speakers, utterances per speaker)` pairs are per length group."""

    asr_corpus: tuple[int, int]
    asr_batch: int
    spk_corpus: tuple[int, int]
    spk_batch: int
    eval_corpus: tuple[int, int]
    cohort_corpus: tuple[int, int]
    trials: int  # target trials, and as many nontarget trials
    calib_trials: int
    top_k: int


SCALES = {
    "full": Scale(asr_corpus=(4, 2), asr_batch=8, spk_corpus=(3, 2), spk_batch=12,
                  eval_corpus=(6, 4), cohort_corpus=(3, 3), trials=5000,
                  calib_trials=1000, top_k=20),
    "tiny": Scale(asr_corpus=(2, 2), asr_batch=4, spk_corpus=(2, 2), spk_batch=6,
                  eval_corpus=(3, 3), cohort_corpus=(2, 3), trials=150,
                  calib_trials=60, top_k=5),
}

# epochs per training command of speaker_transfer
TRAIN_EPOCHS, FROZEN_EPOCHS, LMFT_EPOCHS = 2, 1, 1
DISTILL_EPOCHS = ADAPT_EPOCHS = 2
SPEED_COPIES = 3  # speed perturbation adds two resampled replicas per utterance


@dataclass
class Command:
    """One `confsv` invocation of a pass, with what it produces and how to check it."""

    metric: str  # stage throughput this command counts toward
    argv: list[str]
    samples: int
    unit: str
    training: bool = False
    artefacts: list[Path] = field(default_factory=list)
    checks: list[Callable[[str], list[str]]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    headline: str  # the stage metric reported as samples_per_s
    commands: list[Command]
    out_dir: Path


def sub_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the workload seed and labels."""
    text = "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def write_mixed_corpus(out_dir: Path, seed: int, speakers: int, utts: int,
                       groups=LENGTH_GROUPS) -> Path:
    """One manifest over several seeded corpora, one per minimum duration."""
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)
    lines = []
    for g, min_duration in enumerate(groups):
        corpus = Corpus(speakers, utts, sub_seed(seed, "corpus", g), min_duration=min_duration)
        for i in range(len(corpus)):
            utt = corpus.utterance(i)
            rel = f"wavs/g{g}_{corpus.utterance_id(i)}"
            write_wav(out_dir / rel, utt.waveform)
            lines.append(f"{rel} g{g}{utt.speaker_id} {utt.tokens} {utt.duration_sec:.3f}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def write_config(path: Path, seed: int, **sections: dict) -> Path:
    sections = {"experiment": {"seed": seed}, **sections}
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    path.write_text(text, encoding="utf-8")
    return path


def encoder_section(rate: float = 0.25) -> dict:
    return {**ENCODER, "subsample_rate": rate}


def write_trials(path: Path, manifest: Path, seed: int, n: int) -> Path:
    trials = make_trials(read_manifest(manifest), seed, n, n)
    path.write_text("\n".join(f"{label} {a} {b}" for label, a, b in trials) + "\n",
                    encoding="utf-8")
    return path


def setup(name: str, seed: int, root: Path, scale: Scale) -> Workload:
    root.mkdir(parents=True, exist_ok=True)
    return {"asr_ctc": _asr_ctc, "speaker_transfer": _speaker_transfer,
            "verify_eval": _verify_eval}[name](seed, root, scale)


def _asr_ctc(seed: int, root: Path, scale: Scale) -> Workload:
    manifest = write_mixed_corpus(root / "corpus", seed, *scale.asr_corpus)
    cfg = write_config(root / "asr.cfg", RUN_SEED, encoder=encoder_section(),
                       optim={"batch_size": scale.asr_batch, "epochs": 1},
                       data={"augment_prob": 0.0})
    out = root / "out"
    n = len(read_manifest(manifest))
    loss = out / "asr" / "asr_loss.csv"
    cmd = Command("asr_samples_per_s",
                  ["pretrain-asr", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(out / "asr")],
                  samples=n, unit="utts", training=True,
                  artefacts=[loss, out / "asr" / "asr.ckpt"],
                  checks=[partial(checks.loss_csv, loss)])
    return Workload("asr_samples_per_s", [cmd], out)


def _speaker_transfer(seed: int, root: Path, scale: Scale) -> Workload:
    manifest = write_mixed_corpus(root / "corpus", seed, *scale.spk_corpus, groups=(2.3,))
    n = len(read_manifest(manifest))

    # quarter-rate ASR checkpoint from seeded, untrained parameters
    enc_cfg = EncoderConfig(**ENCODER)
    encoder, decoder = ConformerEncoder(enc_cfg), CtcDecoder(enc_cfg.dim, RunConfig().vocab)
    seed_parameters(encoder, sub_seed(seed, "asr"), scope="asr_encoder")
    seed_parameters(decoder, sub_seed(seed, "asr"), scope="asr_decoder")
    asr_ckpt = root / "asr.ckpt"
    save_asr_checkpoint(asr_ckpt, encoder, decoder, RunConfig(seed=seed, encoder=enc_cfg))

    optim = {"batch_size": scale.spk_batch}
    data = {"augment_prob": 0.6}
    train_cfg = write_config(
        root / "train.cfg", RUN_SEED, encoder=encoder_section(),
        optim={**optim, "epochs": TRAIN_EPOCHS}, data={**data, "speed_perturb": "true"},
        schedule={"frozen_epochs": FROZEN_EPOCHS, "lmft_epochs": LMFT_EPOCHS})
    distill_cfg = write_config(
        root / "distill.cfg", RUN_SEED, encoder=encoder_section(0.5),
        optim={**optim, "epochs": DISTILL_EPOCHS}, data=data)
    adapt_cfg = write_config(
        root / "adapt.cfg", RUN_SEED, encoder=encoder_section(),
        optim={**optim, "epochs": ADAPT_EPOCHS}, data=data,
        adaptation={"variant": "V3", "adapted_layers": 1, "extra_layers": 1,
                    "light_dim": 32, "light_heads": 4, "light_hidden": 64,
                    "light_kernel": 15})

    out = root / "out"
    common = ["--manifest", str(manifest)]
    commands = []
    for metric, argv, samples, ckpt in (
        ("spk_samples_per_s",
         ["train", "--config", str(train_cfg), *common, "--out", str(out / "train"),
          "--init", str(asr_ckpt), "--lmft"],
         n * SPEED_COPIES * TRAIN_EPOCHS + n * LMFT_EPOCHS, "speaker.ckpt"),
        ("distill_samples_per_s",
         ["distill", "--config", str(distill_cfg), *common, "--out", str(out / "distill"),
          "--teacher", str(asr_ckpt)],
         n * DISTILL_EPOCHS, "speaker.ckpt"),
        ("adapt_samples_per_s",
         ["adapt", "--config", str(adapt_cfg), *common, "--out", str(out / "adapt"),
          "--teacher", str(asr_ckpt)],
         n * ADAPT_EPOCHS, "adaptation.ckpt"),
    ):
        cmd_out = Path(argv[argv.index("--out") + 1])
        loss = cmd_out / "loss.csv"
        commands.append(Command(metric, argv, samples, "crops", training=True,
                                artefacts=[loss, cmd_out / ckpt],
                                checks=[partial(checks.loss_csv, loss)]))
    return Workload("train_samples_per_s", commands, out)


def _verify_eval(seed: int, root: Path, scale: Scale) -> Workload:
    eval_manifest = write_mixed_corpus(root / "eval", sub_seed(seed, "eval"), *scale.eval_corpus)
    cohort_manifest = write_mixed_corpus(root / "cohort", sub_seed(seed, "cohort"),
                                         *scale.cohort_corpus)
    trials = write_trials(root / "trials.txt", eval_manifest, sub_seed(seed, "trials"),
                          scale.trials)
    calib = write_trials(root / "calib.txt", eval_manifest, sub_seed(seed, "calib"),
                         scale.calib_trials)

    enc_cfg = EncoderConfig(**ENCODER)
    model = SpeakerModel(enc_cfg)
    seed_parameters(model, sub_seed(seed, "speaker"), scope="speaker_model")
    spk_ckpt = root / "speaker.ckpt"
    save_speaker_checkpoint(spk_ckpt, model, RunConfig(seed=seed, encoder=enc_cfg))

    out = root / "out"
    out.mkdir(parents=True, exist_ok=True)
    commands = []
    stores = {}
    for label, manifest in (("eval", eval_manifest), ("cohort", cohort_manifest)):
        store = stores[label] = out / f"{label}.emb"
        commands.append(Command(
            "embed_utts_per_s",
            ["embed", "--ckpt", str(spk_ckpt), "--manifest", str(manifest), "--out", str(store)],
            samples=len(read_manifest(manifest)), unit="utts", artefacts=[store],
            checks=[partial(checks.embedding_store, store, manifest)]))

    n_trials = 2 * scale.trials
    # score and evaluate take the same flags, so the written scores are the
    # ones evaluate reduces to EER and minDCF
    scoring = ["--embeddings", str(stores["eval"]), "--trials", str(trials), "--snorm",
               "--cohort", str(stores["cohort"]), "--cohort-size", "0",
               "--top-k", str(scale.top_k), "--qmf", "--calib-trials", str(calib),
               "--manifest", str(eval_manifest)]
    scores, metrics = out / "scores.txt", out / "eval.csv"
    commands.append(Command(
        "score_trials_per_s", ["score", *scoring, "--out", str(scores)],
        samples=n_trials, unit="trials", artefacts=[scores],
        checks=[partial(checks.score_file, scores, trials)]))
    commands.append(Command(
        "evaluate_trials_per_s", ["evaluate", *scoring, "--out", str(metrics)],
        samples=n_trials, unit="trials", artefacts=[metrics],
        checks=[partial(checks.evaluation, metrics, scores, trials)]))
    return Workload("embed_utts_per_s", commands, out)
