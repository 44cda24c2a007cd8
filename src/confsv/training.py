"""Training for every strategy through one loop, the checkpoints of each
kind, and embedding extraction.

ASR pretraining, speaker training (scratch, pretrained-init, distillation),
large-margin fine-tuning and adaptation all run in `_train_epochs`: shuffled
batches, one backward and one AdamW step per batch under a cosine lr
schedule, and one loss.csv row per epoch.  Each strategy supplies only its
item builder, its loss and its schedule.  Pretrained-init freezes the
encoder by epoch range: `train_speaker` runs epochs `range(frozen_epochs)`
with the encoder frozen, then `range(frozen_epochs, epochs)` with it
trainable, as two calls on one schedule; the other strategies freeze nothing.

A training command reads one stream of batches: a `_batch_plan` of item keys
per batch, mapped through `util.map_batches`, which with CONFSV_THREADS > 1
builds the next batch's items on worker threads while the current batch
trains: for ASR pretraining, each utterance's log-mel, zero-padded to the
batch maximum.  ASR pretraining reads every utterance's length from its WAV
header once and batches neighbouring lengths, so little of a batch is
padding: a batch holds the same utterances in every epoch (up to ties in
length), and only the order of the batches is reshuffled.  The speaker
strategies draw new batches from a permutation each epoch.  The stream also
opens the lane on which the subsampling convs run half of each step's items
(see `autodiff.conv2d_relu`).  `train_speaker` keeps one stream across its
frozen, trainable and LMFT epochs, so the first batch of each range is
built while the previous range ends.

Everything is a deterministic function of (config, seed): corpus order,
crops, augmentation draws, dropout masks, and parameter init all derive from
named seed streams, and each item draws only from its own, so nothing depends
on which thread builds it.  Two runs of the same config produce byte-identical
loss logs and checkpoints at any worker count.

This module is the one that writes and reads each checkpoint kind: "asr"
(encoder and CTC decoder), "speaker" (a `SpeakerModel`) and "adaptation"
(a `SpeakerAdaptation` add-on, bound to its backbone by a content hash).
`checkpoint` holds only the byte format.  `load_asr_model` serves the
commands that start from an ASR encoder; `load_embedder` serves `embed`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .adaptation import AdaptationConfig, SpeakerAdaptation
from .config import RunConfig
from .conformer import ConformerEncoder, EncoderConfig
from .datapipe import (
    SPEED_FACTORS,
    ManifestEntry,
    augment_onthefly,
    crop,
    expand_speed_labels,
    load_utterance,
    log_mel,
    read_manifest,
    snr_estimate_db,
    speed_perturb,
    wav_length,
)
from .errors import CheckpointError, ConfigError
from .heads import SpeakerModel
from .losses import (
    AamClassifier,
    CtcDecoder,
    RateMatcher,
    aam_softmax_loss,
    combined_loss,
    ctc_loss_batch,
    distill_kl_loss,
)
from .nn import Parameter, seed_parameters
from .scoring import resolve_embedding
from .util import check_finite, map_batches, parallel_map, rng_for, write_lines

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay; state is keyed by parameter name."""

    def __init__(self, weight_decay: float = 1e-7):
        self.wd = weight_decay
        self.state: dict[str, dict] = {}

    def step(self, named_params: Sequence[tuple[str, Parameter]], lr: float) -> None:
        """Update every parameter holding a gradient; frozen ones never hold one.

        A non-finite gradient raises NumericError before any parameter or
        optimizer state changes.
        """
        named_params = [(name, p) for name, p in named_params if p.grad is not None]
        for name, p in named_params:
            check_finite(p.grad, f"gradient of {name}")
        for name, p in named_params:
            st = self.state.setdefault(name, {"m": np.zeros_like(p.data),
                                              "v": np.zeros_like(p.data), "t": 0})
            st["t"] += 1
            g = p.grad
            st["m"] = ADAM_BETA1 * st["m"] + (1 - ADAM_BETA1) * g
            st["v"] = ADAM_BETA2 * st["v"] + (1 - ADAM_BETA2) * g * g
            mhat = st["m"] / (1 - ADAM_BETA1 ** st["t"])
            vhat = st["v"] / (1 - ADAM_BETA2 ** st["t"])
            p.data = p.data - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + self.wd * p.data)


def cosine_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup then cosine annealing to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = min((step - warmup_steps) / span, 1.0)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))


@dataclass
class DatasetItem:
    entry: ManifestEntry
    speed: float  # 1.0 = original; other factors define new speaker labels


def build_items(entries: Sequence[ManifestEntry], use_speed: bool) -> tuple[list[DatasetItem], dict[str, int]]:
    """Expand the manifest with speed-perturbed replicas and map labels to ids.

    Original speakers take the low label indices so a later phase that drops
    the perturbed replicas can keep the same classifier.
    """
    items = [DatasetItem(e, 1.0) for e in entries]
    speakers = sorted({e.speaker_id for e in entries})
    if use_speed:
        for f in SPEED_FACTORS:
            items.extend(DatasetItem(e, f) for e in entries)
        speakers = expand_speed_labels(speakers)
    return items, {s: i for i, s in enumerate(speakers)}


def _batch_plan(cfg: RunConfig, n_items: int, epochs: range, order_stream: str, *extra,
                lengths: Optional[np.ndarray] = None):
    """The item keys `(epoch, index, *extra)` of each batch of `epochs`.

    Each epoch draws the `order_stream` permutation of its items and cuts it
    into batches of `cfg.batch_size`; one batch of an epoch may be short.
    Without `lengths`, the batches walk the permutation in turn, and the last
    one is the short one.  With `lengths` (one per item), the permutation is
    first stable-sorted by length, so the batches hold neighbouring lengths
    and the short one the longest items, and the epoch's rng then draws the
    order of the batches.  A batch thus holds the same items in every epoch,
    except where equal lengths straddle a cut; only the order of the batches
    is reshuffled each epoch.
    """
    for epoch in epochs:
        rng = rng_for(cfg.seed, order_stream, epoch)
        order = rng.permutation(n_items)
        starts = range(0, n_items, cfg.batch_size)
        if lengths is not None:
            order = order[np.argsort(lengths[order], kind="stable")]
            starts = rng.permutation(starts)
        for start in starts:
            yield [(epoch, int(idx), *extra) for idx in order[start:start + cfg.batch_size]]


def _speaker_item(manifest_path, items: Sequence[DatasetItem], labels: dict[str, int],
                  cfg: RunConfig):
    """Builder of one training crop from its key: log-mel (T, 80) and label id.

    An item is loaded, speed-perturbed, augmented, cropped and featurised with
    draws from its own `("item", epoch, index)` seed stream only, so it comes
    out the same whichever thread builds it and whatever was built before.
    Babble reads the fixed voice bank of `datapipe.babble_voice`, whose
    voices depend on their index alone, so that holds for babble too.
    """

    def build(key):
        epoch, idx, crop_seconds = key
        item = items[idx]
        utt = load_utterance(manifest_path, item.entry)
        if item.speed != 1.0:
            utt = speed_perturb(utt, item.speed)
        label = labels[utt.speaker_id]
        rng = rng_for(cfg.seed, "item", epoch, idx)
        if cfg.augment_prob > 0:
            utt = augment_onthefly(utt, cfg.augment_prob, rng)
        utt = crop(utt, crop_seconds, rng)
        return log_mel(utt.waveform), label

    return build


def _stack_speaker_batch(built: list[tuple[np.ndarray, int]]) -> tuple[ad.Tensor, np.ndarray]:
    feats, ys = zip(*built)
    return ad.tensor(np.stack(feats)), np.array(ys, dtype=np.int64)


def _write_loss_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    write_lines(path, lines)


def _train_epochs(cfg: RunConfig, params: list[tuple[str, Parameter]], opt: AdamW, n_items: int,
                  epochs: range, schedule: tuple[int, float, float], dropout_stream: str,
                  batches, loss_of, step: int = 0) -> tuple[list[list[float]], int]:
    """The training loop shared by every strategy.

    Each epoch takes its ceil(n_items / batch size) batches from the
    `batches` iterator, which the caller builds from a `_batch_plan` through
    `util.map_batches` and may share across calls, so that the next batch is
    built while this one trains.  `loss_of(batch, rng)` returns the loss
    tensor and the extra loss.csv columns, with `rng` keyed by
    `dropout_stream` and the step.  One backward and one AdamW step over the
    named `params` (the model's and its training-only heads') follow,
    at the `cosine_lr` of `schedule` = (epochs, warmup epochs, base lr); a
    schedule may span several calls, joined by `step`.  Returns one row per
    epoch (the epoch number, then the mean of the loss and of each extra
    column) and the step after the last.
    """
    steps_per_epoch = math.ceil(n_items / cfg.batch_size)
    schedule_epochs, warmup_epochs, base_lr = schedule
    total, warmup = steps_per_epoch * schedule_epochs, round(steps_per_epoch * warmup_epochs)
    rows = []
    for epoch in epochs:
        columns = []
        for batch in itertools.islice(batches, steps_per_epoch):
            loss, extra = loss_of(batch, rng_for(cfg.seed, dropout_stream, step))
            value = float(check_finite(loss.data, "training loss"))
            for _, p in params:
                p.grad = None
            ad.backward(loss)
            opt.step(params, cosine_lr(step, total, warmup, base_lr))
            columns.append([value, *extra])
            step += 1
        # means over 1-D lists, one per column, keep the summation order fixed
        rows.append([epoch] + [float(np.mean(column)) for column in zip(*columns)])
    return rows, step


def save_speaker_checkpoint(path, model: SpeakerModel, run_cfg: RunConfig) -> None:
    meta = {"kind": "speaker", "encoder": model.cfg.to_dict(), "seed": run_cfg.seed}
    ckpt.save_checkpoint(path, meta, model.state_arrays())


def save_asr_checkpoint(path, encoder: ConformerEncoder, decoder: CtcDecoder,
                        run_cfg: RunConfig) -> None:
    arrays = {**encoder.state_arrays("encoder."), **decoder.state_arrays("decoder.")}
    meta = {
        "kind": "asr",
        "encoder": encoder.cfg.to_dict(),
        "vocab": decoder.vocab,
        "seed": run_cfg.seed,
    }
    ckpt.save_checkpoint(path, meta, arrays)


def save_adaptation(path, module: SpeakerAdaptation) -> None:
    """Store only the add-on's arrays plus a hash binding them to its backbone."""
    meta = {
        "kind": "adaptation",
        "config": asdict(module.cfg),
        "backbone_hash": ckpt.content_hash(module.backbone.state_arrays()),
    }
    ckpt.save_checkpoint(path, meta, module.state_arrays())


def load_asr_model(path) -> tuple[ConformerEncoder, CtcDecoder]:
    """The stored encoder and decoder, frozen."""
    meta, arrays = ckpt.load_checkpoint(path)
    if meta.get("kind") != "asr":
        raise ConfigError(f"{path}: not an ASR checkpoint (kind {meta.get('kind')!r})")
    encoder = ConformerEncoder(ckpt.config_from_meta(EncoderConfig, meta, "encoder", path))
    vocab = ckpt.meta_value(meta, "vocab", int, path)
    if vocab < 1:
        raise CheckpointError(f"{path}: metadata 'vocab' must be >= 1, got {vocab}")
    decoder = CtcDecoder(encoder.cfg.dim, vocab)
    encoder.load_state_arrays(arrays, "encoder.")
    decoder.load_state_arrays(arrays, "decoder.")
    return encoder.set_trainable(False), decoder.set_trainable(False)


def load_embedder(path, backbone_ckpt=None) -> Union[SpeakerModel, SpeakerAdaptation]:
    """The frozen model a speaker or adaptation checkpoint holds, read once.

    An adaptation checkpoint is loaded on the encoder of `backbone_ckpt`, an
    ASR checkpoint whose arrays must hash to the one it was trained on.
    """
    meta, arrays = ckpt.load_checkpoint(path)
    kind = meta.get("kind")
    if kind == "speaker":
        model = SpeakerModel(ckpt.config_from_meta(EncoderConfig, meta, "encoder", path))
    elif kind == "adaptation":
        if backbone_ckpt is None:
            raise ConfigError(f"{path}: an adaptation checkpoint needs its backbone "
                              "ASR checkpoint (--teacher)")
        backbone, _ = load_asr_model(backbone_ckpt)
        backbone_hash = ckpt.content_hash(backbone.state_arrays())
        if ckpt.meta_value(meta, "backbone_hash", str, path) != backbone_hash:
            raise CheckpointError(f"{path}: backbone content hash mismatch")
        model = SpeakerAdaptation(
            backbone, ckpt.config_from_meta(AdaptationConfig, meta, "config", path))
    else:
        raise ConfigError(f"{path}: cannot embed with checkpoint kind {kind!r}")
    model.load_state_arrays(arrays)
    return model.set_trainable(False)


# -- ASR pretraining ----------------------------------------------------------------


def pretrain_asr(cfg: RunConfig, manifest_path, out_dir) -> Path:
    """CTC-train an encoder + linear decoder on the corpus token sequences."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(manifest_path)
    encoder = ConformerEncoder(cfg.encoder)
    decoder = CtcDecoder(cfg.encoder.dim, cfg.vocab)
    seed_parameters(encoder, cfg.seed, scope="asr_encoder")
    seed_parameters(decoder, cfg.seed, scope="asr_decoder")
    n = len(entries)

    root = Path(manifest_path).parent
    # each utterance's sample count, read once from its WAV header
    lengths = np.array([wav_length(root / e.path) for e in entries])

    def padded(keys):
        # the batch maximum, so each item can pad on its own
        longest = int(max(lengths[idx] for _, idx in keys))
        return [(epoch, idx, longest) for epoch, idx in keys]

    def asr_item(key):
        # log-mel of the utterance zero-padded to its batch's maximum
        _, idx, longest = key
        utt = load_utterance(manifest_path, entries[idx])
        return log_mel(np.pad(utt.waveform, (0, longest - utt.n_samples))), utt.token_id_seq()

    def ctc_loss_of(items, rng):
        feats, targets = zip(*items)
        logits = decoder(encoder(ad.tensor(np.stack(feats)), rng)[-1])
        return ctc_loss_batch(logits, targets), []

    plan = map(padded, _batch_plan(cfg, n, range(cfg.epochs), "asr_order", lengths=lengths))
    with map_batches(asr_item, plan) as built:
        rows, _ = _train_epochs(
            cfg, [*encoder.named_parameters("encoder."), *decoder.named_parameters("decoder.")],
            AdamW(cfg.weight_decay), n,
            range(cfg.epochs), (cfg.epochs, cfg.warmup_epochs, cfg.lr), "asr_dropout",
            built, ctc_loss_of,
        )
    _write_loss_csv(out_dir / "asr_loss.csv", ["epoch", "loss"], rows)
    path = out_dir / "asr.ckpt"
    save_asr_checkpoint(path, encoder, decoder, cfg)
    return path


# -- speaker training -----------------------------------------------------------------


def train_speaker(
    cfg: RunConfig,
    manifest_path,
    out_dir,
    init_ckpt: Optional[str] = None,
    teacher_ckpt: Optional[str] = None,
) -> Path:
    """Speaker-embedding training; the checkpoint passed picks the strategy.

    No checkpoint trains from scratch, `init_ckpt` (an ASR checkpoint) starts
    the encoder from it (pretrained-init), and `teacher_ckpt` distills from it.
    Passing both is a `ConfigError`.
    """
    if init_ckpt is not None and teacher_ckpt is not None:
        raise ConfigError("pass an init checkpoint or a teacher checkpoint, not both")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(manifest_path)
    items, labels = build_items(entries, cfg.speed_perturb)
    n_classes = len(labels)

    model = SpeakerModel(cfg.encoder)
    classifier = AamClassifier(n_classes)
    seed_parameters(model, cfg.seed, scope="speaker_model")
    seed_parameters(classifier, cfg.seed, scope="classifier")

    distilling = teacher_ckpt is not None
    teacher_encoder = teacher_decoder = None
    student_decoder = rate_match = None
    if distilling:
        teacher_encoder, teacher_decoder = load_asr_model(teacher_ckpt)
        if cfg.alpha > 0:
            student_decoder = CtcDecoder(cfg.encoder.dim, teacher_decoder.vocab)
            seed_parameters(student_decoder, cfg.seed, scope="student_decoder")
            if cfg.encoder.subsample_rate == 0.5 and teacher_encoder.cfg.subsample_rate == 0.25:
                rate_match = RateMatcher(cfg.encoder.dim)
                seed_parameters(rate_match, cfg.seed, scope="rate_match")
            elif cfg.encoder.subsample_rate != teacher_encoder.cfg.subsample_rate:
                raise ConfigError("unsupported student/teacher subsampling combination")

    frozen = 0  # epochs that train only the heads, with the encoder frozen
    if init_ckpt is not None:
        if cfg.frozen_epochs > cfg.epochs:
            raise ConfigError("frozen_epochs cannot exceed total epochs")
        frozen = cfg.frozen_epochs
        asr_encoder, _ = load_asr_model(init_ckpt)
        asr_cfg, n = asr_encoder.cfg, cfg.truncate_layers
        if n is not None:  # the subsampling and the first n blocks
            if not 1 <= n <= asr_cfg.layers:
                raise ConfigError(f"cannot keep {n} of {asr_cfg.layers} layers")
            asr_cfg = replace(asr_cfg, layers=n)
        if asr_cfg != cfg.encoder:
            raise ConfigError("run encoder config must match the checkpoint encoder")
        # the arrays of blocks past the run's depth are ignored
        model.encoder.load_state_arrays(asr_encoder.state_arrays())

    params = [*model.named_parameters("model."), *classifier.named_parameters("classifier.")]
    for prefix, head in (("student_decoder.", student_decoder), ("rate_match.", rate_match)):
        if head is not None:
            params += head.named_parameters(prefix)
    opt = AdamW(cfg.weight_decay)

    def speaker_loss(margin: float, with_kl: bool):
        # distill rows always carry (loss_spk, loss_distill); without a KL term
        # loss_distill is 0
        def loss_of(batch, rng):
            mel, ys = batch
            emb, maps = model(mel, rng, return_maps=True)
            l_spk = aam_softmax_loss(emb, ys, classifier, cfg.aam_scale, margin)
            if not with_kl:
                return l_spk, ([float(l_spk.data), 0.0] if distilling else [])
            frames = maps[-1] if rate_match is None else rate_match(maps[-1])
            # the loaded teacher is frozen and runs as inference: no dropout, no
            # statistics update, no graph
            teacher = teacher_decoder(teacher_encoder(mel, rng=None)[-1]).data
            l_kl = distill_kl_loss(student_decoder(frames), teacher)
            return combined_loss(l_spk, l_kl, cfg.alpha), [float(l_spk.data), float(l_kl.data)]

        return loss_of

    # One batch stream for the whole command, so the first batch of a range
    # of epochs is built while the last one of the previous range trains.  The
    # frozen epochs and the rest share the "order" stream and one cosine schedule;
    # LMFT is a long-crop, large-margin refinement of the whole model on the
    # original (unperturbed) items, which `build_items` puts first, with its
    # own streams and step count, and epoch numbers continue.
    plan = _batch_plan(cfg, len(items), range(cfg.epochs), "order", cfg.crop_seconds)
    lmft_epochs = range(cfg.epochs, cfg.epochs + cfg.lmft_epochs)
    if cfg.lmft:
        plan = itertools.chain(plan, _batch_plan(cfg, len(entries), lmft_epochs, "lmft_order",
                                                 cfg.lmft_crop_seconds))
    rows, step = [], 0
    with map_batches(_speaker_item(manifest_path, items, labels, cfg), plan) as built:
        batches = map(_stack_speaker_batch, built)
        for epochs, trainable in ((range(frozen), False), (range(frozen, cfg.epochs), True)):
            model.encoder.set_trainable(trainable)
            part_rows, step = _train_epochs(
                cfg, params, opt, len(items), epochs,
                (cfg.epochs, cfg.warmup_epochs, cfg.lr), "dropout", batches,
                speaker_loss(cfg.aam_margin, student_decoder is not None), step,
            )
            rows += part_rows
        if cfg.lmft:
            lmft_rows, _ = _train_epochs(
                cfg, params, opt, len(entries), lmft_epochs,
                (cfg.lmft_epochs, 0, cfg.lr * 0.1), "lmft_dropout", batches,
                speaker_loss(cfg.lmft_margin, False),
            )
            rows += lmft_rows

    header = ["epoch", "loss"] + (["loss_spk", "loss_distill"] if distilling else [])
    _write_loss_csv(out_dir / "loss.csv", header, rows)
    path = out_dir / "speaker.ckpt"
    save_speaker_checkpoint(path, model, cfg)
    return path


# -- adaptation training -----------------------------------------------------------


def train_adaptation(cfg: RunConfig, manifest_path, backbone_ckpt, out_dir) -> Path:
    """Train the adaptation add-on with the backbone frozen."""
    if cfg.adaptation is None:
        raise ConfigError("adaptation config required")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(manifest_path)
    items, labels = build_items(entries, cfg.speed_perturb)

    backbone, _ = load_asr_model(backbone_ckpt)
    module = SpeakerAdaptation(backbone, cfg.adaptation)
    classifier = AamClassifier(len(labels))
    seed_parameters(module, cfg.seed, scope="adaptation")
    seed_parameters(classifier, cfg.seed, scope="classifier")

    def aam_loss_of(batch, rng):
        mel, ys = batch
        return aam_softmax_loss(module(mel, rng), ys, classifier, cfg.aam_scale,
                                cfg.aam_margin), []

    plan = _batch_plan(cfg, len(items), range(cfg.epochs), "order", cfg.crop_seconds)
    with map_batches(_speaker_item(manifest_path, items, labels, cfg), plan) as built:
        rows, _ = _train_epochs(
            cfg, [*module.named_parameters("adaptation."),
                  *classifier.named_parameters("classifier.")],
            AdamW(cfg.weight_decay), len(items), range(cfg.epochs),
            (cfg.epochs, cfg.warmup_epochs, cfg.lr), "dropout",
            map(_stack_speaker_batch, built), aam_loss_of,
        )
    _write_loss_csv(out_dir / "loss.csv", ["epoch", "loss"], rows)
    path = out_dir / "adaptation.ckpt"
    save_adaptation(path, module)
    return path


# -- embeddings ---------------------------------------------------------------------


def extract_embeddings(embed_fn, manifest_path) -> dict[str, np.ndarray]:
    """Embed every manifest entry (full utterance, one inference forward each).

    An embedding that is not finite in float32 raises `NumericError`.
    """
    entries = read_manifest(manifest_path)

    def one(entry: ManifestEntry) -> np.ndarray:
        utt = load_utterance(manifest_path, entry)
        return embed_fn(log_mel(utt.waveform))

    vectors = parallel_map(one, entries)
    # checked after the cast: a finite float64 vector past 3.4e38 stores as inf
    return {e.path: check_finite(v.astype(np.float32), f"the embedding of {e.path}")
            for e, v in zip(entries, vectors)}


def quality_features(manifest_path, entries: Sequence[ManifestEntry],
                     store: dict[str, np.ndarray]) -> dict[str, tuple[float, float, float]]:
    """Per-utterance (duration, estimated SNR, embedding magnitude)."""

    def one(entry: ManifestEntry):
        utt = load_utterance(manifest_path, entry)
        emb = resolve_embedding(store, entry.path)
        return (utt.duration_sec, snr_estimate_db(utt.waveform), float(np.linalg.norm(emb)))

    feats = parallel_map(one, entries)
    return {e.path: f for e, f in zip(entries, feats)}
