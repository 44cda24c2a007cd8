"""Freezing and the optimizer: frozen parameters are constants to autodiff,
pretrained-init freezes the encoder over its first epochs, loaders return
frozen modules and reject incomplete metadata with a typed error, AdamW
never applies a non-finite gradient, and the batch plans cover every item
once per epoch, length-sorted for ASR pretraining."""

import math
import os

import numpy as np
import pytest

from confsv import autodiff as ad
from confsv import checkpoint as ckpt
from confsv import training
from confsv.adaptation import SpeakerAdaptation
from confsv.conformer import EncoderConfig
from confsv.datapipe import Corpus, frame_count, write_corpus
from confsv.errors import CheckpointError, ConfigError, NumericError
from confsv.heads import SpeakerModel
from confsv.losses import AamClassifier, CtcDecoder, aam_softmax_loss
from confsv.nn import Parameter, seed_parameters
from confsv.training import (
    AdamW,
    _write_loss_csv,
    load_asr_model,
    load_embedder,
    save_adaptation,
    save_asr_checkpoint,
    save_speaker_checkpoint,
    train_speaker,
)

from conftest import param_count, seeded, toy_run_config
from test_adaptation import toy_adapt_cfg, toy_backbone

ENCODER = EncoderConfig(1, 8, 2, 16, conv_kernel=5, dropout=0.1)


def frozen(module) -> bool:
    return all(not p.requires_grad for p in module.parameters())


def save_with_backbone(directory, module: SpeakerAdaptation):
    """(adaptation checkpoint, ASR checkpoint of its backbone) written to `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    path, backbone_path = directory / "adapt.ckpt", directory / "backbone.ckpt"
    save_adaptation(path, module)
    save_asr_checkpoint(backbone_path, module.backbone, CtcDecoder(module.backbone.cfg.dim, 6),
                        toy_run_config())
    return path, backbone_path


class TestFrozenParameters:
    def test_trainable_is_requires_grad(self):
        p = Parameter((2,))
        assert p.trainable and p.requires_grad
        p.trainable = False
        assert not p.requires_grad
        p.requires_grad = True
        assert p.trainable

    def test_unknown_init_recipe(self):
        with pytest.raises(ValueError, match="unknown init 'normal'"):
            Parameter((2,), init="normal").initialize(np.random.default_rng(0))

    def test_head_only_backward_skips_the_encoder(self):
        """A frozen encoder builds no graph and runs as inference, so the head's
        gradients are those of the head on the trainable encoder's inference maps."""
        model = seeded(SpeakerModel(ENCODER), 3, "speaker_model")
        clf = AamClassifier(2)
        seed_parameters(clf, 4)
        params = [*model.named_parameters("model."), *clf.named_parameters("classifier.")]
        mel = ad.tensor(np.random.default_rng(5).normal(size=(2, 16, 80)))
        encoder_ids = {id(p) for p in model.encoder.parameters()}

        def head_grads(encoder_trainable, embed):
            model.encoder.set_trainable(encoder_trainable)
            for _, p in params:
                p.grad = None
            loss = aam_softmax_loss(embed(np.random.default_rng(6)), [0, 1], clf, 8.0, 0.1)
            nodes = {id(node) for node in ad.topo_order(loss)}
            ad.backward(loss)
            grads = {n: p.grad for n, p in params if not n.startswith("model.encoder.")}
            return grads, nodes

        def head_on_inference_maps(rng):
            return model.head(model.pooling(model.mfa(model.encoder(mel, None))), rng)

        frozen_grads, frozen_nodes = head_grads(False, lambda rng: model(mel, rng))
        assert all(p.grad is None for p in model.encoder.parameters())
        assert not encoder_ids & frozen_nodes
        oracle_grads, oracle_nodes = head_grads(True, head_on_inference_maps)
        assert all(p.grad is not None for p in model.encoder.parameters())
        assert encoder_ids <= oracle_nodes
        assert frozen_grads.keys() == oracle_grads.keys()
        for name, grad in frozen_grads.items():
            assert grad.tobytes() == oracle_grads[name].tobytes(), name

    def test_frozen_encoder_stays_fixed(self):
        cfg = EncoderConfig(1, 8, 2, 16, conv_kernel=5, dropout=0.0)
        model = seeded(SpeakerModel(cfg), 19, "speaker_model")
        clf = AamClassifier(2)
        seed_parameters(clf, 20)
        params = [*model.named_parameters("model."), *clf.named_parameters("classifier.")]
        model.encoder.set_trainable(False)
        enc_before = {n: a.copy() for n, a in model.encoder.state_arrays().items()}
        opt = AdamW()
        for step in range(2):
            mel = ad.tensor(np.random.default_rng(step).normal(size=(2, 16, 80)))
            loss = aam_softmax_loss(model(mel, np.random.default_rng(step)), [0, 1], clf, 8.0, 0.1)
            for _, p in params:
                p.grad = None
            ad.backward(loss)
            opt.step(params, 1e-3)
        for name, p in model.encoder.named_parameters():
            np.testing.assert_array_equal(p.data, enc_before[name])
        model.encoder.set_trainable(True)
        mel = ad.tensor(np.random.default_rng(9).normal(size=(2, 16, 80)))
        loss = aam_softmax_loss(model(mel, np.random.default_rng(9)), [0, 1], clf, 8.0, 0.1)
        for _, p in params:
            p.grad = None
        ad.backward(loss)
        opt.step(params, 1e-3)
        changed = any(
            not np.array_equal(p.data, enc_before[n]) for n, p in model.encoder.named_parameters()
        )
        assert changed


@pytest.fixture(scope="module")
def tiny_init(tmp_path_factory):
    """A 2 x 3 corpus and a seeded (untrained) ASR checkpoint with the ENCODER."""
    root = tmp_path_factory.mktemp("tiny_init")
    manifest = write_corpus(Corpus(2, 3, seed=31), root / "data")
    encoder = seeded(SpeakerModel(ENCODER), 32, "speaker_model").encoder
    decoder = CtcDecoder(ENCODER.dim, 6)
    seed_parameters(decoder, 33)
    asr = root / "asr.ckpt"
    save_asr_checkpoint(asr, encoder, decoder, toy_run_config())
    return manifest, asr


class TestFrozenEpochs:
    """`train_speaker` freezes the encoder over `range(frozen_epochs)` when it
    starts from an ASR checkpoint, and over no epoch from scratch."""

    @staticmethod
    def ranges(tiny_init, tmp_path, monkeypatch, pretrained, epochs, frozen_epochs):
        """(epoch count, encoder trainable) of each non-empty `_train_epochs` call."""
        calls = []
        real = training._train_epochs

        def spy(cfg, params, opt, n_items, epoch_range, *rest):
            flags = {p.trainable for n, p in params if n.startswith("model.encoder.")}
            if len(epoch_range):
                calls.append((len(epoch_range), flags == {True}))
            return real(cfg, params, opt, n_items, epoch_range, *rest)

        monkeypatch.setattr(training, "_train_epochs", spy)
        manifest, asr = tiny_init
        cfg = toy_run_config(encoder=ENCODER, epochs=epochs, frozen_epochs=frozen_epochs,
                             batch_size=6, crop_seconds=0.5)
        train_speaker(cfg, manifest, tmp_path, init_ckpt=str(asr) if pretrained else None)
        return calls

    @pytest.mark.parametrize("pretrained, epochs, frozen_epochs, expected", [
        (True, 5, 2, [(2, False), (3, True)]),
        (True, 4, 0, [(4, True)]),
        (False, 4, 2, [(4, True)]),
    ])
    def test_frozen_then_trainable(self, tiny_init, tmp_path, monkeypatch, pretrained, epochs,
                                   frozen_epochs, expected):
        assert self.ranges(tiny_init, tmp_path, monkeypatch, pretrained, epochs,
                           frozen_epochs) == expected

    def test_the_checkpoint_passed_picks_the_strategy(self, tiny_init, tmp_path):
        """A teacher used to be ignored unless the config also named distillation."""
        manifest, asr = tiny_init
        cfg = toy_run_config(encoder=ENCODER, epochs=1, batch_size=6, crop_seconds=0.5)
        with pytest.raises(ConfigError, match="not both"):
            train_speaker(cfg, manifest, tmp_path / "both", init_ckpt=str(asr),
                          teacher_ckpt=str(asr))
        assert not (tmp_path / "both").exists()
        train_speaker(cfg, manifest, tmp_path / "kd", teacher_ckpt=str(asr))
        header = (tmp_path / "kd" / "loss.csv").read_text().splitlines()[0]
        assert header == "epoch,loss,loss_spk,loss_distill"

    @pytest.mark.parametrize("frozen_epochs", [-1, 5])
    def test_out_of_range_rejected(self, tiny_init, tmp_path, monkeypatch, frozen_epochs):
        with pytest.raises(ConfigError, match="frozen_epochs"):
            self.ranges(tiny_init, tmp_path, monkeypatch, True, 4, frozen_epochs)
        assert not (tmp_path / "speaker.ckpt").exists()


class TestTruncatedInit:
    """`truncate_layers` starts the run's encoder from the subsampling and the
    first blocks of the ASR encoder."""

    @pytest.mark.parametrize("layers", [0, 2])
    def test_out_of_range(self, tiny_init, tmp_path, layers):
        manifest, asr = tiny_init
        cfg = toy_run_config(encoder=ENCODER, epochs=2, batch_size=6, crop_seconds=0.5,
                             truncate_layers=layers)
        with pytest.raises(ConfigError, match=f"cannot keep {layers} of 1 layers"):
            train_speaker(cfg, manifest, tmp_path, init_ckpt=str(asr))
        assert not (tmp_path / "speaker.ckpt").exists()

    def test_full_depth_truncation_is_identity(self, tiny_init, tmp_path):
        manifest, asr = tiny_init
        paths = [
            train_speaker(toy_run_config(encoder=ENCODER, epochs=2, batch_size=6,
                                         crop_seconds=0.5, truncate_layers=layers),
                          manifest, tmp_path / str(layers), init_ckpt=str(asr))
            for layers in (None, 1)
        ]
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestLoadersReturnFrozenModules:
    def test_speaker_model(self, tmp_path):
        model = seeded(SpeakerModel(ENCODER), 7, "speaker_model")
        path = tmp_path / "speaker.ckpt"
        save_speaker_checkpoint(path, model, toy_run_config())
        loaded = load_embedder(path)
        assert frozen(loaded) and param_count(loaded, trainable_only=True) == 0
        feats = np.random.default_rng(8).normal(size=(80, 30)).T
        assert loaded.embed_utterance(feats).tobytes() == model.embed_utterance(feats).tobytes()

    def test_asr_model(self, tmp_path):
        encoder = seeded(SpeakerModel(ENCODER), 9, "speaker_model").encoder
        decoder = CtcDecoder(ENCODER.dim, 6)
        seed_parameters(decoder, 10)
        path = tmp_path / "asr.ckpt"
        save_asr_checkpoint(path, encoder, decoder, toy_run_config())
        loaded_encoder, loaded_decoder = load_asr_model(path)
        assert frozen(loaded_encoder) and frozen(loaded_decoder)

    def test_adaptation(self, tmp_path):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 12,
                        "adaptation")
        assert frozen(backbone)  # attaching an adaptation freezes its backbone
        assert not frozen(module)
        path, backbone_path = save_with_backbone(tmp_path, module)
        loaded = load_embedder(path, backbone_path)
        assert frozen(loaded) and frozen(loaded.backbone)
        feats = np.random.default_rng(13).normal(size=(80, 24)).T
        assert loaded.embed_utterance(feats).tobytes() == module.embed_utterance(feats).tobytes()


class TestLoadersRejectOtherKinds:
    """A checkpoint of another kind than the loader needs is a ConfigError that
    names its kind; an adaptation checkpoint loads only on its own backbone."""

    def test_speaker_model_from_an_asr_checkpoint(self, tmp_path):
        path = tmp_path / "asr.ckpt"
        save_asr_checkpoint(path, seeded(SpeakerModel(ENCODER), 9, "speaker_model").encoder,
                            CtcDecoder(ENCODER.dim, 6), toy_run_config())
        with pytest.raises(ConfigError, match=r"cannot embed with checkpoint kind 'asr'"):
            load_embedder(path)

    def test_adaptation_on_a_speaker_checkpoint_as_backbone(self, tmp_path):
        module = seeded(SpeakerAdaptation(toy_backbone(), toy_adapt_cfg()), 12, "adaptation")
        path, _ = save_with_backbone(tmp_path, module)
        speaker = tmp_path / "speaker.ckpt"
        save_speaker_checkpoint(speaker, seeded(SpeakerModel(ENCODER), 7, "speaker_model"),
                                toy_run_config())
        with pytest.raises(ConfigError, match=r"not an ASR checkpoint \(kind 'speaker'\)"):
            load_embedder(path, speaker)

    def test_adaptation_without_its_backbone(self, tmp_path):
        module = seeded(SpeakerAdaptation(toy_backbone(), toy_adapt_cfg()), 12, "adaptation")
        path, _ = save_with_backbone(tmp_path, module)
        with pytest.raises(ConfigError, match="needs its backbone"):
            load_embedder(path)

    def test_adaptation_on_another_backbone(self, tmp_path):
        module = seeded(SpeakerAdaptation(toy_backbone(seed=23), toy_adapt_cfg()), 24,
                        "adaptation")
        path, _ = save_with_backbone(tmp_path, module)
        other = seeded(SpeakerAdaptation(toy_backbone(seed=99), toy_adapt_cfg()), 24,
                       "adaptation")
        _, other_backbone = save_with_backbone(tmp_path / "other", other)
        with pytest.raises(CheckpointError, match="backbone content hash mismatch"):
            load_embedder(path, other_backbone)


def _rewrite_meta(path, edit):
    meta, arrays = ckpt.load_checkpoint(path)
    edit(meta)
    ckpt.save_checkpoint(path, meta, arrays)


def _set(key, value, inner=None):
    def edit(meta):
        (meta[inner] if inner else meta)[key] = value
    return edit


def _drop(key, inner=None):
    def edit(meta):
        del (meta[inner] if inner else meta)[key]
    return edit


ENCODER_META_EDITS = [
    _drop("encoder"),
    _set("encoder", "small"),
    _drop("layers", "encoder"),
    _set("layers", "1", "encoder"),
    _set("layers", 1.0, "encoder"),
    _set("dropout", True, "encoder"),
    _set("width", 8, "encoder"),
    _set("heads", 3, "encoder"),  # does not divide dim 8
]


class TestIncompleteMetadata:
    """A missing or ill-typed metadata key is a CheckpointError, not a KeyError."""

    @pytest.mark.parametrize("edit", ENCODER_META_EDITS)
    def test_speaker_model(self, tmp_path, edit):
        path = tmp_path / "speaker.ckpt"
        model = seeded(SpeakerModel(ENCODER), 7, "speaker_model")
        save_speaker_checkpoint(path, model, toy_run_config())
        _rewrite_meta(path, edit)
        with pytest.raises(CheckpointError):
            load_embedder(path)

    @pytest.mark.parametrize("edit", ENCODER_META_EDITS + [
        _drop("vocab"), _set("vocab", "6"), _set("vocab", True), _set("vocab", 0),
    ])
    def test_asr_model(self, tmp_path, edit):
        path = tmp_path / "asr.ckpt"
        save_asr_checkpoint(path, seeded(SpeakerModel(ENCODER), 9, "speaker_model").encoder,
                            CtcDecoder(ENCODER.dim, 6), toy_run_config())
        _rewrite_meta(path, edit)
        with pytest.raises(CheckpointError):
            load_asr_model(path)

    @pytest.mark.parametrize("edit", [
        _drop("backbone_hash"), _set("backbone_hash", 7), _drop("config"),
        _set("config", [1]), _drop("variant", "config"), _set("variant", "V9", "config"),
        _set("adapted_layers", "1", "config"), _set("dropout", None, "config"),
    ])
    def test_adaptation(self, tmp_path, edit):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 12,
                        "adaptation")
        path, backbone_path = save_with_backbone(tmp_path, module)
        _rewrite_meta(path, edit)
        with pytest.raises(CheckpointError):
            load_embedder(path, backbone_path)


def _plan(n, batch_size, epochs=3, *extra, lengths=None, seed=7, stream="asr_order"):
    cfg = toy_run_config(seed=seed, batch_size=batch_size)
    return list(training._batch_plan(cfg, n, range(epochs), stream, *extra, lengths=lengths))


def _padded_share(plan, lengths) -> float:
    """Padded mel frames over all mel frames, each batch padded to its longest."""
    padded = total = 0
    for keys in plan:
        frames = np.array([frame_count(lengths[idx]) for _, idx in keys])
        padded += int((frames.max() - frames).sum())
        total += frames.max() * frames.size
    return padded / total


class TestBatchPlan:
    @pytest.mark.parametrize("n, batch_size", [(24, 8), (23, 8), (7, 3), (5, 8), (1, 4)])
    @pytest.mark.parametrize("sorted_", [False, True])
    def test_each_epoch_yields_every_index_once_with_at_most_one_short_batch(
            self, n, batch_size, sorted_):
        lengths = np.random.default_rng(n).integers(16000, 58000, size=n) if sorted_ else None
        plan = _plan(n, batch_size, 3, lengths=lengths)
        assert len(plan) == 3 * math.ceil(n / batch_size)
        for epoch in range(3):
            batches = [keys for keys in plan if keys[0][0] == epoch]
            assert len(batches) == math.ceil(n / batch_size)
            assert all(e == epoch for keys in batches for e, _ in keys)
            assert sorted(idx for keys in batches for _, idx in keys) == list(range(n))
            assert sum(len(keys) < batch_size for keys in batches) <= (n % batch_size > 0)

    def test_sorted_batches_hold_neighbouring_lengths_and_the_short_one_the_longest(self):
        lengths = np.random.default_rng(3).permutation(23) * 1000 + 8000
        for epoch in range(3):
            batches = [keys for keys in _plan(23, 8, 3, lengths=lengths) if keys[0][0] == epoch]
            spans = sorted((min(lengths[i] for _, i in k), max(lengths[i] for _, i in k))
                           for k in batches)
            # distinct lengths: the batches tile the sorted lengths
            assert spans == [(8000, 15000), (16000, 23000), (24000, 30000)]
            assert len(next(k for k in batches if lengths[k[0][1]] >= 24000)) == 7

    def test_equal_lengths_keep_their_shuffled_order_and_the_epoch_rng_orders_the_batches(self):
        lengths = np.random.default_rng(5).choice([16000, 23000, 36000], size=40)
        expected = []
        for epoch in range(3):
            rng = training.rng_for(7, "asr_order", epoch)
            order = rng.permutation(40)
            by_length = [i for n in (16000, 23000, 36000) for i in order if lengths[i] == n]
            cut = [by_length[start:start + 6] for start in range(0, 40, 6)]
            expected += [[(epoch, int(idx)) for idx in cut[b]] for b in rng.permutation(7)]
        assert _plan(40, 6, 3, lengths=lengths) == expected

    def test_plan_is_the_same_across_calls_and_reorders_batches_between_epochs(self):
        lengths = np.random.default_rng(4).integers(16000, 58000, size=40)
        plan = _plan(40, 8, 6, lengths=lengths)
        assert plan == _plan(40, 8, 6, lengths=lengths)
        per_epoch = [[frozenset(i for _, i in k) for k in plan if k[0][0] == e] for e in range(6)]
        # distinct lengths: the same batches every epoch, in a new order
        assert all(sorted(map(sorted, b)) == sorted(map(sorted, per_epoch[0]))
                   for b in per_epoch)
        assert len({tuple(map(min, b)) for b in per_epoch}) > 1

    def test_sorting_cuts_the_padding_of_a_mixed_length_corpus(self):
        """Three corpora of 1, 2.3 and 3.6 s minimum duration, batches of 8.

        A single epoch of the permutation plan pads 17-29 % of the frames, so
        the share is taken over 50 epochs, where it settles near its mean.
        """
        for seed in (1, 2, 3):
            lengths = np.array([
                Corpus(4, 2, seed * 10 + g, min_duration=d).utterance(i).n_samples
                for g, d in enumerate((1.0, 2.3, 3.6)) for i in range(8)
            ])
            permuted = _padded_share(_plan(24, 8, 50, seed=seed), lengths)
            by_length = _padded_share(_plan(24, 8, 50, seed=seed, lengths=lengths), lengths)
            assert by_length <= 0.10 < 0.25 <= permuted, (seed, by_length, permuted)

    @pytest.mark.parametrize("stream, extra", [("order", (2.0,)), ("lmft_order", (6.0,))])
    def test_speaker_plans_walk_the_epoch_permutation(self, stream, extra):
        """Without lengths, the keys are those of the permutation cut in turn."""
        for n, batch_size in ((18, 5), (6, 5), (12, 12)):
            plan = _plan(n, batch_size, 3, *extra, seed=11, stream=stream)
            expected = [
                [(epoch, int(idx), *extra) for idx in order[start:start + batch_size]]
                for epoch in range(3)
                for order in [training.rng_for(11, stream, epoch).permutation(n)]
                for start in range(0, n, batch_size)
            ]
            assert plan == expected


class TestAdamW:
    def test_non_finite_gradient_changes_nothing(self):
        params = [Parameter((3,)), Parameter((2, 2)), Parameter((4,))]
        for i, p in enumerate(params):
            p.data = np.arange(p.size, dtype=np.float64).reshape(p.shape) + i
            p.grad = np.ones(p.shape)
        params[1].grad[0, 1] = np.nan
        named = [(f"p{i}", p) for i, p in enumerate(params)]
        before = [p.data.copy() for p in params]
        opt = AdamW()
        with pytest.raises(NumericError, match="p1"):
            opt.step(named, 1e-2)
        for p, data in zip(params, before):
            assert p.data.tobytes() == data.tobytes()
        assert opt.state == {}
        params[1].grad[0, 1] = np.inf
        with pytest.raises(NumericError):
            opt.step(named, 1e-2)


def test_failed_loss_csv_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "loss.csv"
    _write_loss_csv(path, ["epoch", "loss"], [[0, 1.5]])
    assert path.read_bytes() == b"epoch,loss\n0,1.5\n"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        _write_loss_csv(path, ["epoch", "loss"], [[0, 1.5], [1, 0.25]])
    assert path.read_bytes() == b"epoch,loss\n0,1.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loss.csv"]
