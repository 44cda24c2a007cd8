"""Frozen-backbone adaptation: wiring, counts, freezing, probes."""

import numpy as np
import pytest

from confsv import adaptation
from confsv import autodiff as ad
from confsv.accounting import count_adaptation_params
from confsv.adaptation import (
    AdaptationConfig,
    LayerAdaptor,
    SpeakerAdaptation,
    linear_probe,
)
from confsv.conformer import ENCODER_PRESETS, ConformerBlock, ConformerEncoder, EncoderConfig
from confsv.errors import CheckpointError, ConfigError, DegenerateLabelsError, NumericError
from confsv.losses import AamClassifier, CtcDecoder, aam_softmax_loss
from confsv.nn import seed_parameters
from confsv.training import AdamW, load_embedder, save_adaptation, save_asr_checkpoint

from conftest import gradcheck, param_count, seeded, toy_run_config


def toy_backbone(layers=3, dim=32, seed=11):
    cfg = EncoderConfig(layers, dim, 4, 48, 0.25, conv_kernel=7, dropout=0.0)
    return seeded(ConformerEncoder(cfg), seed, "encoder")


def toy_adapt_cfg(**kw):
    base = dict(variant="V2", adapted_layers=2, extra_layers=0,
                light_dim=24, light_heads=4, light_hidden=32, light_kernel=7, dropout=0.0)
    base.update(kw)
    return AdaptationConfig(**base)


class TestLayerAdaptor:
    def test_projects_wide_backbone_to_128(self):
        adaptor = LayerAdaptor(512)
        seed_parameters(adaptor, 1)
        out = adaptor(ad.tensor(np.random.default_rng(2).normal(size=(512, 9)).T[None]))
        assert out.shape == (1, 9, 128)

    def test_zero_weights_zero_output(self):
        adaptor = LayerAdaptor(16)
        out = adaptor(ad.tensor(np.random.default_rng(3).normal(size=(16, 4)).T[None]))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4, 128)))

    def test_gradients(self, monkeypatch):
        monkeypatch.setattr(adaptation, "ADAPTOR_DIM", 5)
        adaptor = LayerAdaptor(6)
        seed_parameters(adaptor, 4)
        x = ad.tensor(np.random.default_rng(5).normal(size=(1, 3, 6)), requires_grad=True)
        params = [p for _, p in adaptor.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(adaptor(x))), [x] + params,
                  sample=6, rng=np.random.default_rng(0))


class TestBuildAdaptation:
    @pytest.mark.parametrize("variant,k", [("V1", 0), ("V1", 2), ("V2", 0), ("V2", 2), ("V3", 2)])
    def test_trainable_count_matches_accounting_exactly(self, variant, k):
        backbone = toy_backbone()
        cfg = toy_adapt_cfg(variant=variant, extra_layers=k)
        module = SpeakerAdaptation(backbone, cfg)
        expected = count_adaptation_params(cfg, backbone.cfg).total_params
        assert param_count(module) == expected

    def test_published_cell_small_v2_l12_k0(self):
        # trainable size of the 16-layer/176-dim backbone's V2 L=12 K=0 add-on
        backbone = ConformerEncoder(ENCODER_PRESETS["small"])
        cfg = AdaptationConfig("V2", 12, 0)
        module = SpeakerAdaptation(backbone, cfg)
        assert param_count(module) == count_adaptation_params(cfg, backbone.cfg).total_params
        assert abs(param_count(module) / 1e6 - 2.06) / 2.06 < 0.10

    def test_v1_k0_has_pooling_and_head_only(self):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(variant="V1")), 0, "adaptation")
        names = {n.split(".")[0] for n, _ in module.named_parameters()}
        assert names == {"light_in", "mfa", "pooling", "head"}  # d != light width quirk
        cfg_match = toy_adapt_cfg(variant="V1", light_dim=32)
        module2 = seeded(SpeakerAdaptation(toy_backbone(dim=32), cfg_match), 0, "adaptation")
        names2 = {n.split(".")[0] for n, _ in module2.named_parameters()}
        assert names2 == {"mfa", "pooling", "head"}

    def test_depth_exceeded(self):
        with pytest.raises(ConfigError):
            SpeakerAdaptation(toy_backbone(layers=2), toy_adapt_cfg(adapted_layers=5))

    def test_v3_requires_lightweight_layers(self):
        with pytest.raises(ConfigError):
            AdaptationConfig("V3", 2, 0)


class TestAdaptationForward:
    def test_backbone_outputs_bitwise_unchanged_by_attachment(self):
        backbone = toy_backbone()
        feats = np.random.default_rng(7).normal(size=(80, 20)).T
        before = [m.data[0].copy() for m in backbone(ad.tensor(feats[None]))]
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 8, "adaptation")
        module.embed_utterance(feats)
        after = [m.data[0] for m in backbone(ad.tensor(feats[None]))]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["V1", "V2", "V3"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_backbone_taps_run_only_the_tapped_blocks(self, variant, layers, monkeypatch):
        backbone = toy_backbone()
        cfg = toy_adapt_cfg(variant=variant, adapted_layers=layers,
                            extra_layers=1 if variant == "V3" else 0)
        module = seeded(SpeakerAdaptation(backbone, cfg), 17, "adaptation")
        mel = ad.tensor(np.random.default_rng(18).normal(size=(2, 24, 80)))
        full = backbone(mel)
        calls = []
        block_forward = ConformerBlock.forward
        monkeypatch.setattr(ConformerBlock, "forward",
                            lambda self, *a, **k: calls.append(1) or block_forward(self, *a, **k))
        taps = module.backbone_taps(mel)
        assert len(calls) == layers and len(taps) == layers
        for tap, ref in zip(taps, full[:layers]):
            assert np.array_equal(tap.data, ref.data)

    def test_mfa_width(self):
        backbone = toy_backbone()
        cfg = toy_adapt_cfg(variant="V3", adapted_layers=2, extra_layers=2)
        module = seeded(SpeakerAdaptation(backbone, cfg), 9, "adaptation")
        assert module.mfa.norm.gamma.shape == (128 * 2 + cfg.light_dim * 2,)

    def test_embedding_length(self):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg()), 10, "adaptation")
        emb = module.embed_utterance(np.random.default_rng(11).normal(size=(80, 16)).T)
        assert emb.shape == (256,)

    def test_no_gradient_reaches_backbone(self):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 12,
                        "adaptation")
        emb = module(ad.tensor(np.random.default_rng(13).normal(size=(2, 20, 80))),
                     np.random.default_rng(0))
        ad.backward(ad.sum_(emb * emb))
        assert all(p.grad is None for _, p in backbone.named_parameters())

    def test_frozen_training_never_mutates_backbone(self):
        backbone = toy_backbone()
        state_before = {n: a.copy() for n, a in backbone.state_arrays().items()}
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 14,
                        "adaptation")
        clf = AamClassifier(3)
        seed_parameters(clf, 15)
        params = [*module.named_parameters("adaptation."), *clf.named_parameters("classifier.")]
        opt = AdamW()
        rng = np.random.default_rng(16)
        for step in range(3):
            mel = ad.tensor(rng.normal(size=(3, 16, 80)))
            emb = module(mel, np.random.default_rng(step))
            loss = aam_softmax_loss(emb, [0, 1, 2], clf, 8.0, 0.1)
            for _, p in params:
                p.grad = None
            ad.backward(loss)
            opt.step(params, 1e-3)
        for name, arr in backbone.state_arrays().items():
            np.testing.assert_array_equal(arr, state_before[name])


class TestLinearProbe:
    def test_separable_features_reach_perfect_accuracy(self):
        labels = [0, 1, 2, 3] * 8
        maps = [np.tile(np.eye(4)[y][:, None], (1, 5)).T for y in labels]
        acc = linear_probe([maps], labels, seed=1)
        assert acc == [1.0]

    def test_matches_logistic_regression_oracle(self):
        rng = np.random.default_rng(21)
        n_spk, per, d, frames = 4, 32, 10, 6
        labels = np.repeat(np.arange(n_spk), per)
        means = rng.normal(scale=0.8, size=(n_spk, d))
        maps = [(means[y][:, None] + rng.normal(size=(d, frames))).T for y in labels]
        acc = linear_probe([maps], labels, seed=2)[0]

        # independent fit: plain multinomial logistic regression on pooled means
        x = np.stack([m.mean(axis=0) for m in maps])
        x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-8)
        onehot = np.eye(n_spk)[labels]
        w = np.zeros((d, n_spk))
        b = np.zeros(n_spk)
        for _ in range(2000):
            z = x @ w + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            g = (p - onehot) / len(labels)
            w -= 1.0 * (x.T @ g)
            b -= 1.0 * g.sum(axis=0)
        oracle = float(((x @ w + b).argmax(axis=1) == labels).mean())
        assert abs(acc - oracle) <= 0.02

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            linear_probe([[np.zeros((4, 3))]], [0])

    def test_diverging_descent_raises_instead_of_reporting_an_accuracy(self, monkeypatch):
        monkeypatch.setattr(adaptation, "PROBE_LR", 1e6)
        labels = [0, 1, 2, 3] * 2
        rng = np.random.default_rng(23)
        maps = [rng.normal(size=(10, 5)).T for _ in labels]
        with pytest.raises(NumericError, match="probe"):
            with np.errstate(over="ignore", invalid="ignore"):
                linear_probe([maps], labels, seed=1)


class TestAdaptationCheckpoint:
    def test_round_trip_and_hash_binding(self, tmp_path):
        backbone = toy_backbone()
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg(extra_layers=1)), 22,
                        "adaptation")
        path, backbone_path = tmp_path / "adapt.ckpt", tmp_path / "asr.ckpt"
        save_adaptation(path, module)
        save_asr_checkpoint(backbone_path, backbone, CtcDecoder(32, 6), toy_run_config())
        restored = load_embedder(path, backbone_path)
        for (n1, p1), (n2, p2) in zip(
            sorted(module.named_parameters()), sorted(restored.named_parameters())
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_wrong_backbone_rejected(self, tmp_path):
        backbone = toy_backbone(seed=23)
        module = seeded(SpeakerAdaptation(backbone, toy_adapt_cfg()), 24, "adaptation")
        path, other_path = tmp_path / "adapt.ckpt", tmp_path / "other.ckpt"
        save_adaptation(path, module)
        save_asr_checkpoint(other_path, toy_backbone(seed=99), CtcDecoder(32, 6),
                            toy_run_config())
        with pytest.raises(CheckpointError):
            load_embedder(path, other_path)
