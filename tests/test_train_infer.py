"""One train/infer signal: a forward with `rng=None` is inference and reads the
model without changing it; a forward with an rng is a training step, whose
batch norms update their running statistics."""

import sys
import threading

import numpy as np
import pytest

from confsv import autodiff as ad
from confsv.adaptation import SpeakerAdaptation
from confsv.conformer import ConformerEncoder, EncoderConfig
from confsv.heads import SpeakerModel

from conftest import seeded
from test_adaptation import toy_adapt_cfg, toy_backbone

TOY = EncoderConfig(2, 32, 4, 64)


def snapshot(module) -> dict[str, bytes]:
    return {name: a.tobytes() for name, a in module.state_arrays().items()}


def encoder():
    return seeded(ConformerEncoder(TOY), 1, "encoder"), None


def speaker_model():
    return seeded(SpeakerModel(TOY), 2, "speaker_model"), None


def adaptation():
    backbone = toy_backbone()
    module = SpeakerAdaptation(backbone, toy_adapt_cfg(variant="V3", extra_layers=1))
    return seeded(module, 3, "adaptation"), backbone


BUILDERS = [encoder, speaker_model, adaptation]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_inference_leaves_every_array_unchanged(build):
    module, backbone = build()
    before = [snapshot(m) for m in (module, backbone) if m is not None]
    module(ad.tensor(np.random.default_rng(4).normal(size=(3, 24, 80))), rng=None)
    assert [snapshot(m) for m in (module, backbone) if m is not None] == before


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_training_step_updates_each_batch_norm(build):
    module, backbone = build()
    before = snapshot(module)
    backbone_before = None if backbone is None else snapshot(backbone)
    module(ad.tensor(np.random.default_rng(5).normal(size=(3, 24, 80))),
           np.random.default_rng(6))
    after = snapshot(module)
    stats = [n for n in before if n.endswith(("running_mean", "running_var"))]
    assert stats and all(after[n] != before[n] for n in stats)
    assert all(after[n] == before[n] for n in before if n not in stats)
    # the frozen backbone's taps are inference even inside a training step
    assert backbone_before is None or snapshot(backbone) == backbone_before


def test_a_frozen_encoder_runs_as_inference_in_a_training_step():
    """A frozen encoder used to draw dropout and move its batch-norm statistics
    in a training step; now only the head's batch norm updates."""
    model = seeded(SpeakerModel(TOY), 10, "speaker_model")
    model.encoder.set_trainable(False)
    mel = ad.tensor(np.random.default_rng(11).normal(size=(3, 24, 80)))
    inference = [m.data.tobytes() for m in model.encoder(mel)]
    before = snapshot(model)
    _, maps = model(mel, np.random.default_rng(12), return_maps=True)
    after = snapshot(model)
    assert [m.data.tobytes() for m in maps] == inference
    assert {n for n in before if after[n] != before[n]} == {
        "head.norm.running_mean", "head.norm.running_var"}


def test_threads_embed_bitwise_after_a_training_step():
    """Embedding used to flip the shared model to eval mode and back, so one
    thread could run (and update batch norm) in the other's restored training mode."""
    model = seeded(SpeakerModel(TOY), 7, "speaker_model")
    rng = np.random.default_rng(8)
    model(ad.tensor(rng.normal(size=(2, 40, 80))), np.random.default_rng(9))
    feats = [rng.normal(size=(80, 24 + 4 * i)).T for i in range(8)]
    before = snapshot(model)
    serial = [model.embed_utterance(f) for f in feats]
    results: dict[int, list[np.ndarray]] = {}

    def embed_all(worker):
        results[worker] = [model.embed_utterance(f) for _ in range(5) for f in feats]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=embed_all, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 2
    for embeddings in results.values():
        assert len(embeddings) == 5 * len(feats)
        for i, emb in enumerate(embeddings):
            assert emb.tobytes() == serial[i % len(feats)].tobytes()
    assert snapshot(model) == before
