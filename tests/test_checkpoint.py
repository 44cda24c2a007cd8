"""Checkpoint container: bit-exact round trips, validation, content hashing."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv.adaptation import AdaptationConfig, SpeakerAdaptation
from confsv.checkpoint import content_hash, load_checkpoint, save_checkpoint
from confsv.conformer import ConformerEncoder, EncoderConfig
from confsv.errors import CheckpointError, DimensionError
from confsv.heads import SpeakerModel
from confsv.losses import CtcDecoder
from confsv.training import save_adaptation, save_asr_checkpoint, save_speaker_checkpoint

from conftest import seeded, toy_run_config


def test_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=7),
        "scalar": np.array(3.5),
    }
    meta = {"kind": "test", "note": "hello", "n": 3}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, meta, arrays)
    meta2, arrays2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert arrays2[k].tobytes() == arrays[k].tobytes()
        assert arrays2[k].shape == arrays[k].shape


def test_model_state_round_trip(tmp_path):
    cfg = EncoderConfig(2, 16, 4, 32, conv_kernel=7)
    enc = seeded(ConformerEncoder(cfg), 5, "encoder")
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, {"kind": "asr", "encoder": cfg.to_dict()}, enc.state_arrays())
    _, arrays = load_checkpoint(path)
    fresh = ConformerEncoder(cfg)
    fresh.load_state_arrays(arrays)
    for (n1, p1), (n2, p2) in zip(sorted(enc.named_parameters()), sorted(fresh.named_parameters())):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, {}, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {}, {"x": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


SMALL_META = {"kind": "test", "n": 3}


def small_checkpoint(path):
    save_checkpoint(path, SMALL_META, {"w": np.arange(4.0).reshape(2, 2), "s": np.array(0.5)})
    return path.read_bytes()


def test_every_truncation_raises_checkpoint_error(tmp_path):
    data = small_checkpoint(tmp_path / "full.ckpt")
    cut = tmp_path / "cut.ckpt"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


@pytest.mark.parametrize("meta", [b"[1, 2]", b"{not json", b"\xff\xfe{}", b"1" * 5000],
                         ids=["list", "not-json", "not-utf8", "over-int-digit-limit"])
def test_malformed_metadata_raises_checkpoint_error(tmp_path, meta):
    data = small_checkpoint(tmp_path / "full.ckpt")
    meta_len = int.from_bytes(data[12:16], "little")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data[:12] + len(meta).to_bytes(4, "little") + meta + data[16 + meta_len:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_duplicate_array_name_raises_checkpoint_error(tmp_path):
    data = small_checkpoint(tmp_path / "full.ckpt")
    assert data.count(b"\x01\x00s") == 1  # the name entry of array "s"
    path = tmp_path / "dup.ckpt"
    path.write_bytes(data.replace(b"\x01\x00s", b"\x01\x00w"))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_empty_array_with_oversized_shape_raises_checkpoint_error(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"kind": "test"}, {"z": np.zeros((0, 1, 1))})
    data = path.read_bytes()
    shape = np.array([0, 1, 1], dtype="<u4").tobytes()
    assert data.count(shape) == 1
    huge = np.array([0, 2**32 - 1, 2**32 - 1], dtype="<u4").tobytes()  # 0 elements
    path.write_bytes(data.replace(shape, huge))
    with pytest.raises(CheckpointError, match="impossible shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_raises_checkpoint_error_naming_it(tmp_path, bad):
    path = tmp_path / "x.ckpt"
    w = np.ones((2, 3))
    w[1, 2] = bad
    save_checkpoint(path, {"kind": "test"}, {"ok": np.zeros(4), "head.proj.weight": w})
    with pytest.raises(CheckpointError, match="'head.proj.weight' holds non-finite"):
        load_checkpoint(path)


# magic, version, metadata length, metadata, array count and the first array's
# name, rank and shape: every byte before the first array's values
HEADER_LEN = 8 + 4 + 4 + len(json.dumps(SMALL_META, sort_keys=True)) + 4 + 2 + 1 + 1 + 8


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, HEADER_LEN - 1), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_corrupted_header_loads_or_raises_checkpoint_error(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("fuzz") / "x.ckpt"
    data = bytearray(small_checkpoint(path))
    for offset, value in edits:
        data[offset] = value
    path.write_bytes(bytes(data))
    try:
        meta, arrays = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(meta, dict)
    assert all(a.dtype == np.float64 for a in arrays.values())


def test_content_hash_tracks_values_not_metadata():
    a = {"w": np.arange(6.0).reshape(2, 3)}
    b = {"w": np.arange(6.0).reshape(2, 3)}
    assert content_hash(a) == content_hash(b)
    b["w"] = b["w"] + 1e-12
    assert content_hash(a) != content_hash(b)


def test_failed_save_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"kind": "old"}, {"w": np.zeros(3)})
    old = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"kind": "new"}, {"w": np.ones(3)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


# The array names of each checkpoint kind, in file order: every parameter in
# attribute-definition order, then every batch-norm running statistic.  A
# change to the module-tree walk that reorders them changes checkpoint bytes.
SUBSAMPLING = [
    "subsampling.convs.0.weight", "subsampling.convs.0.bias",
    "subsampling.convs.1.weight", "subsampling.convs.1.bias",
    "subsampling.proj.weight", "subsampling.proj.bias",
]
BLOCK = [
    "ffn1.norm.gamma", "ffn1.norm.beta", "ffn1.linear1.weight", "ffn1.linear1.bias",
    "ffn1.linear2.weight", "ffn1.linear2.bias",
    "attn.norm.gamma", "attn.norm.beta", "attn.q_proj.weight", "attn.q_proj.bias",
    "attn.k_proj.weight", "attn.k_proj.bias", "attn.v_proj.weight", "attn.v_proj.bias",
    "attn.out_proj.weight", "attn.out_proj.bias", "attn.pos_proj.weight",
    "attn.pos_bias_u", "attn.pos_bias_v",
    "conv.norm.gamma", "conv.norm.beta", "conv.pointwise1.weight", "conv.pointwise1.bias",
    "conv.depthwise.weight", "conv.depthwise.bias", "conv.batch_norm.gamma",
    "conv.batch_norm.beta", "conv.pointwise2.weight", "conv.pointwise2.bias",
    "ffn2.norm.gamma", "ffn2.norm.beta", "ffn2.linear1.weight", "ffn2.linear1.bias",
    "ffn2.linear2.weight", "ffn2.linear2.bias",
    "norm_out.gamma", "norm_out.beta",
]
BLOCK_STATS = ["conv.batch_norm.running_mean", "conv.batch_norm.running_var"]
HEADS = [
    "mfa.norm.gamma", "mfa.norm.beta", "pooling.score1.weight", "pooling.score1.bias",
    "pooling.score2.weight", "pooling.score2.bias", "head.norm.gamma", "head.norm.beta",
    "head.proj.weight", "head.proj.bias",
]
HEAD_STATS = ["head.norm.running_mean", "head.norm.running_var"]


def prefixed(prefix, names):
    return [prefix + name for name in names]


def test_checkpoint_array_order_is_parameters_then_batch_norm_statistics(tmp_path):
    cfg = EncoderConfig(1, 16, 4, 32, conv_kernel=7)
    run_cfg = toy_run_config()
    save_speaker_checkpoint(tmp_path / "speaker.ckpt", SpeakerModel(cfg), run_cfg)
    encoder = ConformerEncoder(cfg)
    save_asr_checkpoint(tmp_path / "asr.ckpt", encoder, CtcDecoder(16, 32), run_cfg)
    adaptation = SpeakerAdaptation(encoder, AdaptationConfig(
        "V3", 1, 1, light_dim=16, light_hidden=32, light_kernel=7))
    save_adaptation(tmp_path / "adaptation.ckpt", adaptation)

    expected = {
        "speaker": prefixed("encoder.", SUBSAMPLING + prefixed("blocks.0.", BLOCK)) + HEADS
        + prefixed("encoder.blocks.0.", BLOCK_STATS) + HEAD_STATS,
        "asr": prefixed("encoder.", SUBSAMPLING + prefixed("blocks.0.", BLOCK + BLOCK_STATS))
        + ["decoder.proj.weight", "decoder.proj.bias"],
        "adaptation": prefixed("adaptors.0.", [
            "lin1.weight", "lin1.bias", "norm.gamma", "norm.beta", "lin2.weight", "lin2.bias",
        ]) + ["light_in.weight", "light_in.bias"] + prefixed("light_blocks.0.", BLOCK) + HEADS
        + prefixed("light_blocks.0.", BLOCK_STATS) + HEAD_STATS,
    }
    for kind, names in expected.items():
        _, arrays = load_checkpoint(tmp_path / f"{kind}.ckpt")
        assert list(arrays) == names, kind


@pytest.mark.parametrize("name", ["blocks.0.conv.batch_norm.running_mean",
                                  "blocks.0.conv.batch_norm.gamma"])
@pytest.mark.parametrize("shape", [(1,), (3,), (16, 1)])
def test_loading_checks_the_shape_of_every_array(name, shape):
    """A batch-norm statistic of shape (1,) used to load and broadcast silently."""
    cfg = EncoderConfig(1, 16, 4, 32, conv_kernel=7)
    state = dict(seeded(ConformerEncoder(cfg), 5, "encoder").state_arrays())
    state[name] = np.ones(shape)
    with pytest.raises(DimensionError, match=re.escape(f"{name}: shape {shape} != (16,)")):
        ConformerEncoder(cfg).load_state_arrays(state)
