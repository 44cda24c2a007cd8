"""Encoder contracts: subsampling lengths, module shapes, gradients, determinism."""

import numpy as np
import pytest

from confsv import autodiff as ad
from confsv.conformer import (
    ENCODER_PRESETS,
    AttentionModule,
    ConformerBlock,
    ConformerEncoder,
    ConvolutionModule,
    ConvSubsampling,
    EncoderConfig,
    FeedForwardModule,
    sinusoid_positions,
)
from confsv.errors import ConfigError, DimensionError, InputTooShortError
from confsv.nn import seed_parameters

from conftest import conv1d_channels_first, gradcheck, seeded


def tiny_cfg(**kw):
    base = dict(layers=2, dim=8, heads=2, hidden=16, subsample_rate=0.25,
                conv_kernel=5, dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def rand_features(n_frames, seed=0, n_mels=80):
    return np.random.default_rng(seed).normal(size=(n_mels, n_frames)).T


def subsample(features, cfg, seed=0):
    sub = ConvSubsampling(cfg)
    seed_parameters(sub, seed, scope="subsampling")
    return sub(ad.tensor(features[None]))


class TestSubsampling:
    def test_quarter_rate_5s_input(self):
        # 5 s at a 10 ms shift is 500 frames; two stride-2 stages give 125
        enc = seeded(ConformerEncoder(tiny_cfg(dim=8)), 0, "encoder")
        fm = enc(ad.tensor(rand_features(500, 1)[None]))[0].data[0]
        assert fm.shape[0] == 125

    def test_half_rate_short_input(self):
        out = subsample(rand_features(4, 2), tiny_cfg(subsample_rate=0.5))
        assert out.shape[1] == 2

    @pytest.mark.parametrize("preset", sorted(ENCODER_PRESETS))
    def test_projects_to_model_dim(self, preset):
        cfg = ENCODER_PRESETS[preset]
        out = subsample(rand_features(16, 3), cfg)
        assert out.shape[-1] == cfg.dim

    def test_too_short_raises(self):
        with pytest.raises(InputTooShortError):
            subsample(rand_features(4, 4), tiny_cfg())


class TestFeedForward:
    def test_shape_preserved(self):
        ffn = FeedForwardModule(8, 16, 0.0)
        seed_parameters(ffn, 1)
        out = ffn(ad.tensor(np.random.default_rng(0).normal(size=(1, 5, 8))))
        assert out.shape == (1, 5, 8)

    def test_zero_weights_zero_output(self):
        ffn = FeedForwardModule(8, 16, 0.0)  # params default to zeros
        out = ffn(ad.tensor(np.random.default_rng(1).normal(size=(1, 4, 8))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4, 8)))

    def test_gradients(self):
        ffn = FeedForwardModule(8, 16, 0.0)
        seed_parameters(ffn, 2)
        x = ad.tensor(np.random.default_rng(3).normal(size=(1, 5, 8)), requires_grad=True)
        params = [p for _, p in ffn.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(ffn(x))), [x] + params, rtol=1e-4,
                  sample=6, rng=np.random.default_rng(0))


class TestAttention:
    def test_weight_rows_on_simplex(self):
        attn = AttentionModule(8, 2, 0.0)
        seed_parameters(attn, 4)
        # all-ones values and an identity output map: each output channel is
        # the row sum of its head's attention weights
        attn.v_proj.weight.data = np.zeros((8, 8))
        attn.v_proj.bias.data = np.ones(8)
        attn.out_proj.weight.data = np.eye(8)
        attn.out_proj.bias.data = np.zeros(8)
        x = ad.tensor(np.random.default_rng(5).normal(size=(2, 6, 8)))
        np.testing.assert_allclose(attn(x).data, np.ones((2, 6, 8)), atol=1e-9)

    def test_single_head_against_brute_force(self):
        attn = AttentionModule(2, 1, 0.0)
        seed_parameters(attn, 6)
        x = np.random.default_rng(7).normal(size=(1, 2, 2))
        out = attn(ad.tensor(x)).data[0]

        # independent recomputation with plain numpy
        def lin(weight, bias, v):
            return v @ weight.data + (bias.data if bias is not None else 0.0)

        h = x[0]
        mu, var = h.mean(axis=-1, keepdims=True), h.var(axis=-1, keepdims=True)
        hn = (h - mu) / np.sqrt(var + 1e-5)
        q = lin(attn.q_proj.weight, attn.q_proj.bias, hn)
        k = lin(attn.k_proj.weight, attn.k_proj.bias, hn)
        v = lin(attn.v_proj.weight, attn.v_proj.bias, hn)
        T, d = 2, 2
        from confsv.conformer import sinusoid_positions

        r = sinusoid_positions(T, d) @ attn.pos_proj.weight.data
        u = attn.pos_bias_u.data.reshape(d)
        vb = attn.pos_bias_v.data.reshape(d)
        scores = np.zeros((T, T))
        for i in range(T):
            for j in range(T):
                rel = r[i - j + T - 1]
                scores[i, j] = ((q[i] + u) @ k[j] + (q[i] + vb) @ rel) / np.sqrt(d)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        ctx = w @ v
        expected = lin(attn.out_proj.weight, attn.out_proj.bias, ctx)
        assert np.abs(out - expected).max() < 1e-10

    def test_shape_preserved(self):
        attn = AttentionModule(8, 2, 0.0)
        seed_parameters(attn, 8)
        out = attn(ad.tensor(np.random.default_rng(9).normal(size=(3, 7, 8))))
        assert out.shape == (3, 7, 8)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            AttentionModule(8, 3, 0.0)

    def test_permutation_equivariant_without_positions(self):
        attn = AttentionModule(8, 2, 0.0)
        seed_parameters(attn, 10)
        attn.pos_proj.weight.data[:] = 0.0
        attn.pos_bias_v.data[:] = 0.0
        x = np.random.default_rng(11).normal(size=(1, 6, 8))
        perm = np.random.default_rng(12).permutation(6)
        out = attn(ad.tensor(x)).data
        out_perm = attn(ad.tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-12)


def composed_attention(attn, x, rng=None):
    """The attention as a chain of autodiff ops, the oracle of `ad.rel_attention`.

    The (T, 2T-1) position scores fold to (T, T) with a `take_pairs` gather.
    """
    h = attn.norm(x)
    B, T, _ = h.shape
    q = attn._split(attn.q_proj(h), B, T)
    k = attn._split(attn.k_proj(h), B, T)
    v = attn._split(attn.v_proj(h), B, T)
    r = attn.pos_proj(ad.tensor(sinusoid_positions(T, attn.dim)))
    r = ad.transpose(ad.reshape(r, (2 * T - 1, attn.heads, attn.d_head)), (1, 0, 2))
    u = ad.reshape(attn.pos_bias_u, (1, attn.heads, 1, attn.d_head))
    vb = ad.reshape(attn.pos_bias_v, (1, attn.heads, 1, attn.d_head))
    content = ad.matmul(q + u, ad.transpose(k, (0, 1, 3, 2)))
    pos_full = ad.matmul(q + vb, ad.transpose(r, (0, 2, 1)))  # (B, H, T, 2T-1)
    rows = np.repeat(np.arange(T)[:, None], T, axis=1)
    cols = rows - rows.T + T - 1  # i - j + T - 1
    position = ad.take_pairs(pos_full, rows, cols)
    scores = (content + position) * ad.tensor(1.0 / np.sqrt(attn.d_head))
    weights = ad.dropout(ad.softmax(scores, axis=-1), attn.dropout, rng)
    ctx = ad.matmul(weights, v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, attn.dim))
    return ad.dropout(attn.out_proj(ctx), attn.dropout, rng)


class TestFusedAttention:
    """`AttentionModule` runs one `ad.rel_attention` node; the composition is its oracle."""

    @staticmethod
    def _run(forward, attn, x0, train):
        rng = np.random.default_rng(17)
        x = ad.tensor(x0, requires_grad=True)
        for _, p in attn.named_parameters():
            p.grad = None
        out = forward(attn, x, rng if train else None)
        weights = ad.tensor(np.random.default_rng(18).normal(size=out.shape))
        ad.backward(ad.sum_(out * weights))
        grads = {"x": x.grad}
        grads.update({n: p.grad for n, p in attn.named_parameters()})
        return out.data, grads, rng.bit_generator.state

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("B,T", [(8, 90), (3, 7), (1, 57), (2, 1)])
    def test_matches_the_composition(self, B, T, train):
        attn = AttentionModule(32, 4, 0.1)
        seed_parameters(attn, 19)
        rng = np.random.default_rng(20)
        for bias in (attn.pos_bias_u, attn.pos_bias_v):
            bias.data = rng.normal(size=bias.shape)
        x0 = rng.normal(size=(B, T, 32))
        out, grads, state = self._run(lambda a, x, r: a(x, r), attn, x0, train)
        ref_out, ref_grads, ref_state = self._run(composed_attention, attn, x0, train)
        np.testing.assert_array_equal(out, ref_out)
        # dropout draws keep their order, so every later draw is unchanged
        assert state == ref_state
        assert grads.keys() == ref_grads.keys()
        largest = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-14 * largest, name

    def test_skew_view_is_the_take_pairs_gather(self):
        T = 6
        a = np.random.default_rng(21).normal(size=(2, 3, T, 2 * T - 1))
        rows = np.repeat(np.arange(T)[:, None], T, axis=1)
        np.testing.assert_array_equal(ad._skew(a), a[..., rows, rows - rows.T + T - 1])

    def test_gradcheck_with_a_fixed_keep_mask(self):
        B, H, T, dh = 2, 2, 4, 3
        rng = np.random.default_rng(22)

        def leaf(*shape):
            return ad.tensor(rng.normal(size=shape), requires_grad=True)

        q, k, v = leaf(B, H, T, dh), leaf(B, H, T, dh), leaf(B, H, T, dh)
        r, u, vb = leaf(H, 2 * T - 1, dh), leaf(1, H, 1, dh), leaf(1, H, 1, dh)
        keep = ad.dropout_keep((B, H, T, T), 0.3, rng)
        assert keep is not None and (keep == 0).any()
        weights = ad.tensor(rng.normal(size=(B, H, T, dh)))
        gradcheck(lambda: ad.sum_(ad.rel_attention(q, k, v, r, u, vb, 0.6, keep) * weights),
                  [q, k, v, r, u, vb])

    def test_rejects_mismatched_positions(self):
        q = ad.tensor(np.zeros((1, 2, 5, 4)))
        with pytest.raises(DimensionError):
            ad.rel_attention(q, q, q, ad.tensor(np.zeros((2, 5, 4))), q, q, 0.5, None)

    def test_positions_are_computed_once_and_read_only(self):
        pos = sinusoid_positions(9, 8)
        assert sinusoid_positions(9, 8) is pos
        assert not pos.flags.writeable
        with pytest.raises(ValueError):
            pos[0, 0] = 1.0


def channels_first_conv_module(conv, x, rng=None):
    """The conv module as it ran channels-first, (B, d, T) around each conv.

    The oracle of `ConvolutionModule`, forward only: numpy convolutions with
    the products and sums of the channels-first op, the GLU over the channel
    axis, and the module's own layer norm, batch norm and dropout, the batch
    norm reading a (B, T, d) view of channels-first data as before.
    """
    def conv1d(h, layer):
        return conv1d_channels_first(h, layer.weight.data, layer.bias.data, layer.stride,
                                     layer.padding, layer.groups)

    h = conv1d(np.swapaxes(conv.norm(x).data, 1, 2), conv.pointwise1)
    d = h.shape[1] // 2
    h = conv1d(h[:, :d] * (1.0 / (1.0 + np.exp(-h[:, d:]))), conv.depthwise)
    h = ad.swish(conv.batch_norm(ad.tensor(np.swapaxes(h, 1, 2)), rng)).data
    h = conv1d(np.swapaxes(h, 1, 2), conv.pointwise2)
    return ad.dropout(ad.tensor(np.swapaxes(h, 1, 2)), conv.dropout, rng).data


class TestConvModule:
    def test_kernel31_same_padding(self):
        conv = ConvolutionModule(8, 31, 0.0)
        seed_parameters(conv, 13)
        out = conv(ad.tensor(np.random.default_rng(14).normal(size=(1, 40, 8))))
        assert out.shape == (1, 40, 8)

    def test_identity_batchnorm_reduces_to_conv_path(self):
        conv = ConvolutionModule(6, 5, 0.0)
        seed_parameters(conv, 15)
        # inference: stored stats are mean 0 / var 1, affine identity
        x = np.random.default_rng(16).normal(size=(1, 10, 6))
        out = conv(ad.tensor(x)).data

        h = ad.tensor(x)
        h = conv.norm(h)
        h = ad.glu(conv.pointwise1(h))
        h = ad.swish(conv.depthwise(h))
        h = conv.pointwise2(h)
        np.testing.assert_allclose(out, h.data, atol=1e-4)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("B,T", [(1, 40), (3, 17), (8, 90), (12, 50)])
    def test_matches_the_channels_first_reference(self, B, T, train):
        """Bitwise in inference; a training step reorders the batch-norm sums."""
        conv = ConvolutionModule(32, 15, 0.1)
        seed_parameters(conv, 23)
        rng = np.random.default_rng(24)
        bn = conv.batch_norm
        bn.gamma.data, bn.beta.data = rng.normal(size=32), rng.normal(size=32)
        bn.running_mean.data = rng.normal(size=32)
        bn.running_var.data = rng.uniform(0.5, 2.0, size=32)
        x = ad.tensor(rng.normal(size=(B, T, 32)))
        out = conv(x, np.random.default_rng(25) if train else None).data
        ref = channels_first_conv_module(conv, x, np.random.default_rng(25) if train else None)
        if train:
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        else:
            assert np.array_equal(out, ref)

    def test_gradients(self):
        conv = ConvolutionModule(6, 5, 0.0)
        seed_parameters(conv, 17)
        x = ad.tensor(np.random.default_rng(18).normal(size=(1, 12, 6)), requires_grad=True)
        params = [p for _, p in conv.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(conv(x, np.random.default_rng(0)))), [x] + params,
                  sample=5, rng=np.random.default_rng(1))

    def test_gradients_over_a_batch_with_dropout(self):
        """A training step at B > 1: batch statistics across items, one fixed dropout draw."""
        conv = ConvolutionModule(6, 5, 0.2)
        seed_parameters(conv, 26)
        x = ad.tensor(np.random.default_rng(27).normal(size=(3, 9, 6)), requires_grad=True)
        params = [p for _, p in conv.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(conv(x, np.random.default_rng(28)))), [x] + params,
                  sample=5, rng=np.random.default_rng(2))


class TestConformerBlock:
    def test_shape(self):
        block = ConformerBlock(tiny_cfg())
        seed_parameters(block, 19)
        out = block(ad.tensor(np.random.default_rng(20).normal(size=(1, 10, 8))))
        assert out.shape == (1, 10, 8)

    def test_deterministic_with_dropout_off(self):
        block = ConformerBlock(tiny_cfg(dropout=0.2))
        seed_parameters(block, 21)
        x = ad.tensor(np.random.default_rng(22).normal(size=(1, 6, 8)))
        a = block(x, rng=None).data
        b = block(x, rng=None).data
        np.testing.assert_array_equal(a, b)

    def test_gradients_through_block(self):
        block = ConformerBlock(tiny_cfg(dim=4, heads=2, hidden=8, conv_kernel=3))
        seed_parameters(block, 23)
        x = ad.tensor(np.random.default_rng(24).normal(size=(1, 6, 4)), requires_grad=True)
        params = [p for _, p in block.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(block(x, np.random.default_rng(0)))), [x] + params,
                  sample=4, rng=np.random.default_rng(2))


class TestEncoder:
    def test_full_small_stack_yields_16_maps(self):
        enc = seeded(ConformerEncoder(ENCODER_PRESETS["small"]), 1, "encoder")
        maps = enc(ad.tensor(rand_features(16, 25)[None]))
        assert len(maps) == 16
        assert all(m.data[0].shape[1] == 176 for m in maps)

    def test_single_block_composition(self):
        cfg = tiny_cfg(layers=1)
        enc = seeded(ConformerEncoder(cfg), 2, "encoder")
        x = ad.tensor(np.random.default_rng(26).normal(size=(1, 12, 80)))
        maps = enc(x)
        manual = enc.blocks[0](enc.subsampling(x))
        assert len(maps) == 1
        np.testing.assert_array_equal(maps[0].data, manual.data)

    def test_deterministic_across_runs(self):
        enc = seeded(ConformerEncoder(tiny_cfg()), 3, "encoder")
        feats = rand_features(20, 27)
        a = enc(ad.tensor(feats[None]))
        b = enc(ad.tensor(feats[None]))
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.data[0], mb.data[0])

    def test_blocks_shape_preserving(self):
        enc = seeded(ConformerEncoder(tiny_cfg()), 4, "encoder")
        outs = enc(ad.tensor(np.random.default_rng(28).normal(size=(2, 16, 80))))
        shapes = {tuple(m.shape) for m in outs}
        assert shapes == {(2, 4, 8)}  # 16 frames, two stride-2 stages

    def test_bad_feature_dim(self):
        enc = seeded(ConformerEncoder(tiny_cfg()), 5, "encoder")
        with pytest.raises(DimensionError):
            enc(ad.tensor(np.zeros((20, 40))[None]))


def test_two_block_encoder_gradients():
    """Full-stack check at d=8, heads=2, hidden=16, six output frames."""
    cfg = tiny_cfg(layers=2, dim=8, heads=2, hidden=16, conv_kernel=3)
    enc = seeded(ConformerEncoder(cfg), 31, "encoder")
    x = ad.tensor(np.random.default_rng(32).normal(size=(1, 24, 80)), requires_grad=True)
    params = [p for _, p in enc.named_parameters()]
    rng = np.random.default_rng(5)

    def loss():
        return ad.sum_(ad.tanh(enc(x, np.random.default_rng(0))[-1]))

    assert enc(x)[-1].shape[1] == 6
    gradcheck(loss, [x] + params, rtol=1e-4, sample=2, rng=rng)


class TestConfigValidation:
    def test_heads_divide_dim(self):
        with pytest.raises(ConfigError):
            EncoderConfig(2, 10, 3, 16)

    def test_kernel_must_be_odd(self):
        with pytest.raises(ConfigError):
            EncoderConfig(2, 8, 2, 16, conv_kernel=10)

    def test_rate_restricted(self):
        with pytest.raises(ConfigError):
            EncoderConfig(2, 8, 2, 16, subsample_rate=0.3)
