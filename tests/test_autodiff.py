"""Tensor op oracles and gradient checks."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv import autodiff as ad
from confsv import util
from confsv.errors import ContractError, DimensionError

from conftest import conv1d_channels_first, gradcheck


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=shape)


class TestMatmul:
    def test_identity(self):
        a = rand((3, 3), 1)
        out = ad.matmul(ad.tensor(np.eye(3)), ad.tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_against_triple_loop(self):
        a, b = rand((3, 4), 2), rand((4, 2), 3)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(ad.tensor(a), ad.tensor(b))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_zero_annihilates(self):
        a = rand((4, 4), 4)
        out = ad.matmul(ad.tensor(np.zeros((2, 4))), ad.tensor(a))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.tensor(rand((2, 3))), ad.tensor(rand((4, 2))))


class TestSoftmax:
    def test_uniform_input(self):
        out = ad.softmax(ad.tensor([2.5, 2.5, 2.5]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_analytic_pair(self):
        out = ad.softmax(ad.tensor([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_against_direct_formula(self):
        x = rand(7, 5)
        direct = np.exp(x) / np.exp(x).sum()
        out = ad.softmax(ad.tensor(x))
        assert np.abs(out.data - direct).max() < 1e-12

    def test_empty_axis_errors(self):
        with pytest.raises(DimensionError):
            ad.softmax(ad.tensor(np.zeros((3, 0))))

    def test_log_softmax_empty_axis_errors(self):
        with pytest.raises(DimensionError, match="log_softmax: empty axis"):
            ad.log_softmax(ad.tensor(np.zeros((3, 0))))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    def test_rows_sum_to_one(self, values):
        out = ad.softmax(ad.tensor(values))
        assert abs(out.data.sum() - 1.0) < 1e-9
        assert (out.data >= 0).all()


class TestLayerNorm:
    def test_constant_vector(self):
        x = ad.tensor(np.full(8, 3.7))
        out = ad.layer_norm(x, ad.tensor(np.ones(8)), ad.tensor(np.zeros(8)))
        assert np.abs(out.data).max() <= np.sqrt(1e-5) * 10

    def test_already_normalized(self, monkeypatch):
        monkeypatch.setattr(ad, "LAYER_NORM_EPS", 1e-12)
        x = ad.tensor([1.0, -1.0])
        out = ad.layer_norm(x, ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_against_direct_recomputation(self):
        x = rand(16, 6)
        gamma, beta = rand(16, 7), rand(16, 8)
        out = ad.layer_norm(ad.tensor(x), ad.tensor(gamma), ad.tensor(beta))
        mu, var = x.mean(), x.var()
        direct = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
        assert np.abs(out.data - direct).max() < 1e-10

    def test_empty_errors(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(ad.tensor(np.zeros((2, 0))), ad.tensor([]), ad.tensor([]))


class TestPythonOnlyChecks:
    """What only a Python caller reaches: the repr, and the shape checks that
    raise DimensionError where the op would give an empty or wrong result."""

    def test_tensor_repr(self):
        t = ad.tensor(np.zeros((2, 3)), requires_grad=True)
        assert repr(t) == "Tensor(shape=(2, 3), requires_grad=True)"

    def test_glu_of_an_odd_axis_errors(self):
        # a width of 1 would otherwise gate an empty half into an empty output
        with pytest.raises(DimensionError, match="glu: axis length 1 is odd"):
            ad.glu(ad.tensor(np.zeros((2, 1))))

    def test_conv2d_relu_channel_mismatch_errors(self):
        with pytest.raises(DimensionError, match="conv2d_relu: channel mismatch"):
            ad.conv2d_relu(ad.tensor(np.zeros((1, 6, 6, 2))), ad.tensor(np.zeros((4, 1, 3, 3))),
                           ad.tensor(np.zeros(4)), stride=2, padding=1)

    def test_conv2d_relu_input_smaller_than_the_kernel_errors(self):
        # the strided window view would otherwise read an empty output
        with pytest.raises(DimensionError, match="conv2d_relu: input too small for kernel"):
            ad.conv2d_relu(ad.tensor(np.zeros((1, 2, 6, 1))), ad.tensor(np.zeros((4, 1, 3, 3))),
                           ad.tensor(np.zeros(4)))


def depthwise(x, kernel, padding):
    """Depthwise conv1d of one (T, C) signal with a (C, K) kernel, as (T', C)."""
    out = ad.conv1d(ad.tensor(x[None]), ad.tensor(kernel[:, None, :]),
                    ad.tensor(np.zeros(x.shape[1])), padding=padding, groups=x.shape[1])
    return out.data[0]


class TestDepthwiseConv:
    def test_delta_kernel_identity(self):
        x = rand((3, 8), 9).T
        kernel = np.zeros((3, 5))
        kernel[:, 2] = 1.0
        np.testing.assert_allclose(depthwise(x, kernel, padding=2), x, atol=1e-15)

    def test_zero_kernel(self):
        x = rand((3, 8), 10).T
        out = depthwise(x, np.zeros((3, 5)), padding=2)
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_against_sliding_window_oracle(self):
        x, kernel = rand((3, 8), 11).T, rand((3, 5), 12)
        pad = 2
        xp = np.pad(x, ((pad, pad), (0, 0)))
        expected = np.zeros_like(x)
        for c in range(3):
            for t in range(8):
                expected[t, c] = (xp[t : t + 5, c] * kernel[c]).sum()
        out = depthwise(x, kernel, padding=pad)
        assert np.abs(out - expected).max() < 1e-12

    def test_kernel_too_long(self):
        with pytest.raises(DimensionError):
            depthwise(rand((3, 2)), rand((2, 9)), padding=1)


class TestBackward:
    def test_leaf_gradient_is_one(self):
        x = ad.tensor(2.0, requires_grad=True)
        ad.backward(x)
        assert x.grad == 1.0

    def test_constant_loss_leaves_no_gradient(self):
        x = ad.tensor(rand(4, 1), requires_grad=True)
        loss = ad.sum_(ad.tensor(rand(4, 2)))
        ad.backward(loss)
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.tensor(rand(3, 2), requires_grad=True))

    def test_composite_graph_finite_differences(self):
        rng = np.random.default_rng(5)
        a = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gamma = ad.tensor(np.ones(4), requires_grad=True)
        beta = ad.tensor(np.zeros(4), requires_grad=True)

        def loss():
            h = ad.swish(ad.matmul(a, b))
            return ad.sum_(ad.layer_norm(h, gamma, beta))

        gradcheck(loss, [a, b, gamma, beta], rtol=1e-4)

    def test_fanout_accumulates_once_per_node(self):
        x = ad.tensor(1.5, requires_grad=True)
        y = x * x + x * x  # same subexpression twice
        ad.backward(y)
        assert abs(x.grad - 6.0) < 1e-12

    def test_wrong_shaped_parent_gradient_rejected(self):
        """A (3, 2) gradient for a (2, 3) parent used to be reshaped into place,
        which would hide a transposed gradient from a faulty op."""
        x = ad.tensor(np.zeros((2, 3)), requires_grad=True)

        def transposed_grad(g):
            return (np.ones((3, 2)),)

        node = ad.Tensor(np.zeros(()), _parents=(x,), _grad_fn=transposed_grad)
        with pytest.raises(ContractError, match=r"transposed_grad .*\(3, 2\).*\(2, 3\)"):
            ad.backward(node)
        assert x.grad is None


@pytest.mark.parametrize("seed", range(20))
def test_per_op_gradients(seed):
    """Every differentiable op passes a finite-difference check, many seeds."""
    rng = np.random.default_rng(seed)
    x = ad.tensor(rng.normal(size=(2, 5)), requires_grad=True)
    y = ad.tensor(rng.normal(size=(2, 5)) + 3.0, requires_grad=True)

    cases = {
        "add": lambda: ad.sum_(x + y),
        "sub": lambda: ad.sum_(x - y),
        "mul": lambda: ad.sum_(x * y),
        "div": lambda: ad.sum_(x / y),
        "sqrt": lambda: ad.sum_(ad.sqrt(y)),
        "tanh": lambda: ad.sum_(ad.tanh(x)),
        "swish": lambda: ad.sum_(ad.swish(x)),
        "relu": lambda: ad.sum_(ad.relu(x) * y),
        "softmax": lambda: ad.sum_(ad.softmax(x, axis=-1) * y),
        "log_softmax": lambda: ad.sum_(ad.log_softmax(x, axis=-1) * y),
        "mean": lambda: ad.mean(x * y),
        "concat": lambda: ad.sum_(ad.concat([x, y], axis=1) * 0.5),
        "transpose": lambda: ad.sum_(ad.transpose(x) @ y),
        "glu": lambda: ad.sum_(ad.glu(ad.concat([x, y], axis=1))),
        "clip": lambda: ad.sum_(ad.clip(x, -0.5, 0.5) * y),
    }
    for name, build in cases.items():
        gradcheck(build, [x, y], rtol=1e-4)

    w = ad.tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
    xc = ad.tensor(rng.normal(size=(2, 7, 2)), requires_grad=True)
    b, bd = ad.tensor(np.zeros(3)), ad.tensor(np.zeros(2))
    gradcheck(lambda: ad.sum_(ad.tanh(ad.conv1d(xc, w, b, stride=2, padding=1))), [xc, w])
    wd = ad.tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)
    gradcheck(lambda: ad.sum_(ad.tanh(ad.conv1d(xc, wd, bd, padding=1, groups=2))), [xc, wd])
    w2 = ad.tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    x2 = ad.tensor(rng.normal(size=(1, 6, 5, 2)), requires_grad=True)
    b2 = ad.tensor(rng.normal(size=2), requires_grad=True)
    gradcheck(lambda: ad.sum_(ad.tanh(ad.conv2d_relu(x2, w2, b2, stride=2, padding=1))),
              [x2, w2, b2])
    rows = np.repeat(np.arange(3)[:, None], 3, axis=1)
    cols = rows - rows.T + 2
    pp = ad.tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    gradcheck(lambda: ad.sum_(ad.tanh(ad.take_pairs(pp, rows, cols))), [pp])


@pytest.mark.parametrize("shape", [(2, 6), (3, 5, 8)])
def test_glu_matches_the_composed_ops_bitwise(shape):
    """The fused op gives the bits of half * sigmoid(gate) from slices of its
    input, in the forward and in the chain-rule backward of those ops."""
    rng = np.random.default_rng(len(shape))
    a = rng.normal(scale=4.0, size=shape)
    h = shape[-1] // 2
    g = rng.normal(size=shape[:-1] + (h,))
    out = ad.glu(ad.tensor(a, requires_grad=True))
    half, gate = a[..., :h].copy(), a[..., h:].copy()
    s = 1.0 / (1.0 + np.exp(-gate))
    assert np.array_equal(out.data, half * s)
    # mul's backward, then sigmoid's, then each slice scattered into zeros and summed
    g_half, g_gate = g * s, (g * half) * s * (1.0 - s)
    into_half, into_gate = np.zeros_like(a), np.zeros_like(a)
    into_half[..., :h], into_gate[..., h:] = g_half, g_gate
    (gx,) = out._grad_fn(g)
    assert np.array_equal(gx, into_half + into_gate)


class TestDropout:
    def test_inference_is_identity(self):
        x = ad.tensor(rand((4, 6), 1))
        out = ad.dropout(x, 0.5, rng=None)
        assert out is x

    def test_deterministic_given_seed(self):
        x = ad.tensor(rand((50, 50), 2))
        a = ad.dropout(x, 0.3, np.random.default_rng(9)).data
        b = ad.dropout(x, 0.3, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)

    def test_inverted_scaling_preserves_mean(self):
        x = ad.tensor(np.ones((400, 400)))
        out = ad.dropout(x, 0.25, np.random.default_rng(3))
        assert abs(out.data.mean() - 1.0) < 0.01


def test_ops_deterministic():
    x = rand((6, 6), 8)
    r1 = ad.softmax(ad.tensor(x)) @ ad.tensor(x)
    r2 = ad.softmax(ad.tensor(x)) @ ad.tensor(x)
    np.testing.assert_array_equal(r1.data, r2.data)


def conv2d_channels_first(x, weight, bias, stride, padding):
    """The channels-first im2col convolution that preceded `conv2d_relu`:
    (B, C, H, W) -> (B, C_out, Ho, Wo), before the ReLU."""
    B, C, H, W = x.shape
    Cout, _, KH, KW = weight.shape
    Hout = ad.conv_out_len(H, KH, stride, padding)
    Wout = ad.conv_out_len(W, KW, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sB, sC, sH, sW = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(B, C, Hout, Wout, KH, KW),
        strides=(sB, sC, sH * stride, sW * stride, sH, sW),
        writeable=False,
    )
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B * Hout * Wout, C * KH * KW
    )
    out = (cols @ weight.reshape(Cout, C * KH * KW).T).reshape(B, Hout, Wout, Cout)
    out = out.transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out


def scatter_conv2d_input_grad(x, weight, g, stride, padding):
    """The channels-first strided col2im scatter; the bitwise reference for
    the input gradient.  x: (B, C, H, W), g: (B, C_out, Ho, Wo)."""
    B, C, H, W = x.shape
    Cout, _, KH, KW = weight.shape
    Hout, Wout = g.shape[2:]
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * Hout * Wout, Cout)
    gcols = (g2 @ weight.reshape(Cout, C * KH * KW)).reshape(B, Hout, Wout, C, KH, KW)
    gcols = gcols.transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
    for i in range(KH):
        for j in range(KW):
            gxp[:, :, i : i + stride * Hout : stride, j : j + stride * Wout : stride] += (
                gcols[:, :, :, :, i, j]
            )
    return gxp[:, :, padding : padding + H, padding : padding + W]


def scatter_depthwise_conv1d_input_grad(weight, g, stride, padding, T):
    """The (B, T_out, C, K) window gradient scattered tap by tap; the bitwise
    reference for the depthwise `conv1d` input gradient."""
    C, _, K = weight.shape
    B, Tout, _ = g.shape
    gwin = g[:, :, :, None] * weight.reshape(C, K)
    gxp = np.zeros((B, T + 2 * padding, C))
    for k in range(K):
        gxp[:, k : k + stride * Tout : stride] += gwin[:, :, :, k]
    return gxp[:, padding : padding + T]


def to_channels_first(a):
    return a.transpose(0, 3, 1, 2)


class TestConvInputGradient:
    @pytest.mark.parametrize("c_in, exact", [(1, True), (32, False)])
    def test_conv2d_relu_matches_channels_first_forward(self, c_in, exact):
        """Bitwise at C_in = 1, where the column orders coincide; the
        tap-major columns reorder the GEMM reduction at C_in = 32."""
        rng = np.random.default_rng(c_in)
        x = rng.normal(size=(3, 11, 9, c_in))
        w = rng.normal(size=(5, c_in, 3, 3))
        b = rng.normal(size=5)
        out = ad.conv2d_relu(ad.tensor(x), ad.tensor(w), ad.tensor(b), stride=2, padding=1)
        pre = conv2d_channels_first(to_channels_first(x), w, b, 2, 1)
        ref = np.maximum(pre, 0.0).transpose(0, 2, 3, 1)
        assert out.shape == (3, 6, 5, 5)
        if exact:
            assert np.array_equal(out.data, ref)
        else:
            assert np.abs(out.data - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("c_in", [1, 32])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    def test_conv2d_matches_scatter_bitwise(self, stride, padding, c_in, kernel):
        rng = np.random.default_rng(stride * 100 + padding * 10 + c_in + kernel[0])
        x = ad.tensor(rng.normal(size=(3, 11, 9, c_in)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(5, c_in) + kernel), requires_grad=True)
        out = ad.conv2d_relu(x, w, ad.tensor(np.zeros(5)), stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        gx = out._grad_fn(g)[0]
        g_masked = to_channels_first(g * (out.data > 0.0))
        ref = scatter_conv2d_input_grad(to_channels_first(x.data), w.data, g_masked, stride,
                                        padding)
        assert np.array_equal(gx, ref.transpose(0, 2, 3, 1))

    def test_conv2d_relu_mask_is_the_preactivation_sign(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 9, 8, 3))
        w = ad.tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = ad.tensor(rng.normal(size=4), requires_grad=True)
        out = ad.conv2d_relu(ad.tensor(x), w, b, stride=2, padding=1)
        pre = conv2d_channels_first(to_channels_first(x), w.data, b.data, 2, 1)
        mask = (pre > 0.0).transpose(0, 2, 3, 1)
        assert 0 < mask.sum() < mask.size
        assert np.array_equal(out.data > 0.0, mask)
        # with an all-ones output gradient the bias gradient counts the open units
        _, _, gb = out._grad_fn(np.ones(out.shape))
        assert np.array_equal(gb, mask.sum(axis=(0, 1, 2)).astype(np.float64))

    def test_conv2d_of_a_constant_input_skips_its_gradient(self):
        rng = np.random.default_rng(3)
        w = ad.tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)
        b = ad.tensor(np.zeros(4), requires_grad=True)
        out = ad.conv2d_relu(ad.tensor(rng.normal(size=(2, 7, 6, 1))), w, b, stride=2)
        gx, gw, gb = out._grad_fn(np.ones(out.shape))
        assert gx is None and gw.shape == w.shape and gb.shape == (4,)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 3])
    @pytest.mark.parametrize("kernel", [3, 7])
    def test_depthwise_conv1d_matches_scatter_bitwise(self, stride, padding, kernel):
        rng = np.random.default_rng(stride * 100 + padding * 10 + kernel)
        x = ad.tensor(rng.normal(size=(3, 20, 6)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(6, 1, kernel)), requires_grad=True)
        out = ad.conv1d(x, w, ad.tensor(np.zeros(6)), stride=stride, padding=padding, groups=6)
        g = rng.normal(size=out.shape)
        gx = out._grad_fn(g)[0]
        ref = scatter_depthwise_conv1d_input_grad(w.data, g, stride, padding, 20)
        assert np.array_equal(gx, ref)

    @pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1), (1, 7)])
    @pytest.mark.parametrize("c_in, groups, c_out, kernel", [
        (32, 1, 64, 1), (6, 1, 6, 3), (1, 1, 3, 3), (32, 32, 32, 15), (6, 6, 6, 31),
    ])
    def test_conv1d_matches_the_channels_first_forward_bitwise(self, stride, padding, c_in,
                                                               groups, c_out, kernel):
        """Dense and depthwise: each output forms the same products and sums
        as the channels-first convolution, whatever the layout."""
        rng = np.random.default_rng(c_in + kernel + stride * 10 + padding)
        x = rng.normal(size=(3, 40, c_in))
        w = rng.normal(size=(c_out, c_in // groups, kernel))
        b = rng.normal(size=c_out)
        out = ad.conv1d(ad.tensor(x), ad.tensor(w), ad.tensor(b), stride=stride,
                        padding=padding, groups=groups)
        ref = conv1d_channels_first(x.transpose(0, 2, 1), w, b, stride, padding, groups)
        assert np.array_equal(out.data, ref.transpose(0, 2, 1))

    @pytest.mark.parametrize("c_in, groups, c_out", [(2, 1, 4), (2, 2, 2)])
    def test_conv1d_of_a_constant_input_skips_its_gradient(self, c_in, groups, c_out):
        """Dense and depthwise: no input gradient, the same weight gradient."""
        rng = np.random.default_rng(4)
        w = ad.tensor(rng.normal(size=(c_out, c_in // groups, 3)), requires_grad=True)
        x = rng.normal(size=(2, 8, c_in))
        b = ad.tensor(np.zeros(c_out))
        out = ad.conv1d(ad.tensor(x), w, b, stride=2, padding=1, groups=groups)
        gx, gw, _ = out._grad_fn(np.ones(out.shape))
        assert gx is None
        x_t = ad.tensor(x, requires_grad=True)
        out_t = ad.conv1d(x_t, w, b, stride=2, padding=1, groups=groups)
        assert np.array_equal(out_t._grad_fn(np.ones(out.shape))[1], gw)

    @pytest.mark.parametrize("c_in, groups, c_out", [(4, 2, 4), (4, 4, 8)])
    def test_conv1d_rejects_a_grouping_neither_dense_nor_depthwise(self, c_in, groups, c_out):
        rng = np.random.default_rng(4)
        w = ad.tensor(rng.normal(size=(c_out, c_in // groups, 3)), requires_grad=True)
        with pytest.raises(DimensionError):
            ad.conv1d(ad.tensor(rng.normal(size=(2, 8, c_in))), w, ad.tensor(np.zeros(c_out)),
                      stride=2, padding=1, groups=groups)


# (B, H, W, C_in) of the two subsampling convs at each training workload's
# batch and crop: asr_ctc (3.6 s), train (2 s) and LMFT (6 s); then odd batches
# and the single item of `embed`.
SPLIT_SHAPES = [
    (8, 360, 80, 1), (8, 180, 40, 32), (12, 200, 80, 1), (12, 100, 40, 32),
    (12, 600, 80, 1), (12, 300, 40, 32), (3, 200, 80, 1), (3, 100, 40, 32),
    (5, 200, 80, 1), (5, 100, 40, 32), (1, 200, 80, 1), (1, 100, 40, 32),
]


class TestConv2dSplit:
    """`conv2d_relu` forks its items onto the batch stream's lane without changing a bit."""

    @pytest.mark.parametrize("shape", SPLIT_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_lane_split_equals_serial(self, monkeypatch, shape):
        rng = np.random.default_rng(sum(shape))
        B, H, W, C = shape
        x, w, b = rng.normal(size=shape), rng.normal(size=(32, C, 3, 3)), rng.normal(size=32)
        Ho, Wo = ad.conv_out_len(H, 3, 2, 1), ad.conv_out_len(W, 3, 2, 1)
        # the gradient arrives as a transposed view, as from the subsampling's reshape
        g = rng.normal(size=(B, Ho, 32, Wo)).transpose(0, 1, 3, 2)

        def run():
            out = ad.conv2d_relu(ad.tensor(x, requires_grad=True), ad.tensor(w, requires_grad=True),
                                 ad.tensor(b, requires_grad=True), stride=2, padding=1)
            return (out.data,) + out._grad_fn(g)

        serial = run()
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("CONFSV_THREADS", "2")
        lanes = []

        def lane_taking_fork_join(a, b, fork_join=util.fork_join):
            """Holds `a` until the lane has taken `b`, so `b` never runs inline."""
            taken = threading.Event()

            def on_lane():
                lanes.append(threading.current_thread())
                taken.set()
                return b()

            def here():
                assert taken.wait(timeout=10)
                return a()

            return fork_join(here, on_lane)

        monkeypatch.setattr(ad, "fork_join", lane_taking_fork_join)
        with util.map_batches(lambda item: item, [[0]]):
            split = run()
        # the forward forks once and the backward twice; a single item never forks
        assert len(lanes) == (0 if B == 1 else 3)
        assert threading.current_thread() not in lanes
        assert [a.shape for a in split] == [a.shape for a in serial]
        for s, p in zip(serial, split):
            assert np.array_equal(s, p)

    def test_forks_under_frequent_thread_switches_equal_serial(self, monkeypatch):
        """Lane and inline forks interleaved at a 10 us switch interval change no bit."""
        rng = np.random.default_rng(11)
        x, w, b = rng.normal(size=(4, 20, 16, 3)), rng.normal(size=(8, 3, 3, 3)), rng.normal(size=8)
        g = rng.normal(size=(4, 10, 8, 8))

        def run():
            out = ad.conv2d_relu(ad.tensor(x, requires_grad=True), ad.tensor(w, requires_grad=True),
                                 ad.tensor(b, requires_grad=True), stride=2, padding=1)
            return (out.data,) + out._grad_fn(g)

        serial = run()
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("CONFSV_THREADS", "3")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with util.map_batches(lambda item: item, [[0]]):
                for _ in range(200):
                    for s, p in zip(serial, run()):
                        assert np.array_equal(s, p)
        finally:
            sys.setswitchinterval(interval)
