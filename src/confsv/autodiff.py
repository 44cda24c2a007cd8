"""Dense float64 tensors with reverse-mode differentiation.

The computation graph doubles as the tape: every op records its parents and a
closure that maps the output gradient to parent gradients.  `backward` walks
the graph once in reverse topological order, so each node contributes exactly
one gradient pass regardless of fan-out.

Everything runs in float64.  The op set is exactly what the Conformer stack
and its losses need: elementwise add/sub/mul/div, sqrt, tanh, clip, matmul,
channels-last 1-D convolution (dense/depthwise), a fused channels-last 2-D
convolution + bias + ReLU, relative-position attention from the projected
heads to the context, softmax and log-softmax, layer norm, Swish/ReLU/GLU,
dropout, sum/mean, the shape ops (reshape, transpose, concat), and the pair
indexing used by the AAM-softmax loss.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ContractError, DimensionError
from .util import fork_join

ArrayLike = Union[np.ndarray, float, int, Sequence]

LAYER_NORM_EPS = 1e-5


def _as_f64(data: ArrayLike) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A node in the computation graph.

    `data` is a float64 ndarray.  Leaves created with `requires_grad=True`
    accumulate into `grad` during `backward`; interior nodes are transient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _grad_fn: Optional[Callable[[np.ndarray], tuple]] = None,
    ):
        self.data = _as_f64(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._grad_fn = _grad_fn

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    def _needs_graph(self) -> bool:
        return self.requires_grad or self._grad_fn is not None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    if any(p._needs_graph() for p in parents):
        return Tensor(data, _parents=parents, _grad_fn=grad_fn)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), grad_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(out, (a, b), grad_fn)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def grad_fn(g):
        return (g * 0.5 / out,)

    return _make(out, (a,), grad_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def grad_fn(g):
        return (g * (a.data > 0.0),)

    return _make(out, (a,), grad_fn)


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * s

    def grad_fn(g):
        return (g * (s + a.data * s * (1.0 - s)),)

    return _make(out, (a,), grad_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through inside [lo, hi], zero outside."""
    out = np.clip(a.data, lo, hi)

    def grad_fn(g):
        inside = (a.data >= lo) & (a.data <= hi)
        return (g * inside,)

    return _make(out, (a,), grad_fn)


# -- reductions ----------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), grad_fn)


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return mul(sum_(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count))


# -- shape ops -----------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), grad_fn)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = a.data.transpose(axes)

    def grad_fn(g):
        if axes is None:
            return (g.transpose(),)
        inv = np.argsort(axes)
        return (g.transpose(inv),)

    return _make(out, (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), grad_fn)


def take_pairs(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather over the last two axes: out[..., i, j] = a[..., rows[i,j], cols[i,j]].

    Used by the AAM-softmax loss to pick each row's target logit.  The
    (rows, cols) pairs must be distinct, which lets the backward pass scatter
    with plain fancy indexing.
    """
    out = a.data[..., rows, cols]

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[..., rows, cols] = g
        return (ga,)

    return _make(out, (a,), grad_fn)


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    out = a.data @ b.data

    def grad_fn(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out, (a, b), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`; rows land on the simplex."""
    if a.ndim == 0 or a.shape[axis % a.ndim] == 0:
        raise DimensionError("softmax: empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), grad_fn)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax of a plain array along `axis`, shifted by the maximum."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.shape[axis % a.ndim] == 0:
        raise DimensionError("log_softmax: empty axis")
    out = log_softmax_array(a.data, axis)

    def grad_fn(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), grad_fn)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = a.shape[-1] if a.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm: empty feature axis")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def grad_fn(g):
        gxhat = g * gamma.data
        gvar = (gxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        gmu = -(gxhat.sum(axis=-1, keepdims=True)) * inv + gvar * (-2.0 / d) * xc.sum(
            axis=-1, keepdims=True
        )
        ga = gxhat * inv + gvar * (2.0 / d) * xc + gmu / d
        reduce_axes = tuple(range(a.ndim - 1))
        ggamma = (g * xhat).sum(axis=reduce_axes) if reduce_axes else g * xhat
        gbeta = g.sum(axis=reduce_axes) if reduce_axes else g
        return ga, np.asarray(ggamma), np.asarray(gbeta)

    return _make(out, (a, gamma, beta), grad_fn)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit: split the last axis in half, gate the first half with the second."""
    n = a.shape[-1]
    if n % 2 != 0:
        raise DimensionError(f"glu: axis length {n} is odd")
    half, gate = a.data[..., : n // 2], a.data[..., n // 2 :]
    s = 1.0 / (1.0 + np.exp(-gate))
    out = half * s

    def grad_fn(g):
        return (np.concatenate([g * s, g * half * s * (1.0 - s)], axis=-1),)

    return _make(out, (a,), grad_fn)


def dropout_keep(shape: tuple[int, ...], p: float,
                 rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """The inverted-dropout multiplier: 0 where dropped, 1 / (1 - p) where kept.

    None when rng is None (inference) or p == 0.  It takes one `rng.random`
    draw of `shape`.
    """
    if rng is None or p <= 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(a: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity when rng is None (inference) or p == 0."""
    keep = dropout_keep(a.shape, p, rng)
    if keep is None:
        return a

    def grad_fn(g):
        return (g * keep,)

    return _make(a.data * keep, (a,), grad_fn)


# -- attention -----------------------------------------------------------------


def _skew(a: np.ndarray) -> np.ndarray:
    """The (..., T, T) view of (..., T, 2T-1) with out[..., i, j] = a[..., i, i - j + T - 1].

    Row i of the view starts at column T-1+i and walks back one column per j:
    the relative shift of Transformer-XL as a strided view, no copy.
    """
    T = a.shape[-2]
    rs, cs = a.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        a[..., T - 1:], shape=a.shape[:-1] + (T,), strides=a.strides[:-2] + (rs + cs, -cs)
    )


def rel_attention(q: Tensor, k: Tensor, v: Tensor, r: Tensor, u: Tensor, v_bias: Tensor,
                  scale: float, keep: Optional[np.ndarray]) -> Tensor:
    """Relative-position attention context, (B, H, T, d_head).

    q, k, v: (B, H, T, d_head) heads; r: (H, 2T-1, d_head) projected positions
    for distances T-1 ... -(T-1); u, v_bias broadcast against q.  The scores
    are ((q + u) k^T + skew((q + v_bias) r^T)) * scale, where skew folds the
    (T, 2T-1) position scores to (T, T) by relative distance i - j.  A stable
    softmax over keys gives the weights, `keep` (a `dropout_keep` multiplier,
    or None) drops some, and the context is weights @ v.  The backward is
    analytic: softmax, dropout, the three matmuls, and the skew scatter as
    one strided assignment into a zeroed (B, H, T, 2T-1) buffer.
    """
    T, d_head = q.shape[-2:]
    # the skew view reads (T, 2T-1) position scores without a bounds check
    if k.shape != q.shape or v.shape != q.shape or r.shape[-2:] != (2 * T - 1, d_head):
        raise DimensionError(
            f"rel_attention: q {q.shape}, k {k.shape}, v {v.shape}, r {r.shape} do not match"
        )
    qu = q.data + u.data
    qv = q.data + v_bias.data
    scores = qu @ np.swapaxes(k.data, -1, -2)
    scores += _skew(qv @ np.swapaxes(r.data, -1, -2))  # position scores (B, H, T, 2T-1)
    scores *= scale
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    dropped = weights if keep is None else weights * keep
    out = dropped @ v.data

    def grad_fn(g):
        gv = np.swapaxes(dropped, -1, -2) @ g
        gw = g @ np.swapaxes(v.data, -1, -2)
        if keep is not None:
            gw *= keep
        # softmax backward, in place: weights * (gw - sum(gw * weights)), then the scale
        gw -= (gw * weights).sum(axis=-1, keepdims=True)
        gs = np.multiply(weights, gw, out=gw)
        gs *= scale
        gpos = np.zeros(gs.shape[:-1] + (2 * T - 1,))
        _skew(gpos)[...] = gs
        # the products and sums that `matmul`'s and `add`'s backward would form,
        # so the gradients have the same bits as the composition of those ops
        gqu = gs @ k.data
        gk = np.swapaxes(np.swapaxes(qu, -1, -2) @ gs, -1, -2)
        gqv = gpos @ r.data
        grT = _unbroadcast(np.swapaxes(qv, -1, -2) @ gpos, r.shape[:-2] + (d_head, 2 * T - 1))
        gr = np.swapaxes(grT, -1, -2)
        return (gqu + gqv, gk, gv, gr, _unbroadcast(gqu, u.shape), _unbroadcast(gqv, v_bias.shape))

    return _make(out, (q, k, v, r, u, v_bias), grad_fn)


# -- convolutions --------------------------------------------------------------


def conv_out_len(n: int, kernel: int, stride: int, padding: int) -> int:
    """Length convention used everywhere: floor((n + 2p - k) / s) + 1."""
    return (n + 2 * padding - kernel) // stride + 1


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """1-D convolution, channels-last: (B, T, C) -> (B, T_out, C_out), dense or depthwise.

    weight: (C_out, C_in // groups, K).  The windows are a strided
    (B, T_out, C, K) view of the padded input, kernel axis last.  Dense
    (groups = 1) convolutions run as one im2col matmul; depthwise ones
    (groups = C_in = C_out) run as a multiply-sum over the kernel axis.  Any
    other grouping raises.
    """
    B, T, C = x.shape
    Cout, Cg, K = weight.shape
    depthwise = groups == C and Cout == C and Cg == 1
    if not depthwise and (groups != 1 or Cg != C):
        raise DimensionError(
            f"conv1d: weight {weight.shape} with groups={groups} over {C} channels is "
            "neither dense nor depthwise"
        )
    Tout = conv_out_len(T, K, stride, padding)
    if Tout < 1:
        raise DimensionError(f"conv1d: kernel {K} too long for T={T}, padding={padding}")
    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, K, axis=1)[:, ::stride]  # (B, Tout, C, K)

    if depthwise:
        # kernel axis innermost, so each output sums its K products in one run
        out = np.multiply(win, weight.data.reshape(C, K), order="C").sum(axis=-1)
    else:
        cols = np.ascontiguousarray(win).reshape(B * Tout, C * K)
        out = (cols @ weight.data.reshape(Cout, C * K).T).reshape(B, Tout, Cout)
    out = out + bias.data

    def _scatter_1d(taps: Iterator[np.ndarray]) -> np.ndarray:
        # tap k: the gradient reaching every window's k-th input; taps add in k order from zero
        gxp = np.zeros_like(xp)
        for k, tap in enumerate(taps):
            gxp[:, k : k + stride * Tout : stride] += tap
        return gxp[:, padding : padding + T]

    def grad_fn(g):
        if depthwise:
            w = weight.data.reshape(C, K)
            gw = (win * g[..., None]).sum(axis=(0, 1)).reshape(Cout, Cg, K)
            taps = (g * w[:, k] for k in range(K))  # one at a time: no (B, T_out, C, K) temporary
        else:
            g2 = g.reshape(B * Tout, Cout)
            gw = (g2.T @ cols).reshape(Cout, Cg, K)
            gwin = (g2 @ weight.data.reshape(Cout, C * K)).reshape(B, Tout, C, K)
            taps = (gwin[..., k] for k in range(K))
        # no input gradient for a constant input
        return _scatter_1d(taps) if x._needs_graph() else None, gw, g.sum(axis=(0, 1))

    return _make(out, (x, weight, bias), grad_fn)


def _fork_items(task, B: int) -> None:
    """task(lo, hi) over items 0:B: the first half here and the second on the lane.

    A single item runs inline, with no submit.
    """
    if B == 1:
        task(0, B)
    else:
        fork_join(partial(task, 0, B // 2), partial(task, B // 2, B))


def _conv_items(win, wcols, bias, cols, out, lo: int, hi: int) -> None:
    """im2col rows, GEMM, bias and ReLU of items lo:hi, into their slices of `cols` and `out`."""
    cols[lo:hi] = win[lo:hi]
    rows = out[lo:hi].reshape(-1, out.shape[-1])
    np.matmul(cols[lo:hi].reshape(rows.shape[0], -1), wcols, out=rows)
    rows += bias
    np.maximum(rows, 0.0, out=rows)


def _relu_grad_items(g, out, mask, gm, lo: int, hi: int) -> None:
    """The output gradient of items lo:hi through the ReLU, into their slices of `gm`."""
    np.greater(out[lo:hi], 0.0, out=mask[lo:hi])
    np.multiply(g[lo:hi], mask[lo:hi], out=gm[lo:hi])


def _col2im_items(gm, wtaps, gtaps, gxp, stride: int, lo: int, hi: int) -> None:
    """Input gradient of items lo:hi, through their slices of `gtaps`, into `gxp`.

    Each tap's gradient is a contiguous (C,) run; every element sums its taps
    in (i, j) order from zero.  One item at a time keeps its rows of both
    arrays in cache across the taps.
    """
    _, Hout, Wout, KH, KW, _ = gtaps.shape
    rows = gtaps[lo:hi].reshape(-1, wtaps.shape[1])
    np.matmul(gm[lo:hi].reshape(rows.shape[0], gm.shape[-1]), wtaps, out=rows)
    for gx_item, gt_item in zip(gxp[lo:hi], gtaps[lo:hi]):
        for i in range(KH):
            for j in range(KW):
                gx_item[i : i + stride * Hout : stride, j : j + stride * Wout : stride] += (
                    gt_item[:, :, i, j]
                )


def conv2d_relu(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """relu(conv2d(x) + bias), channels-last: (B, H, W, C) -> (B, Ho, Wo, C_out).

    weight: (C_out, C_in, KH, KW).  The input is padded into a zeroed buffer,
    its (KH, KW, C) windows are copied once into im2col rows, and a GEMM
    against the tap-major weight columns gives the output, to which the bias
    and the ReLU are applied in place.

    With B > 1, `fork_join` runs half of the items on the batch stream's lane:
    their im2col rows, GEMM, bias and ReLU in the forward, and their gradient
    through the ReLU in the backward.  Then the weight-gradient GEMM and the
    input gradient of the last third of the items run here, while the lane
    computes the input gradient of the first two thirds and the bias gradient.
    The splits are along items or between independent computations, never
    inside a sum, and without a lane the same parts run in turn, so every
    output and gradient has the same bits on one thread or two.  The calling
    thread allocates each large buffer and the tasks fill slices of it: a
    buffer allocated on the lane would come from another malloc arena and
    raise the peak RSS.
    """
    B, H, W, C = x.shape
    Cout, Cin, KH, KW = weight.shape
    if Cin != C:
        raise DimensionError("conv2d_relu: channel mismatch")
    Hout = conv_out_len(H, KH, stride, padding)
    Wout = conv_out_len(W, KW, stride, padding)
    if Hout < 1 or Wout < 1:
        raise DimensionError("conv2d_relu: input too small for kernel")
    xp = np.zeros((B, H + 2 * padding, W + 2 * padding, C))
    xp[:, padding : padding + H, padding : padding + W] = x.data
    sB, sH, sW, sC = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(B, Hout, Wout, KH, KW, C),
        strides=(sB, sH * stride, sW * stride, sH, sW, sC),
        writeable=False,
    )
    wtaps = weight.data.transpose(0, 2, 3, 1).reshape(Cout, KH * KW * C)
    cols = np.empty(win.shape)
    out = np.empty((B, Hout, Wout, Cout))
    _fork_items(partial(_conv_items, win, wtaps.T, bias.data, cols, out), B)
    cols = cols.reshape(B * Hout * Wout, KH * KW * C)

    def grad_fn(g):
        gm = np.empty(out.shape)
        _fork_items(partial(_relu_grad_items, g, out, np.empty(out.shape, dtype=bool), gm), B)
        gm_rows = gm.reshape(B * Hout * Wout, Cout)
        # no input gradient for a constant input (the log-mel into the first conv)
        gxp = np.zeros_like(xp) if x._needs_graph() else None
        if gxp is not None:
            col2im = partial(_col2im_items, gm, wtaps, np.empty(win.shape), gxp, stride)
        k = 2 * B // 3

        def here():
            if gxp is not None:
                col2im(k, B)
            # np.dot releases the GIL where `@` would not: numpy's matmul keeps
            # it for a product of under 500 elements, such as (C_out, 9) here
            return np.dot(gm_rows.T, cols)

        def there():
            if gxp is not None:
                col2im(0, k)
            return gm_rows.sum(axis=0)

        gw, gb = (here(), there()) if B == 1 else fork_join(here, there)
        gw = np.ascontiguousarray(gw.reshape(Cout, KH, KW, C).transpose(0, 3, 1, 2))
        gx = None if gxp is None else gxp[:, padding : padding + H, padding : padding + W]
        return gx, gw, gb

    return _make(out, (x, weight, bias), grad_fn)


# -- backward ------------------------------------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the graph reachable from `root`."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad leaf reachable from `loss`.

    The loss must be scalar.  Interior nodes hold transient gradients during
    the sweep; leaf data is never touched.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._grad_fn is None:
            continue
        parent_grads = node._grad_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p._needs_graph():
                continue
            pg = np.asarray(pg)
            if pg.shape != p.data.shape:
                raise ContractError(
                    f"backward: {node._grad_fn.__qualname__} gave a gradient of shape "
                    f"{pg.shape} for a parent of shape {p.data.shape}"
                )
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
