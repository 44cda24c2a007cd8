"""Training objectives: margin softmax, CTC, and frame-level distillation.

The CTC loss of a batch is one autodiff op.  Its forward takes the log-softmax
of the (B, T, V+1) logits and runs the alpha recursion in log space over the
blank-extended label sequences of all items at once, the state axis padded to
the longest target; its backward runs the beta recursion and returns the
analytic gradient (softmax - state occupancy) * g / B (Graves et al., 2006).
-1e30 stands in for log(0), so impossible and padded states carry no mass
instead of producing NaNs.  The per-item losses are summed left to right and
scaled by 1/B, the same float operations as a sum of per-item graphs.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, DimensionError, InfeasibleTargetError, InputTooShortError
from .heads import EMBEDDING_DIM
from .nn import Conv1d, Linear, Module, Parameter

NEG = -1e30
COS_CLAMP = 1e-7
BLANK = 0


class AamClassifier(Module):
    """Class weight matrix for the additive-angular-margin softmax."""

    def __init__(self, n_classes: int):
        self.weight = Parameter((n_classes, EMBEDDING_DIM), fan=EMBEDDING_DIM)
        self.n_classes = n_classes


def _l2_rows(x: Tensor) -> Tensor:
    norm = ad.sqrt(ad.sum_(x * x, axis=-1, keepdims=True) + ad.tensor(1e-24))
    return x / norm


def aam_softmax_loss(
    emb: Tensor,
    labels: Union[Sequence[int], np.ndarray],
    classifier: AamClassifier,
    scale: float = 32.0,
    margin: float = 0.2,
) -> Tensor:
    """Cross-entropy over scale * cos(theta_y + margin) vs scale * cos(theta_j).

    Embeddings and class weights are L2-normalized internally.  The margin is
    applied in the arccos-free form cos(t+m) = cos t * cos m - sin t * sin m,
    with cosines clamped away from +-1 before the sine.  margin = 0, scale = 1
    reduces exactly to softmax cross-entropy on cosine logits.  `emb` is
    (B, D), one label per row.
    """
    if not 0.0 <= margin < math.pi / 2:
        raise DataError(f"margin must be in [0, pi/2), got {margin}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classifier.n_classes:
        raise IndexError(f"label out of range [0, {classifier.n_classes})")
    if emb.shape[0] != labels.shape[0]:
        raise DimensionError("one label per embedding required")

    w = _l2_rows(classifier.weight)
    e = _l2_rows(emb)
    cos = ad.clip(ad.matmul(e, ad.transpose(w)), -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    sin = ad.sqrt(ad.tensor(1.0) - cos * cos)
    phi = cos * ad.tensor(math.cos(margin)) - sin * ad.tensor(math.sin(margin))
    onehot = np.zeros((labels.shape[0], classifier.n_classes))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    oh = ad.tensor(onehot)
    logits = (oh * phi + (ad.tensor(1.0) - oh) * cos) * ad.tensor(scale)
    logp = ad.log_softmax(logits, axis=-1)
    rows = np.arange(labels.shape[0])[:, None]
    picked = ad.take_pairs(logp, rows, labels[:, None])
    return -ad.mean(picked)


def _min_ctc_frames(target: Sequence[int]) -> int:
    repeats = sum(1 for i in range(1, len(target)) if target[i] == target[i - 1])
    return len(target) + repeats


def _check_ctc_target(target: Sequence[int], T: int, n_symbols: int) -> list[int]:
    target = [int(t) for t in target]
    if not target:
        raise DataError("empty CTC target")
    if any(t < 1 or t >= n_symbols for t in target):
        raise IndexError(f"target symbols must lie in [1, {n_symbols - 1}]")
    if T < _min_ctc_frames(target):
        raise InfeasibleTargetError(
            f"target needs >= {_min_ctc_frames(target)} frames, got {T}"
        )
    return target


def ctc_loss_batch(logits: Tensor, targets: Sequence[Sequence[int]]) -> Tensor:
    """Mean CTC loss over a batch of (B, T, V+1) logits, as one graph node.

    Each item's loss is the negative log probability of all alignments of its
    target; index 0 is the blank.  A target that cannot fit in T frames, with
    the blanks that must separate repeated tokens, raises
    InfeasibleTargetError.  The per-item losses are summed left to right and
    scaled by 1/B.
    """
    if logits.ndim != 3 or len(targets) != logits.shape[0]:
        raise DimensionError("need (B, T, V+1) logits and one target per item")
    B, T, n_symbols = logits.shape
    checked = [_check_ctc_target(t, T, n_symbols) for t in targets]

    # blank-extended labels, padded with blanks to the longest; `live` marks
    # each item's own states
    S = 2 * max(len(t) for t in checked) + 1
    ext = np.full((B, S), BLANK)
    live = np.zeros((B, S), dtype=bool)
    for b, t in enumerate(checked):
        ext[b, 1 : 2 * len(t) : 2] = t
        live[b, : 2 * len(t) + 1] = True
    # skip transitions are illegal into blanks and into a repeat of the same label
    skip_mask = np.full((B, S), NEG)
    can_skip = (ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2]) & live[:, 2:]
    skip_mask[:, 2:][can_skip] = 0.0
    last = np.array([2 * len(t) for t in checked])
    rows = np.arange(B)

    logp = ad.log_softmax_array(logits.data)
    emit = np.take_along_axis(logp, np.broadcast_to(ext[:, None, :], (B, T, S)), axis=-1)
    emit = np.where(live[:, None, :], emit, NEG)

    # alpha[t, b, s]: log mass of the prefixes ending in state s at frame t
    alpha = np.empty((T, B, S))
    init = np.full((B, S), NEG)
    init[:, :2] = 0.0
    alpha[0] = emit[:, 0] + init
    neg = np.full((B, 2), NEG)  # log(0) shifted in at the sequence ends
    for t in range(1, T):
        prev = alpha[t - 1]
        step = np.concatenate([neg[:, :1], prev[:, :-1]], axis=1)
        skip = np.concatenate([neg, prev[:, :-2]], axis=1) + skip_mask
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), skip) + emit[:, t]
    log_total = np.logaddexp(alpha[-1, rows, last], alpha[-1, rows, last - 1])
    losses = -log_total
    total = losses[0]
    for piece in losses[1:]:
        total = total + piece
    out = np.asarray(total * (1.0 / B))

    def grad_fn(g):
        # beta[t, b, s]: log mass of the suffixes after frame t from state s
        beta = np.empty((T, B, S))
        beta[-1] = NEG
        beta[-1, rows, last] = 0.0
        beta[-1, rows, last - 1] = 0.0
        skip_from = np.concatenate([skip_mask[:, 2:], neg], axis=1)
        for t in range(T - 2, -1, -1):
            nxt = beta[t + 1] + emit[:, t + 1]
            step = np.concatenate([nxt[:, 1:], neg[:, :1]], axis=1)
            skip = np.concatenate([nxt[:, 2:], neg], axis=1) + skip_from
            beta[t] = np.logaddexp(np.logaddexp(nxt, step), skip)
        # state occupancy per frame, summed onto the symbol each state emits
        gamma = np.exp(alpha + beta - log_total[None, :, None])
        occupancy = np.zeros((B, T, n_symbols))
        for b in range(B):
            np.add.at(occupancy[b].T, ext[b][live[b]], gamma[:, b, live[b]].T)
        return ((np.exp(logp) - occupancy) * (g / B),)

    return ad._make(out, (logits,), grad_fn)


def distill_kl_loss(student_logits: Tensor, teacher_logits: np.ndarray) -> Tensor:
    """Frame-averaged KL(teacher || student) between softmax distributions.

    The teacher logits are a plain array, so no gradient can flow into them.
    """
    if teacher_logits.shape != student_logits.shape:
        raise DimensionError(
            f"teacher {teacher_logits.shape} and student {student_logits.shape} logits differ"
        )
    t_logp = ad.log_softmax_array(teacher_logits)
    t_p = np.exp(t_logp)
    s_logp = ad.log_softmax(student_logits, axis=-1)
    per_frame = ad.sum_(ad.tensor(t_p) * (ad.tensor(t_logp) - s_logp), axis=-1)
    return ad.mean(per_frame)


def combined_loss(l_spk: Tensor, l_distill: Tensor, alpha: float) -> Tensor:
    """Speaker loss plus alpha-weighted distillation loss."""
    if alpha < 0:
        raise DataError(f"alpha must be nonnegative, got {alpha}")
    return l_spk + alpha * l_distill


class RateMatcher(Module):
    """Stride-2 conv (kernel 3, padding 1) that halves the student frame rate."""

    def __init__(self, dim: int):
        self.conv = Conv1d(dim, dim, 3, stride=2, padding=1)

    def forward(self, frames: Tensor) -> Tensor:
        """(B, T, d) -> (B, floor((T - 1) / 2) + 1, d); preserves channels."""
        if frames.shape[1] < 3:
            raise InputTooShortError(f"rate matching needs T >= 3, got {frames.shape[1]}")
        return self.conv(frames)


class CtcDecoder(Module):
    """Linear frame classifier over the token inventory plus blank."""

    def __init__(self, dim: int, vocab: int):
        self.proj = Linear(dim, vocab + 1)
        self.vocab = vocab

    def forward(self, frames: Tensor) -> Tensor:
        return self.proj(frames)
