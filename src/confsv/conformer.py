"""Conformer encoder: convolutional subsampling plus a stack of blocks.

Each block applies, in order: a half-step feed-forward, self-attention with
relative sinusoidal positions, a convolution module, a second half-step
feed-forward, and a closing layer norm.  Every block's frame-level output is
exposed so downstream aggregation and adaptation can tap any layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datapipe import N_MELS
from .errors import ConfigError, DimensionError, InputTooShortError
from .nn import (
    BatchNorm,
    Conv1d,
    Conv2d,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
)


@dataclass
class EncoderConfig:
    layers: int
    dim: int
    heads: int
    hidden: int
    subsample_rate: float = 0.25
    conv_kernel: int = 31
    dropout: float = 0.1
    n_mels: int = N_MELS  # fixed by the features; stored in checkpoint metadata

    def __post_init__(self):
        if self.layers < 1 or self.dim < 1 or self.heads < 1 or self.hidden < 1:
            raise ConfigError("layers/dim/heads/hidden must be positive")
        if self.dim % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide dim ({self.dim})")
        if self.conv_kernel % 2 == 0 or self.conv_kernel < 1:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if self.subsample_rate not in (0.25, 0.5):
            raise ConfigError(f"subsample_rate must be 1/4 or 1/2, got {self.subsample_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.n_mels != N_MELS:
            raise ConfigError(
                f"n_mels must be {N_MELS}, the log-mel feature size, got {self.n_mels}"
            )

    @property
    def subsample_stages(self) -> int:
        return 2 if self.subsample_rate == 0.25 else 1

    @property
    def min_frames(self) -> int:
        """Fewest mel frames the subsampling accepts."""
        return 8 if self.subsample_stages == 2 else 4

    def to_dict(self) -> dict:
        return asdict(self)


# Encoder sizes used throughout: full-rate stacks and their half-depth,
# half-rate counterparts.
ENCODER_PRESETS: dict[str, EncoderConfig] = {
    "small": EncoderConfig(16, 176, 4, 704, 0.25),
    "medium": EncoderConfig(18, 256, 4, 1024, 0.25),
    "large": EncoderConfig(18, 512, 8, 2048, 0.25),
    "half_small": EncoderConfig(8, 176, 4, 704, 0.5),
    "half_medium": EncoderConfig(9, 256, 4, 1024, 0.5),
    "half_large": EncoderConfig(9, 512, 8, 2048, 0.5),
}


def encoder_preset(name: str) -> EncoderConfig:
    """The preset `name`; an unknown name is a ConfigError."""
    if name not in ENCODER_PRESETS:
        raise ConfigError(f"unknown encoder preset {name!r}")
    return ENCODER_PRESETS[name]


@lru_cache(maxsize=256)
def sinusoid_positions(n_frames: int, dim: int) -> np.ndarray:
    """Sinusoidal embeddings for relative distances T-1 ... -(T-1), shape (2T-1, d).

    Computed once per (T, d) and shared, so the array is read-only.
    """
    rel = np.arange(n_frames - 1, -n_frames, -1, dtype=np.float64)
    inv_freq = 1.0 / (10000.0 ** (np.arange(0, dim, 2, dtype=np.float64) / dim))
    ang = rel[:, None] * inv_freq[None, :]
    pe = np.zeros((rel.size, dim))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang[:, : dim // 2])
    pe.flags.writeable = False
    return pe


class ConvSubsampling(Module):
    """Stride-2 conv + ReLU stages (two for 1/4 rate, one for 1/2) plus a projection to d.

    The stages run channels-last, from the log-mel as (B, T, n_mels, 1).
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        stages = cfg.subsample_stages
        self.convs = ModuleList(
            [Conv2d(1 if i == 0 else cfg.dim, cfg.dim, 3, stride=2, padding=1) for i in range(stages)]
        )
        freq = cfg.n_mels
        for conv in self.convs:
            freq = conv.out_len(freq)
        self.proj = Linear(cfg.dim * freq, cfg.dim)

    def forward(self, mel: Tensor) -> Tensor:
        """(B, T, n_mels) -> (B, T', d)."""
        if mel.shape[-1] != self.cfg.n_mels:
            raise DimensionError(f"expected {self.cfg.n_mels} mel bins, got {mel.shape[-1]}")
        if mel.shape[1] < self.cfg.min_frames:
            raise InputTooShortError(
                f"need >= {self.cfg.min_frames} frames for rate {self.cfg.subsample_rate}, "
                f"got {mel.shape[1]}"
            )
        x = ad.reshape(mel, mel.shape + (1,))  # channels-last (B, T, F, 1)
        for conv in self.convs:
            x = conv(x)
        # (B, T', F', d) -> (B, T', d*F'), the (d, F') column order proj was trained on
        x = ad.transpose(x, (0, 1, 3, 2))
        x = ad.reshape(x, (x.shape[0], x.shape[1], x.shape[2] * x.shape[3]))
        return self.proj(x)


class FeedForwardModule(Module):
    """Two linear maps around a Swish, dropout after each linear map."""

    def __init__(self, dim: int, hidden: int, dropout: float):
        self.norm = LayerNorm(dim)
        self.linear1 = Linear(dim, hidden)
        self.linear2 = Linear(hidden, dim)
        self.dropout = dropout

    def forward(self, x: Tensor, rng=None) -> Tensor:
        h = self.norm(x)
        h = ad.dropout(ad.swish(self.linear1(h)), self.dropout, rng)
        return ad.dropout(self.linear2(h), self.dropout, rng)


class AttentionModule(Module):
    """Multi-head self-attention with relative sinusoidal positions.

    Scores combine a content term (q + u) . k and a position term (q + v) . r,
    where r projects the sinusoid table and u, v are learned biases shared
    across positions.  From the projected heads to the context it is one
    `ad.rel_attention` node.
    """

    def __init__(self, dim: int, heads: int, dropout: float):
        if dim % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide dim ({dim})")
        self.dim, self.heads, self.d_head = dim, heads, dim // heads
        self.norm = LayerNorm(dim)
        self.q_proj = Linear(dim, dim)
        self.k_proj = Linear(dim, dim)
        self.v_proj = Linear(dim, dim)
        self.out_proj = Linear(dim, dim)
        self.pos_proj = Linear(dim, dim, bias=False)
        self.pos_bias_u = Parameter((heads, self.d_head), init="zeros")
        self.pos_bias_v = Parameter((heads, self.d_head), init="zeros")
        self.dropout = dropout

    def _split(self, x: Tensor, B: int, T: int) -> Tensor:
        x = ad.reshape(x, (B, T, self.heads, self.d_head))
        return ad.transpose(x, (0, 2, 1, 3))

    def forward(self, x: Tensor, rng=None) -> Tensor:
        h = self.norm(x)
        B, T, _ = h.shape
        q = self._split(self.q_proj(h), B, T)
        k = self._split(self.k_proj(h), B, T)
        v = self._split(self.v_proj(h), B, T)
        pos = ad.tensor(sinusoid_positions(T, self.dim))
        r = self.pos_proj(pos)  # (2T-1, d)
        r = ad.transpose(ad.reshape(r, (2 * T - 1, self.heads, self.d_head)), (1, 0, 2))
        u = ad.reshape(self.pos_bias_u, (1, self.heads, 1, self.d_head))
        vb = ad.reshape(self.pos_bias_v, (1, self.heads, 1, self.d_head))
        keep = ad.dropout_keep((B, self.heads, T, T), self.dropout, rng)
        ctx = ad.rel_attention(q, k, v, r, u, vb, 1.0 / np.sqrt(self.d_head), keep)
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, self.dim))
        return ad.dropout(self.out_proj(ctx), self.dropout, rng)


class ConvolutionModule(Module):
    """Pointwise conv -> GLU -> depthwise conv -> batch norm -> Swish -> pointwise.

    The kernel is odd, which `EncoderConfig` checks, so the depthwise conv's
    same padding keeps the frame count.
    """

    def __init__(self, dim: int, kernel: int, dropout: float):
        self.norm = LayerNorm(dim)
        self.pointwise1 = Conv1d(dim, 2 * dim, 1)
        self.depthwise = Conv1d(dim, dim, kernel, padding=(kernel - 1) // 2, groups=dim)
        self.batch_norm = BatchNorm(dim)
        self.pointwise2 = Conv1d(dim, dim, 1)
        self.dropout = dropout
        self.kernel = kernel  # read by perfbench/tracing.py for the block's MACs

    def forward(self, x: Tensor, rng=None) -> Tensor:
        h = self.norm(x)
        h = ad.glu(self.pointwise1(h))
        h = self.depthwise(h)
        h = ad.swish(self.batch_norm(h, rng))
        return ad.dropout(self.pointwise2(h), self.dropout, rng)


class ConformerBlock(Module):
    def __init__(self, cfg: EncoderConfig):
        self.ffn1 = FeedForwardModule(cfg.dim, cfg.hidden, cfg.dropout)
        self.attn = AttentionModule(cfg.dim, cfg.heads, cfg.dropout)
        self.conv = ConvolutionModule(cfg.dim, cfg.conv_kernel, cfg.dropout)
        self.ffn2 = FeedForwardModule(cfg.dim, cfg.hidden, cfg.dropout)
        self.norm_out = LayerNorm(cfg.dim)

    def forward(self, x: Tensor, rng=None) -> Tensor:
        half = ad.tensor(0.5)
        h = x + half * self.ffn1(x, rng)
        h = h + self.attn(h, rng)
        h = h + self.conv(h, rng)
        h = h + half * self.ffn2(h, rng)
        return self.norm_out(h)


class ConformerEncoder(Module):
    """Subsampling front-end plus `cfg.layers` Conformer blocks."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.subsampling = ConvSubsampling(cfg)
        self.blocks = ModuleList([ConformerBlock(cfg) for _ in range(cfg.layers)])

    def forward(self, mel: Tensor, rng=None, depth: Optional[int] = None) -> list[Tensor]:
        """(B, T, n_mels) -> [h_1 ... h_L], each (B, T', d); only the first
        `depth` blocks run when it is given.  A frozen encoder runs as inference."""
        if rng is not None and not any(p.trainable for _, p in self.named_parameters()):
            rng = None
        h = self.subsampling(mel)
        outputs = []
        for block in self.blocks[:depth]:
            h = block(h, rng)
            outputs.append(h)
        return outputs
