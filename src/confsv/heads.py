"""Everything between the encoder taps and the speaker embedding.

Aggregation concatenates every block's frame-level output channel-wise and
layer-normalizes across the stacked channel axis.  That wide map feeds
attentive statistics pooling (attention-weighted mean and standard deviation
per channel, with a global-context scorer), then batch norm and a linear map
down to the fixed 256-dim speaker embedding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conformer import ConformerEncoder, EncoderConfig
from .errors import DimensionError
from .nn import BatchNorm, LayerNorm, Linear, Module

EMBEDDING_DIM = 256
ASP_BOTTLENECK = 128
VAR_FLOOR = 1e-10


class AttentiveStatsPooling(Module):
    """Attention-weighted mean and std over frames.

    The scorer sees each frame together with the utterance's global mean and
    std (channel-wise), passes a tanh bottleneck, and emits one score per
    channel per frame; softmax over frames gives per-channel weights.
    """

    def __init__(self, dim: int):
        self.score1 = Linear(3 * dim, ASP_BOTTLENECK)
        self.score2 = Linear(ASP_BOTTLENECK, dim)

    def forward(self, x: Tensor) -> Tensor:
        """(B, T, D) -> (B, 2D): weighted mean then weighted std."""
        if x.ndim != 3 or x.shape[1] < 1:
            raise DimensionError(f"pooling expects (B, T, D) with T >= 1, got {x.shape}")
        mu = ad.mean(x, axis=1, keepdims=True)
        var = ad.mean(x * x, axis=1, keepdims=True) - mu * mu
        sd = ad.sqrt(ad.clip(var, 0.0, np.inf) + ad.tensor(VAR_FLOOR))
        tile = ad.tensor(np.zeros((1, x.shape[1], 1)))
        ctx = ad.concat([x, mu + tile, sd + tile], axis=-1)
        scores = self.score2(ad.tanh(self.score1(ctx)))  # (B, T, D)
        alpha = ad.softmax(scores, axis=1)
        mean = ad.sum_(alpha * x, axis=1)
        sq = ad.sum_(alpha * x * x, axis=1)
        std = ad.sqrt(ad.clip(sq - mean * mean, 0.0, np.inf) + ad.tensor(VAR_FLOOR))
        return ad.concat([mean, std], axis=-1)


class EmbeddingHead(Module):
    """Batch norm over the pooled vector, then a linear map to 256."""

    def __init__(self, pooled_dim: int):
        self.norm = BatchNorm(pooled_dim)
        self.proj = Linear(pooled_dim, EMBEDDING_DIM)

    def forward(self, pooled: Tensor, rng=None) -> Tensor:
        if pooled.shape[-1] != self.proj.weight.shape[0]:
            raise DimensionError(
                f"pooled dim {pooled.shape[-1]} != head input {self.proj.weight.shape[0]}"
            )
        return self.proj(self.norm(pooled, rng))


class MfaAggregator(Module):
    """Learned layer norm over the concatenated channel axis."""

    def __init__(self, total_dim: int):
        self.norm = LayerNorm(total_dim)

    def forward(self, maps: Sequence[Tensor]) -> Tensor:
        """[each (B, T, d_i)] -> (B, T, sum d_i), normalized across channels."""
        frames = maps[0].shape[1]
        if any(m.shape[1] != frames for m in maps):
            raise DimensionError("aggregated maps must share the frame count")
        return self.norm(ad.concat(list(maps), axis=-1))


class SpeakerModel(Module):
    """Encoder + aggregation + pooling + embedding head."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.encoder = ConformerEncoder(cfg)
        total = cfg.layers * cfg.dim
        self.mfa = MfaAggregator(total)
        self.pooling = AttentiveStatsPooling(total)
        self.head = EmbeddingHead(2 * total)

    def forward(self, mel: Tensor, rng=None, return_maps: bool = False):
        maps = self.encoder(mel, rng)
        pooled = self.pooling(self.mfa(maps))
        emb = self.head(pooled, rng)
        return (emb, maps) if return_maps else emb

    def embed_utterance(self, features: np.ndarray) -> np.ndarray:
        """(T, 80) features -> 256-dim embedding, by one inference forward."""
        return self.forward(ad.tensor(features[None])).data[0]
