"""Transfer strategies around a pretrained encoder.

Three ways to reuse a frozen ASR-trained Conformer for speaker embedding:

* V1 taps the first L block outputs directly.
* V2 refines each tapped output with a per-layer adaptor (linear -> layer norm
  -> ReLU -> linear down to 128 channels).
* V3 additionally feeds K lightweight trainable Conformer layers from the
  concatenation of all L taps (V1/V2 feed them from the L-th tap alone).

All variants aggregate the branch outputs channel-wise, pool, and project to
the speaker embedding.  The backbone is never touched: attaching the
adaptation freezes it, and a frozen encoder runs as inference, so no gradient
reaches it, its batch-norm statistics never change and its outputs are
bit-identical with or without the adaptation attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conformer import ConformerBlock, ConformerEncoder, EncoderConfig
from .errors import ConfigError, DegenerateLabelsError
from .heads import AttentiveStatsPooling, EmbeddingHead, MfaAggregator
from .nn import LayerNorm, Linear, Module, ModuleList
from .util import check_finite, rng_for

ADAPTOR_DIM = 128
LIGHT_DIM = 176
LIGHT_HEADS = 4
LIGHT_HIDDEN = 704
PROBE_HIDDEN = (64, 64)
PROBE_ITERS = 400
PROBE_LR = 0.5


@dataclass
class AdaptationConfig:
    variant: str  # "V1" | "V2" | "V3"
    adapted_layers: int  # L: backbone layers tapped
    extra_layers: int = 0  # K: trainable lightweight Conformer layers
    light_dim: int = LIGHT_DIM
    light_heads: int = LIGHT_HEADS
    light_hidden: int = LIGHT_HIDDEN
    light_kernel: int = 31
    dropout: float = 0.1

    def __post_init__(self):
        if self.variant not in ("V1", "V2", "V3"):
            raise ConfigError(f"variant must be V1/V2/V3, got {self.variant!r}")
        if self.adapted_layers < 1:
            raise ConfigError("adapted_layers must be >= 1")
        if self.extra_layers < 0:
            raise ConfigError("extra_layers must be >= 0")
        if self.variant == "V3" and self.extra_layers < 1:
            raise ConfigError("V3 requires at least one lightweight layer")

    def light_encoder_config(self, rate: float) -> EncoderConfig:
        return EncoderConfig(
            layers=1,
            dim=self.light_dim,
            heads=self.light_heads,
            hidden=self.light_hidden,
            subsample_rate=rate,
            conv_kernel=self.light_kernel,
            dropout=self.dropout,
        )

    def mfa_dim(self, backbone_dim: int) -> int:
        per_layer = backbone_dim if self.variant == "V1" else ADAPTOR_DIM
        return per_layer * self.adapted_layers + self.light_dim * self.extra_layers


class LayerAdaptor(Module):
    """Per-layer map to 128 channels: linear -> layer norm -> ReLU -> linear."""

    def __init__(self, backbone_dim: int):
        self.lin1 = Linear(backbone_dim, ADAPTOR_DIM)
        self.norm = LayerNorm(ADAPTOR_DIM)
        self.lin2 = Linear(ADAPTOR_DIM, ADAPTOR_DIM)

    def forward(self, x: Tensor) -> Tensor:
        return self.lin2(ad.relu(self.norm(self.lin1(x))))


class SpeakerAdaptation(Module):
    """Trainable add-on reading frozen encoder taps; owns no backbone weights.

    Building one freezes `backbone`.

    The lightweight-branch input linear is built whenever the backbone width
    differs from the lightweight width, even at K = 0, where no forward uses
    it: the published size tables count it there.
    """

    def __init__(self, backbone: ConformerEncoder, cfg: AdaptationConfig):
        bcfg = backbone.cfg
        if cfg.adapted_layers > bcfg.layers:
            raise ConfigError(
                f"adapted_layers {cfg.adapted_layers} exceeds backbone depth {bcfg.layers}"
            )
        self.cfg = cfg
        self._backbone = backbone.set_trainable(False)  # underscore: not a submodule

        if cfg.variant in ("V2", "V3"):
            self.adaptors = ModuleList(
                [LayerAdaptor(bcfg.dim) for _ in range(cfg.adapted_layers)]
            )
        if cfg.variant == "V3":  # K >= 1, which AdaptationConfig checks
            self.light_in = Linear(bcfg.dim * cfg.adapted_layers, cfg.light_dim)
        elif bcfg.dim != cfg.light_dim:
            self.light_in = Linear(bcfg.dim, cfg.light_dim)
        if cfg.extra_layers > 0:
            light_cfg = cfg.light_encoder_config(bcfg.subsample_rate)
            self.light_blocks = ModuleList(
                [ConformerBlock(light_cfg) for _ in range(cfg.extra_layers)]
            )
        total = cfg.mfa_dim(bcfg.dim)
        self.mfa = MfaAggregator(total)
        self.pooling = AttentiveStatsPooling(total)
        self.head = EmbeddingHead(2 * total)

    @property
    def backbone(self) -> ConformerEncoder:
        return self._backbone

    def backbone_taps(self, mel: Tensor) -> list[Tensor]:
        """The outputs of the backbone's first L blocks."""
        return self._backbone(mel, depth=self.cfg.adapted_layers)

    def forward(self, mel: Tensor, rng=None) -> Tensor:
        taps = self.backbone_taps(mel)
        if self.cfg.variant == "V1":
            branch = list(taps)
        else:
            branch = [adaptor(tap) for adaptor, tap in zip(self.adaptors, taps)]
        if self.cfg.extra_layers > 0:
            if self.cfg.variant == "V3":
                h = self.light_in(ad.concat(taps, axis=-1))
            else:
                h = taps[-1]
                if hasattr(self, "light_in"):
                    h = self.light_in(h)
            for block in self.light_blocks:
                h = block(h, rng)
                branch.append(h)
        pooled = self.pooling(self.mfa(branch))
        return self.head(pooled, rng)

    def embed_utterance(self, features: np.ndarray) -> np.ndarray:
        """(T, 80) features -> 256-dim embedding, by one inference forward."""
        return self.forward(ad.tensor(features[None])).data[0]


def linear_probe(
    layer_maps: Sequence[Sequence[np.ndarray]],
    labels: Sequence[int],
    seed: int = 0,
) -> list[float]:
    """Training accuracy of a per-layer probe on frozen (T', d) feature maps.

    Probe: two affine maps, average pooling over frames, and an affine
    classifier, trained by full-batch gradient descent with a fixed budget
    at a step of `PROBE_LR / max(1, λmax)`, λmax the largest eigenvalue of the
    standardized features' xᵀx/n.  Affine maps commute with average pooling,
    so frames are pooled first; the function computed is identical.
    Features, a loss or logits that are not finite (the encoder overflowed,
    or the descent diverged) raise `NumericError`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabelsError("probe needs at least two speakers")
    n_classes = int(classes.max()) + 1
    accuracies = []
    for layer_idx, maps in enumerate(layer_maps):
        pooled = np.stack([np.asarray(m, dtype=np.float64).mean(axis=0) for m in maps])
        mu, sd = pooled.mean(axis=0), pooled.std(axis=0) + 1e-8
        x = check_finite((pooled - mu) / sd, f"probe features of layer {layer_idx + 1}")
        # descent on a linear model is stable only for steps below 2 / λmax(xᵀx/n)
        step = PROBE_LR / max(1.0, float(np.linalg.eigvalsh(x.T @ x / len(x))[-1]))
        x = ad.tensor(x)
        rng = rng_for(seed, "probe", layer_idx)
        dims = [pooled.shape[1], *PROBE_HIDDEN]
        weights = []
        for i, (a, b) in enumerate(zip(dims, dims[1:] + [n_classes])):
            w = ad.tensor(rng.normal(0.0, 1.0 / np.sqrt(a), size=(a, b)), requires_grad=True)
            bias = ad.tensor(np.zeros(b), requires_grad=True)
            weights.append((w, bias))
        onehot = np.zeros((labels.size, n_classes))
        onehot[np.arange(labels.size), labels] = 1.0
        oh = ad.tensor(onehot)
        for _ in range(PROBE_ITERS):
            h = x
            for w, bias in weights:
                h = ad.matmul(h, w) + bias
            loss = -ad.mean(ad.sum_(oh * ad.log_softmax(h, axis=-1), axis=-1))
            check_finite(loss.data, f"probe loss of layer {layer_idx + 1}")
            for w, bias in weights:
                w.grad = None
                bias.grad = None
            ad.backward(loss)
            for w, bias in weights:
                w.data = w.data - step * w.grad
                bias.data = bias.data - step * bias.grad
        h = x.data
        for w, bias in weights:
            h = h @ w.data + bias.data
        check_finite(h, f"probe logits of layer {layer_idx + 1}")
        accuracies.append(float((h.argmax(axis=-1) == labels).mean()))
    return accuracies
