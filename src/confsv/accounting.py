"""Parameter and MACs estimation from configuration alone.

Counts are exact integer arithmetic over layer shapes, independent of any
instantiated model; tests assert integer equality against live parameter
tallies.  Two size scopes matter in practice:

* "encoder"           subsampling stack + Conformer blocks
* "encoder+decoder"   adds the linear CTC frame classifier
* "speaker"           encoder + aggregation/pooling/embedding head; this is
                      the scope the published model-size figures correspond to

MACs conventions (1 MAC = one multiply-add, bias adds and normalizations
excluded):

* "conv"  counts convolution layers only: the subsampling convs, the three
          convs in each block's convolution module, and the two 1x1 convs of
          the pooling scorer.  This mirrors tooling that hooks convolution
          modules and reproduces the published MACs figures.
* "full"  additionally counts every linear map and the attention score /
          context matmuls (position projection over 2T-1 offsets).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional

from .adaptation import ADAPTOR_DIM, AdaptationConfig
from .autodiff import conv_out_len
from .conformer import EncoderConfig
from .datapipe import VOCAB_SIZE
from .errors import ConfigError
from .heads import ASP_BOTTLENECK, EMBEDDING_DIM

MACS_INPUT_SECONDS = 5.0
MEL_FRAMES_PER_SECOND = 100


@dataclass
class CountEntry:
    name: str
    params: int = 0
    macs: int = 0


@dataclass
class CountReport:
    title: str
    entries: list[CountEntry] = field(default_factory=list)

    def add(self, name: str, params: int = 0, macs: int = 0) -> None:
        self.entries.append(CountEntry(name, int(params), int(macs)))

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("component,params,macs\n")
        for e in self.entries:
            buf.write(f"{e.name},{e.params},{e.macs}\n")
        buf.write(f"total,{self.total_params},{self.total_macs}\n")
        return buf.getvalue()

    def to_text(self) -> str:
        width = max([len(e.name) for e in self.entries] + [5])
        lines = [self.title, "-" * len(self.title)]
        for e in self.entries:
            lines.append(f"{e.name:<{width}}  {e.params:>14,}  {e.macs:>16,}")
        lines.append(f"{'total':<{width}}  {self.total_params:>14,}  {self.total_macs:>16,}")
        return "\n".join(lines) + "\n"


# -- primitive counts ------------------------------------------------------------


def linear_params(d_in: int, d_out: int, bias: bool = True) -> int:
    return d_in * d_out + (d_out if bias else 0)


def conv1d_params(c_in: int, c_out: int, kernel: int, groups: int = 1) -> int:
    return c_out * (c_in // groups) * kernel + c_out


def conv2d_params(c_in: int, c_out: int, kernel: int) -> int:
    return c_out * c_in * kernel * kernel + c_out


def norm_params(dim: int) -> int:
    return 2 * dim


# -- structural blocks -----------------------------------------------------------


def _ffn_params(d: int, h: int) -> int:
    return norm_params(d) + linear_params(d, h) + linear_params(h, d)


def _attention_params(d: int) -> int:
    qkvo = 4 * linear_params(d, d)
    pos = linear_params(d, d, bias=False)
    biases_uv = 2 * d
    return norm_params(d) + qkvo + pos + biases_uv


def _conv_module_params(d: int, kernel: int) -> int:
    return (
        norm_params(d)
        + conv1d_params(d, 2 * d, 1)
        + conv1d_params(d, d, kernel, groups=d)
        + norm_params(d)  # batch norm affine
        + conv1d_params(d, d, 1)
    )


def block_params(cfg: EncoderConfig) -> int:
    return (
        2 * _ffn_params(cfg.dim, cfg.hidden)
        + _attention_params(cfg.dim)
        + _conv_module_params(cfg.dim, cfg.conv_kernel)
        + norm_params(cfg.dim)  # closing layer norm
    )


def subsampling_params(cfg: EncoderConfig) -> int:
    total = 0
    c_in = 1
    for _ in range(cfg.subsample_stages):
        total += conv2d_params(c_in, cfg.dim, 3)
        c_in = cfg.dim
    total += linear_params(cfg.dim * cfg.subsampled_mels, cfg.dim)
    return total


def pooling_params(d_channels: int) -> int:
    return (linear_params(3 * d_channels, ASP_BOTTLENECK)
            + linear_params(ASP_BOTTLENECK, d_channels))


def decoder_params(d: int) -> int:
    return linear_params(d, VOCAB_SIZE + 1)


# -- public counting API -----------------------------------------------------------


def count_params(
    cfg: EncoderConfig,
    scope: str = "speaker",
    layers: Optional[int] = None,
) -> CountReport:
    """Exact parameter count for a configuration.

    `layers` overrides cfg.layers to count truncated stacks.  The "speaker"
    scope sizes the full embedding model; "encoder" and "encoder+decoder"
    cover the ASR-side stack.
    """
    if scope not in ("encoder", "encoder+decoder", "speaker"):
        raise ConfigError(f"unknown scope {scope!r}")
    n_layers = cfg.layers if layers is None else layers
    if not 1 <= n_layers <= cfg.layers:
        raise ConfigError(f"layer override {n_layers} out of range")
    report = CountReport(f"parameters ({scope}, {n_layers} layers, d={cfg.dim})")
    report.add("subsampling", subsampling_params(cfg))
    per_block = block_params(cfg)
    report.add(f"blocks ({n_layers} x {per_block})", n_layers * per_block)
    if scope == "encoder+decoder":
        report.add("ctc_decoder", decoder_params(cfg.dim))
    if scope == "speaker":
        d_channels = n_layers * cfg.dim
        report.add("mfa_norm", norm_params(d_channels))
        report.add("pooling", pooling_params(d_channels))
        report.add("embedding_head",
                   norm_params(2 * d_channels) + linear_params(2 * d_channels, EMBEDDING_DIM))
    return report


def count_adaptation_params(cfg: AdaptationConfig, backbone: EncoderConfig) -> CountReport:
    """Trainable size of the adaptation add-on (backbone excluded)."""
    if cfg.adapted_layers > backbone.layers:
        raise ConfigError("adapted_layers exceeds backbone depth")
    d = backbone.dim
    L, K = cfg.adapted_layers, cfg.extra_layers
    report = CountReport(
        f"adaptation {cfg.variant} L={L} K={K} on d={d} backbone"
    )
    if cfg.variant in ("V2", "V3") and L > 0:
        per_adaptor = (
            linear_params(d, ADAPTOR_DIM)
            + norm_params(ADAPTOR_DIM)
            + linear_params(ADAPTOR_DIM, ADAPTOR_DIM)
        )
        report.add(f"layer_adaptors ({L} x {per_adaptor})", L * per_adaptor)
    if cfg.variant == "V3" and L > 0:
        report.add("concat_linear", linear_params(d * L, cfg.light_dim))
    elif cfg.variant != "V3" and L > 0 and d != cfg.light_dim:
        # instantiated whenever widths differ, even at K = 0
        report.add("light_input_linear", linear_params(d, cfg.light_dim))
    if K > 0:
        light_cfg = cfg.light_encoder_config(backbone.subsample_rate)
        report.add(f"light_blocks ({K} x {block_params(light_cfg)})",
                   K * block_params(light_cfg))
    d_channels = cfg.mfa_dim(d)
    report.add("mfa_norm", norm_params(d_channels))
    report.add("pooling", pooling_params(d_channels))
    report.add("embedding_head",
               norm_params(2 * d_channels) + linear_params(2 * d_channels, EMBEDDING_DIM))
    return report


# -- MACs --------------------------------------------------------------------------


def _frame_plan(cfg: EncoderConfig, input_seconds: float) -> tuple[int, list[tuple[int, int]], int]:
    """Mel frames, per-stage (frames, freq) outputs, and final frame count."""
    mel_frames = t = int(round(input_seconds * MEL_FRAMES_PER_SECOND))
    stages = []
    f = cfg.n_mels
    for _ in range(cfg.subsample_stages):
        t = conv_out_len(t, 3, 2, 1)
        f = conv_out_len(f, 3, 2, 1)
        stages.append((t, f))
    return mel_frames, stages, t


def _block_conv_macs(cfg: EncoderConfig, frames: int) -> int:
    d, k = cfg.dim, cfg.conv_kernel
    return frames * (2 * d * d + d * k + d * d)


def _block_full_macs(cfg: EncoderConfig, frames: int) -> int:
    d, h = cfg.dim, cfg.hidden
    ffn = 2 * (frames * d * h * 2)
    qkvo = 4 * frames * d * d
    pos_proj = (2 * frames - 1) * d * d
    attn = 3 * frames * frames * d  # content scores, position scores, context
    return ffn + qkvo + pos_proj + attn + _block_conv_macs(cfg, frames)


def estimate_macs(
    cfg: EncoderConfig,
    input_seconds: float = MACS_INPUT_SECONDS,
    convention: str = "conv",
    scope: str = "speaker",
) -> CountReport:
    """Forward-pass MACs for one utterance under the documented conventions.

    An input shorter than the subsampling accepts raises ConfigError.
    """
    if convention not in ("conv", "full"):
        raise ConfigError(f"unknown MACs convention {convention!r}")
    if scope not in ("encoder", "encoder+decoder", "speaker"):
        raise ConfigError(f"unknown scope {scope!r}")
    if not math.isfinite(input_seconds):
        raise ConfigError(f"input length must be finite, got {input_seconds}")
    mel_frames, stages, frames = _frame_plan(cfg, input_seconds)
    if mel_frames < cfg.min_frames:
        raise ConfigError(
            f"{input_seconds:g}s is {mel_frames} mel frames; rate {cfg.subsample_rate} "
            f"needs >= {cfg.min_frames}"
        )
    report = CountReport(
        f"MACs ({convention}, {scope}, {input_seconds:g}s input, {cfg.layers} layers, d={cfg.dim})"
    )
    c_in = 1
    sub = 0
    for t_out, f_out in stages:
        sub += cfg.dim * t_out * f_out * 9 * c_in
        c_in = cfg.dim
    if convention == "full":
        sub += frames * (cfg.dim * cfg.subsampled_mels) * cfg.dim
    report.add("subsampling", macs=sub)
    per_block = (
        _block_conv_macs(cfg, frames) if convention == "conv" else _block_full_macs(cfg, frames)
    )
    report.add(f"blocks ({cfg.layers} x {per_block})", macs=cfg.layers * per_block)
    if scope == "encoder+decoder":
        dec = frames * cfg.dim * (VOCAB_SIZE + 1) if convention == "full" else 0
        report.add("ctc_decoder", macs=dec)
    if scope == "speaker":
        d_channels = cfg.layers * cfg.dim
        pool = frames * (3 * d_channels * ASP_BOTTLENECK + ASP_BOTTLENECK * d_channels)
        report.add("pooling", macs=pool)
        if convention == "full":
            report.add("embedding_head", macs=2 * d_channels * EMBEDDING_DIM)
    return report
