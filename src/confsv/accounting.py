"""Parameter counts of the built model and analytic MACs.

A parameter count builds the model a configuration names and tallies the
arrays of its submodules, so sizes follow the modules themselves.  The model
is built unseeded: its arrays are zero pages that are never written, so even
the largest preset costs little memory.  MACs stay analytic: they come from
the configuration's layer shapes and frame counts, with no forward pass.
Three size scopes matter in practice:

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

from .adaptation import AdaptationConfig, SpeakerAdaptation
from .autodiff import conv_out_len
from .conformer import ConformerEncoder, EncoderConfig
from .datapipe import VOCAB_SIZE
from .errors import ConfigError
from .heads import ASP_BOTTLENECK, EMBEDDING_DIM, SpeakerModel
from .losses import CtcDecoder
from .nn import Module

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


# -- parameter counts --------------------------------------------------------------


def _size(module: Module) -> int:
    return sum(p.size for p in module.parameters())


def _add_tail(report: CountReport, model: Module) -> None:
    """The aggregation, pooling and embedding head every speaker model ends in."""
    report.add("mfa_norm", _size(model.mfa))
    report.add("pooling", _size(model.pooling))
    report.add("embedding_head", _size(model.head))


def count_params(cfg: EncoderConfig, scope: str = "speaker") -> CountReport:
    """Exact parameter count for a configuration, tallied on the built model.

    The "speaker" scope sizes the full embedding model; "encoder" and
    "encoder+decoder" cover the ASR-side stack.  A truncated stack is counted
    as the configuration with fewer layers.
    """
    if scope not in ("encoder", "encoder+decoder", "speaker"):
        raise ConfigError(f"unknown scope {scope!r}")
    model = SpeakerModel(cfg) if scope == "speaker" else None
    encoder = model.encoder if model is not None else ConformerEncoder(cfg)
    report = CountReport(f"parameters ({scope}, {cfg.layers} layers, d={cfg.dim})")
    report.add("subsampling", _size(encoder.subsampling))
    per_block = _size(encoder.blocks[0])
    report.add(f"blocks ({cfg.layers} x {per_block})", cfg.layers * per_block)
    if scope == "encoder+decoder":
        report.add("ctc_decoder", _size(CtcDecoder(cfg.dim, VOCAB_SIZE)))
    if model is not None:
        _add_tail(report, model)
    return report


def count_adaptation_params(cfg: AdaptationConfig, backbone: EncoderConfig) -> CountReport:
    """Trainable size of the adaptation add-on (backbone excluded)."""
    module = SpeakerAdaptation(ConformerEncoder(backbone), cfg)
    L, K = cfg.adapted_layers, cfg.extra_layers
    report = CountReport(
        f"adaptation {cfg.variant} L={L} K={K} on d={backbone.dim} backbone"
    )
    if cfg.variant != "V1":
        per_adaptor = _size(module.adaptors[0])
        report.add(f"layer_adaptors ({L} x {per_adaptor})", L * per_adaptor)
    if hasattr(module, "light_in"):
        name = "concat_linear" if cfg.variant == "V3" else "light_input_linear"
        report.add(name, _size(module.light_in))
    if K > 0:
        per_block = _size(module.light_blocks[0])
        report.add(f"light_blocks ({K} x {per_block})", K * per_block)
    _add_tail(report, module)
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
