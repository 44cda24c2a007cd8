"""Parameter counts and MACs, both read from the built model.

Each report builds the model a configuration names and reads its submodules,
so sizes and MACs follow the modules themselves.  The model is built
unseeded: its arrays are zero pages that are never written, so even the
largest preset costs little memory.  A parameter count tallies the arrays.
MACs need no forward pass: each layer weight counts once per position the
layer runs at, and only the weightless attention score and context term,
3 * T'^2 * d per block, is a formula.  Three size scopes matter in practice:

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
from .conformer import ConformerEncoder, EncoderConfig
from .datapipe import VOCAB_SIZE
from .errors import ConfigError
from .heads import SpeakerModel
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


def _build(cfg: EncoderConfig, scope: str) -> tuple:
    """The encoder, CTC decoder and speaker model a scope covers, built
    unseeded; a part outside the scope is None."""
    if scope not in ("encoder", "encoder+decoder", "speaker"):
        raise ConfigError(f"unknown scope {scope!r}")
    model = SpeakerModel(cfg) if scope == "speaker" else None
    encoder = model.encoder if model is not None else ConformerEncoder(cfg)
    decoder = CtcDecoder(cfg.dim, VOCAB_SIZE) if scope == "encoder+decoder" else None
    return encoder, decoder, model


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
    encoder, decoder, model = _build(cfg, scope)
    report = CountReport(f"parameters ({scope}, {cfg.layers} layers, d={cfg.dim})")
    report.add("subsampling", _size(encoder.subsampling))
    per_block = _size(encoder.blocks[0])
    report.add(f"blocks ({cfg.layers} x {per_block})", cfg.layers * per_block)
    if decoder is not None:
        report.add("ctc_decoder", _size(decoder))
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


def _weight_size(module: Module) -> int:
    """MACs per position of `module`'s layers: the size of every layer weight."""
    return sum(p.size for name, p in module.named_parameters() if name.endswith("weight"))


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
    encoder, decoder, model = _build(cfg, scope)
    if not math.isfinite(input_seconds):
        raise ConfigError(f"input length must be finite, got {input_seconds}")
    frames = mel_frames = int(round(input_seconds * MEL_FRAMES_PER_SECOND))
    if mel_frames < cfg.min_frames:
        raise ConfigError(
            f"{input_seconds:g}s is {mel_frames} mel frames; rate {cfg.subsample_rate} "
            f"needs >= {cfg.min_frames}"
        )
    full = convention == "full"
    report = CountReport(
        f"MACs ({convention}, {scope}, {input_seconds:g}s input, {cfg.layers} layers, d={cfg.dim})"
    )
    sub, freq = 0, cfg.n_mels
    for conv in encoder.subsampling.convs:  # each conv runs over its output grid
        frames, freq = conv.out_len(frames), conv.out_len(freq)
        sub += conv.weight.size * frames * freq
    if full:
        sub += frames * _weight_size(encoder.subsampling.proj)
    report.add("subsampling", macs=sub)
    block = encoder.blocks[0]  # later layers run once per frame T'; exceptions marked
    per_block = frames * _weight_size(block if full else block.conv)
    if full:
        per_block += (frames - 1) * _weight_size(block.attn.pos_proj)  # 2T'-1 offsets
        per_block += 3 * frames * frames * cfg.dim  # content scores, position scores, context
    report.add(f"blocks ({cfg.layers} x {per_block})", macs=cfg.layers * per_block)
    if decoder is not None:
        report.add("ctc_decoder", macs=frames * _weight_size(decoder) if full else 0)
    if model is not None:
        report.add("pooling", macs=frames * _weight_size(model.pooling))
        if full:
            report.add("embedding_head", macs=_weight_size(model.head))  # once per utterance
    return report
