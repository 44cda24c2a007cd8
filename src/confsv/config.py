"""Run configuration: typed defaults plus a sectioned key=value file format.

Example file::

    [experiment]
    name = toy
    seed = 7

    [encoder]
    layers = 2
    dim = 32
    heads = 4
    hidden = 64
    subsample_rate = 0.25

    [optim]
    lr = 0.001
    batch_size = 32
    epochs = 5

A key takes the type of the dataclass field it sets.  Unknown sections or
keys and numbers that are not finite are configuration errors, so typos fail
fast.  The command, not the file, picks the strategy.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from .adaptation import AdaptationConfig
from .conformer import ENCODER_PRESETS, EncoderConfig
from .datapipe import MIN_UTT_SEC, VOCAB_SIZE
from .errors import ConfigError
from .util import read_text

# RunConfig field -> [lowest, highest) of its values
_RANGES = {
    "vocab": (VOCAB_SIZE, math.inf),
    "crop_seconds": (MIN_UTT_SEC, math.inf),
    "lmft_crop_seconds": (MIN_UTT_SEC, math.inf),
    "epochs": (1, math.inf),
    "batch_size": (1, math.inf),
    "lr": (0, math.inf),
    "weight_decay": (0, math.inf),
    "warmup_epochs": (0, math.inf),
    "lmft_epochs": (0, math.inf),
    "frozen_epochs": (0, math.inf),
    "alpha": (0, math.inf),
    "aam_margin": (0, math.pi / 2),
    "lmft_margin": (0, math.pi / 2),
}


@dataclass
class RunConfig:
    name: str = "run"
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(2, 32, 4, 64))
    vocab: int = VOCAB_SIZE

    # data
    n_speakers: int = 20
    utts_per_speaker: int = 50
    crop_seconds: float = 2.0
    augment_prob: float = 0.6
    speed_perturb: bool = False

    # optimizer (decoupled weight decay, cosine annealing, 1-epoch warmup)
    lr: float = 0.001
    weight_decay: float = 1e-7
    batch_size: int = 512
    epochs: int = 5
    warmup_epochs: float = 1.0

    # losses
    aam_scale: float = 32.0
    aam_margin: float = 0.2
    alpha: float = 1.0

    # schedules
    frozen_epochs: int = 2
    truncate_layers: Optional[int] = None
    lmft: bool = False
    lmft_margin: float = 0.5
    lmft_crop_seconds: float = 6.0
    lmft_epochs: int = 2

    adaptation: Optional[AdaptationConfig] = None

    def __post_init__(self):
        for name, (lo, hi) in _RANGES.items():
            value = getattr(self, name)
            if not lo <= value < hi:  # a NaN fails too
                raise ConfigError(f"{name} must be in [{lo}, {hi}), got {value}")
        if not self.aam_scale > 0:
            raise ConfigError(f"aam_scale must be positive, got {self.aam_scale}")
        if not 0 <= self.augment_prob <= 1:  # closed at 1, which _RANGES cannot say
            raise ConfigError(f"augment_prob must be in [0, 1], got {self.augment_prob}")


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# file section -> the RunConfig fields it holds; `encoder` and `adaptation` have
# sections of their own, and the command, not the file, picks the strategy
_SECTIONS = {
    "experiment": ("name", "seed", "vocab"),
    "data": ("n_speakers", "utts_per_speaker", "crop_seconds", "augment_prob", "speed_perturb"),
    "optim": ("lr", "weight_decay", "batch_size", "epochs", "warmup_epochs"),
    "loss": ("aam_scale", "aam_margin", "alpha"),
    "schedule": ("frozen_epochs", "truncate_layers", "lmft", "lmft_margin",
                 "lmft_crop_seconds", "lmft_epochs"),
}


def _convert(raw: str, kind: type):
    """`raw` as a field of annotated type `kind`; `Optional[X]` converts as `X`."""
    kind = next((arg for arg in typing.get_args(kind) if arg is not type(None)), kind)
    if kind is bool:
        if raw.lower() not in _BOOL:
            raise ConfigError(f"expected a boolean, got {raw!r}")
        return _BOOL[raw.lower()]
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _values(section: str, raw: dict[str, str], types: dict[str, type]) -> dict:
    """The keys of one file section, converted to their field types."""
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in section [{section}]")
    return {key: _convert(text, types[key]) for key, text in raw.items()}


def _build(cls: type, section: str, values: dict):
    """`cls` built from a section's values, each field without a default set."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    if not set(required) <= set(values):
        raise ConfigError(f"[{section}] needs at least {required}")
    return cls(**values)


def parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"config line {i}: expected 'key = value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current][key] = value
    return sections


def load_run_config(path: Union[str, Path]) -> RunConfig:
    sections = parse_sections(read_text(path, ConfigError))
    run_types = typing.get_type_hints(RunConfig)
    kwargs: dict = {}
    for section, names in _SECTIONS.items():
        kwargs.update(_values(section, sections.pop(section, {}),
                              {name: run_types[name] for name in names}))

    enc_section = sections.pop("encoder", {})
    preset = enc_section.pop("preset", None)
    if preset is not None and preset not in ENCODER_PRESETS:
        raise ConfigError(f"unknown encoder preset {preset!r}")
    values = ENCODER_PRESETS[preset].to_dict() if preset is not None else {}
    values.update(_values("encoder", enc_section, typing.get_type_hints(EncoderConfig)))
    if values:
        kwargs["encoder"] = _build(EncoderConfig, "encoder", values)

    if "adaptation" in sections:
        kwargs["adaptation"] = _build(AdaptationConfig, "adaptation", _values(
            "adaptation", sections.pop("adaptation"), typing.get_type_hints(AdaptationConfig)))

    if sections:
        raise ConfigError(f"unknown config sections: {sorted(sections)}")
    if "seed" not in kwargs:
        raise ConfigError("[experiment] must set a seed")
    return RunConfig(**kwargs)
