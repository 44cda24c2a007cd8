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

A key takes the type of the dataclass field it sets; a `RunConfig` field also
declares the key's section and any valid range.  Unknown sections or keys and
numbers that are not finite or out of range are configuration errors, so typos
fail fast.  The command, not the file, picks the strategy.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from .adaptation import AdaptationConfig
from .conformer import EncoderConfig, encoder_preset
from .datapipe import MIN_UTT_SEC, VOCAB_SIZE
from .errors import ConfigError
from .util import read_text


def _key(section: str, default, lo=None, hi=math.inf):
    """A field the file sets under `[section]`; given `lo`, its values must lie in [lo, hi)."""
    return field(default=default, metadata={"section": section, "range": (lo, hi)})


@dataclass
class RunConfig:
    name: str = _key("experiment", "run")
    seed: int = _key("experiment", 0)
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(2, 32, 4, 64))
    vocab: int = _key("experiment", VOCAB_SIZE, lo=VOCAB_SIZE)

    n_speakers: int = _key("data", 20)
    utts_per_speaker: int = _key("data", 50)
    crop_seconds: float = _key("data", 2.0, lo=MIN_UTT_SEC)
    augment_prob: float = _key("data", 0.6)
    speed_perturb: bool = _key("data", False)

    # decoupled weight decay, cosine annealing, 1-epoch warmup
    lr: float = _key("optim", 0.001, lo=0)
    weight_decay: float = _key("optim", 1e-7, lo=0)
    batch_size: int = _key("optim", 512, lo=1)
    epochs: int = _key("optim", 5, lo=1)
    warmup_epochs: float = _key("optim", 1.0, lo=0)

    aam_scale: float = _key("loss", 32.0)
    aam_margin: float = _key("loss", 0.2, lo=0, hi=math.pi / 2)
    alpha: float = _key("loss", 1.0, lo=0)

    frozen_epochs: int = _key("schedule", 2, lo=0)
    truncate_layers: Optional[int] = _key("schedule", None)
    lmft: bool = _key("schedule", False)
    lmft_margin: float = _key("schedule", 0.5, lo=0, hi=math.pi / 2)
    lmft_crop_seconds: float = _key("schedule", 6.0, lo=MIN_UTT_SEC)
    lmft_epochs: int = _key("schedule", 2, lo=0)

    adaptation: Optional[AdaptationConfig] = None

    def __post_init__(self):
        for f in fields(self):
            lo, hi = f.metadata.get("range", (None, None))
            value = getattr(self, f.name)
            if lo is not None and not lo <= value < hi:  # a NaN fails too
                raise ConfigError(f"{f.name} must be in [{lo}, {hi}), got {value}")
        if not self.aam_scale > 0:
            raise ConfigError(f"aam_scale must be positive, got {self.aam_scale}")
        if not 0 <= self.augment_prob <= 1:  # closed at 1, which a field range cannot say
            raise ConfigError(f"augment_prob must be in [0, 1], got {self.augment_prob}")


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# file section -> the RunConfig fields it holds, in field order; `encoder` and
# `adaptation` have sections of their own, and the command, not the file, picks
# the strategy
_SECTIONS: dict[str, tuple[str, ...]] = {}
for _field in fields(RunConfig):
    if _field.metadata:
        _section = _field.metadata["section"]
        _SECTIONS[_section] = _SECTIONS.get(_section, ()) + (_field.name,)


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
    values = encoder_preset(preset).to_dict() if preset is not None else {}
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
