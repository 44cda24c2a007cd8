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

Unknown sections or keys are configuration errors, so typos fail fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .adaptation import AdaptationConfig
from .conformer import ENCODER_PRESETS, EncoderConfig
from .datapipe import VOCAB_SIZE
from .errors import ConfigError
from .util import read_text

STRATEGIES = ("scratch", "pretrained-init", "distill", "adapt")


@dataclass
class RunConfig:
    name: str = "run"
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(2, 32, 4, 64))
    strategy: str = "scratch"
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
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "adapt" and self.adaptation is None:
            raise ConfigError("adapt strategy needs an [adaptation] section")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _convert(raw: str, kind):
    if kind is bool:
        if raw.lower() not in _BOOL:
            raise ConfigError(f"expected a boolean, got {raw!r}")
        return _BOOL[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got {raw!r}") from None


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


_ENCODER_KEYS = {
    "layers": int, "dim": int, "heads": int, "hidden": int,
    "subsample_rate": float, "conv_kernel": int, "dropout": float, "n_mels": int,
}
_ADAPT_KEYS = {
    "variant": str, "adapted_layers": int, "extra_layers": int,
    "light_dim": int, "light_heads": int, "light_hidden": int,
    "light_kernel": int, "dropout": float,
}
_SCALAR_SECTIONS = {
    "experiment": {"name": str, "seed": int, "strategy": str, "vocab": int},
    "data": {
        "n_speakers": int, "utts_per_speaker": int, "crop_seconds": float,
        "augment_prob": float, "speed_perturb": bool,
    },
    "optim": {
        "lr": float, "weight_decay": float, "batch_size": int,
        "epochs": int, "warmup_epochs": float,
    },
    "loss": {"aam_scale": float, "aam_margin": float, "alpha": float},
    "schedule": {
        "frozen_epochs": int, "truncate_layers": int, "lmft": bool,
        "lmft_margin": float, "lmft_crop_seconds": float, "lmft_epochs": int,
    },
}


def load_run_config(path: Union[str, Path]) -> RunConfig:
    sections = parse_sections(read_text(path, ConfigError))
    kwargs: dict = {}

    for section, keys in _SCALAR_SECTIONS.items():
        for key, raw in sections.pop(section, {}).items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kwargs[key] = _convert(raw, keys[key])

    enc_section = sections.pop("encoder", {})
    if "preset" in enc_section:
        preset = enc_section.pop("preset")
        if preset not in ENCODER_PRESETS:
            raise ConfigError(f"unknown encoder preset {preset!r}")
        base = ENCODER_PRESETS[preset].to_dict()
    else:
        base = {}
    for key, raw in enc_section.items():
        if key not in _ENCODER_KEYS:
            raise ConfigError(f"unknown key {key!r} in section [encoder]")
        base[key] = _convert(raw, _ENCODER_KEYS[key])
    if base:
        required = {"layers", "dim", "heads", "hidden"}
        if not required.issubset(base):
            raise ConfigError(f"[encoder] needs at least {sorted(required)}")
        kwargs["encoder"] = EncoderConfig(**base)

    adapt_section = sections.pop("adaptation", None)
    if adapt_section is not None:
        unknown = set(adapt_section) - set(_ADAPT_KEYS)
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)} in section [adaptation]")
        kwargs["adaptation"] = AdaptationConfig(
            **{k: _convert(v, _ADAPT_KEYS[k]) for k, v in adapt_section.items()}
        )

    if sections:
        raise ConfigError(f"unknown config sections: {sorted(sections)}")
    if "seed" not in kwargs:
        raise ConfigError("[experiment] must set a seed")
    return RunConfig(**kwargs)
