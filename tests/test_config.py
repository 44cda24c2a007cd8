"""Config file parsing: defaults, presets, validation, the section schema,
and fuzzed files that must parse or raise a ConfigError."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv.adaptation import AdaptationConfig
from confsv.config import _SECTIONS, RunConfig, load_run_config
from confsv.conformer import EncoderConfig
from confsv.errors import ConfigError

from test_cli import fuzzed


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_carry_standard_hyperparameters():
    cfg = RunConfig()
    assert cfg.lr == 0.001
    assert cfg.weight_decay == 1e-7
    assert cfg.warmup_epochs == 1.0
    assert cfg.aam_scale == 32.0
    assert cfg.aam_margin == 0.2
    assert cfg.lmft_margin == 0.5
    assert cfg.lmft_crop_seconds == 6.0
    assert cfg.crop_seconds == 2.0
    assert cfg.augment_prob == 0.6


def test_full_file_round_trip(tmp_path):
    path = write(tmp_path, """
# comment
[experiment]
name = exp1
seed = 9

[encoder]
preset = half_small
dropout = 0.05

[optim]
lr = 0.01
batch_size = 8
epochs = 3

[loss]
alpha = 0.5

[schedule]
truncate_layers = 3

[adaptation]
variant = V3
adapted_layers = 4
extra_layers = 2
""")
    cfg = load_run_config(path)
    assert cfg.name == "exp1" and cfg.seed == 9
    assert cfg.encoder.layers == 8 and cfg.encoder.dim == 176
    assert cfg.encoder.subsample_rate == 0.5 and cfg.encoder.dropout == 0.05
    assert cfg.lr == 0.01 and cfg.alpha == 0.5
    assert cfg.truncate_layers == 3  # Optional[int] converts as int
    assert cfg.adaptation.variant == "V3" and cfg.adaptation.extra_layers == 2


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\n[optim]\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_missing_seed_rejected(tmp_path):
    path = write(tmp_path, "[experiment]\nname = x\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


@pytest.mark.parametrize("section", ["[encoder]\nlayers = 2\ndim = 16",
                                     "[adaptation]\nvariant = V1"])
def test_incomplete_section_rejected(tmp_path, section):
    path = write(tmp_path, f"[experiment]\nseed = 1\n{section}\n")
    with pytest.raises(ConfigError, match="needs at least"):
        load_run_config(path)


@pytest.mark.parametrize("line", ["epochs = many", "lr = nan", "lr = -inf", "lr = 1e999"])
def test_bad_value_type(tmp_path, line):
    path = write(tmp_path, f"[experiment]\nseed = 1\n[optim]\n{line}\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_line_outside_section_rejected(tmp_path):
    path = write(tmp_path, "seed = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_config_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[experiment]\nname = \xff\nseed = 1\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_run_config(path)


def sectionless_fields(sections) -> list[str]:
    """RunConfig fields not in exactly one file section, and section names
    that are not fields; `encoder` and `adaptation` have sections of their own."""
    listed = [name for names in sections.values() for name in names]
    want = {f.name for f in dataclasses.fields(RunConfig)} - {"encoder", "adaptation"}
    return sorted(name for name in want | set(listed) if listed.count(name) != (name in want))


def test_every_run_field_sits_in_exactly_one_section():
    assert sectionless_fields(_SECTIONS) == []


def test_a_field_without_a_section_is_caught():
    sections = {**_SECTIONS, "optim": tuple(n for n in _SECTIONS["optim"] if n != "lr")}
    assert sectionless_fields(sections) == ["lr"]
    sections = {**_SECTIONS, "loss": _SECTIONS["loss"] + ("lr",)}
    assert sectionless_fields(sections) == ["lr"]


SECTION_KEYS = {**_SECTIONS,
                "encoder": ("preset", *(f.name for f in dataclasses.fields(EncoderConfig))),
                "adaptation": tuple(f.name for f in dataclasses.fields(AdaptationConfig))}
VALUES = st.sampled_from(["0", "1", "2", "4", "16", "-1", "0.25", "0.5", "1e3", "nan", "inf",
                          "-inf", "1e999", "true", "no", "V1", "V3", "half_small", "x", ""])


def section(name):
    """A section header and a few of its keys, plus `strategy` and a typo."""
    keys = st.sampled_from([*SECTION_KEYS.get(name, ()), "strategy", "lerning_rate"])
    body = st.lists(st.tuples(keys, VALUES).map(" = ".join), max_size=4)
    return body.map(lambda lines: "\n".join([f"[{name}]", *lines]))


CONFIG_SECTIONS = st.one_of(
    st.just("[experiment]\nseed = 3"),
    st.sampled_from([*SECTION_KEYS, "mystery"]).flatmap(section),
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=300, deadline=None)
@given(data=fuzzed(CONFIG_SECTIONS))
def test_fuzzed_config_parses_or_raises_config_error(config_dir, data):
    path = config_dir / "run.cfg"
    path.write_bytes(data)
    try:
        cfg = load_run_config(path)
    except ConfigError:
        return
    parts = [cfg, cfg.encoder] + ([cfg.adaptation] if cfg.adaptation else [])
    assert all(math.isfinite(v) for part in parts for v in vars(part).values()
               if isinstance(v, float))
