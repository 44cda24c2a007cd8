"""Config file parsing: defaults, presets, validation."""

import pytest

from confsv.config import RunConfig, load_run_config
from confsv.errors import ConfigError


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
strategy = distill

[encoder]
preset = half_small
dropout = 0.05

[optim]
lr = 0.01
batch_size = 8
epochs = 3

[loss]
alpha = 0.5

[adaptation]
variant = V3
adapted_layers = 4
extra_layers = 2
""")
    cfg = load_run_config(path)
    assert cfg.name == "exp1" and cfg.seed == 9 and cfg.strategy == "distill"
    assert cfg.encoder.layers == 8 and cfg.encoder.dim == 176
    assert cfg.encoder.subsample_rate == 0.5 and cfg.encoder.dropout == 0.05
    assert cfg.lr == 0.01 and cfg.alpha == 0.5
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


def test_incomplete_encoder_rejected(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\n[encoder]\nlayers = 2\ndim = 16\n")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_bad_value_type(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\n[optim]\nepochs = many\n")
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


def test_strategy_validation():
    with pytest.raises(ConfigError):
        RunConfig(strategy="finetune")
    with pytest.raises(ConfigError):
        RunConfig(strategy="adapt")  # needs an adaptation section
