"""Size/MACs accounting: published figures, live-model tallies, conventions."""

import numpy as np
import pytest

from confsv.accounting import (
    count_adaptation_params,
    count_params,
    estimate_macs,
    linear_params,
)
from confsv.adaptation import AdaptationConfig, SpeakerAdaptation
from confsv.conformer import ENCODER_PRESETS, ConformerEncoder, EncoderConfig
from confsv.errors import ConfigError
from confsv.heads import SpeakerModel

from conftest import param_count

# Published model sizes (millions of parameters) for the six encoder stacks,
# full-model speaker scope.
SPEAKER_SIZES_M = {
    "small": 15.88,
    "medium": 35.26,
    "large": 130.94,
    "half_small": 8.73,
    "half_medium": 19.30,
    "half_large": 72.16,
}

# Published MACs for a 5-second input under the convolution-counted convention.
MACS = {
    "small": 1.12e9,
    "medium": 2.31e9,
    "large": 8.53e9,
    "half_small": 405.18e6,
    "half_medium": 803.04e6,
    "half_large": 2.52e9,
}

# Published adaptation-module sizes (M): (variant, L, K, backbone) -> size.
ADAPTATION_SIZES_M = {
    ("V2", 12, 0, "small"): 2.06,
    ("V3", 10, 2, "large"): 4.92,
    ("V3", 14, 2, "large"): 6.14,
    ("V1", 4, 0, "small"): 0.73,
    ("V1", 8, 4, "small"): 5.20,
    ("V2", 8, 2, "small"): 3.24,
    ("V3", 12, 4, "small"): 6.17,
    ("V2", 6, 0, "medium"): 1.14,
    ("V3", 14, 2, "medium"): 5.05,
    ("V1", 10, 0, "large"): 5.37,
    ("V2", 14, 4, "large"): 6.84,
    ("V3", 6, 2, "large"): 3.70,
}

# Published truncated-stack sizes (M): (layers, scope) on the large encoder.
LARGE_TRUNCATED_M = {(4, "speaker"): 35.02, (6, "speaker"): 48.72, (8, "speaker"): 62.42,
                     (6, "encoder"): 45.55, (10, "encoder"): 70.85, (14, "encoder"): 96.14}


class TestEncoderSizes:
    @pytest.mark.parametrize("preset,millions", sorted(SPEAKER_SIZES_M.items()))
    def test_speaker_scope_matches_published(self, preset, millions):
        total = count_params(ENCODER_PRESETS[preset], scope="speaker").total_params
        assert abs(total / 1e6 - millions) / millions < 0.15
        # the decomposition lands on the published rounding exactly
        assert round(total / 1e6, 2) == millions

    def test_large_to_small_ratio(self):
        ratio = (
            count_params(ENCODER_PRESETS["large"]).total_params
            / count_params(ENCODER_PRESETS["small"]).total_params
        )
        assert abs(ratio - 8.25) / 8.25 < 0.10

    def test_breakdown_sums_to_total(self):
        report = count_params(ENCODER_PRESETS["medium"], scope="speaker")
        assert sum(e.params for e in report.entries) == report.total_params

    def test_single_linear_layer(self):
        assert linear_params(3, 2, bias=True) == 8

    def test_monotone_in_layers_dim_hidden(self):
        base = EncoderConfig(4, 32, 4, 64)
        total = count_params(base).total_params
        assert count_params(EncoderConfig(5, 32, 4, 64)).total_params > total
        assert count_params(EncoderConfig(4, 64, 4, 64)).total_params > total
        assert count_params(EncoderConfig(4, 32, 4, 96)).total_params > total

    @pytest.mark.parametrize("layers,scope", sorted(LARGE_TRUNCATED_M))
    def test_truncated_large_sizes(self, layers, scope):
        total = count_params(ENCODER_PRESETS["large"], scope=scope, layers=layers).total_params
        expected = LARGE_TRUNCATED_M[(layers, scope)]
        assert abs(total / 1e6 - expected) / expected < 0.10
        assert round(total / 1e6, 2) == expected

    def test_bad_scope(self):
        with pytest.raises(ConfigError):
            count_params(ENCODER_PRESETS["small"], scope="everything")


class TestAdaptationSizes:
    @pytest.mark.parametrize("key", sorted(ADAPTATION_SIZES_M))
    def test_matches_published_cells(self, key):
        variant, L, K, backbone = key
        cfg = AdaptationConfig(variant, L, K)
        total = count_adaptation_params(cfg, ENCODER_PRESETS[backbone]).total_params
        expected = ADAPTATION_SIZES_M[key]
        assert abs(total / 1e6 - expected) / expected < 0.10
        assert round(total / 1e6, 2) == expected

    def test_breakdown_sums(self):
        report = count_adaptation_params(AdaptationConfig("V3", 8, 2), ENCODER_PRESETS["medium"])
        assert sum(e.params for e in report.entries) == report.total_params

    def test_depth_check(self):
        with pytest.raises(ConfigError):
            count_adaptation_params(AdaptationConfig("V2", 20, 0), ENCODER_PRESETS["small"])

    def test_degenerate_l0_k0_counts_pooling_and_head_only(self):
        report = count_adaptation_params(AdaptationConfig("V2", 0, 0), ENCODER_PRESETS["small"])
        names = {e.name for e in report.entries}
        assert not any("adaptor" in n or "light" in n or "concat" in n for n in names)
        assert {"pooling", "embedding_head", "mfa_norm"} == names


class TestLiveTallies:
    """count_params must equal the instantiated model, integer-exact."""

    @pytest.mark.parametrize("cfg", [
        EncoderConfig(2, 16, 4, 32, 0.25, conv_kernel=7),
        EncoderConfig(3, 24, 4, 48, 0.5, conv_kernel=9),
        EncoderConfig(1, 8, 2, 16, 0.25, conv_kernel=3),
    ])
    def test_speaker_model_tally(self, cfg):
        model = SpeakerModel(cfg)
        assert param_count(model) == count_params(cfg, scope="speaker").total_params

    def test_encoder_tally(self):
        cfg = EncoderConfig(2, 16, 4, 32, 0.25, conv_kernel=7)
        enc = ConformerEncoder(cfg)
        assert param_count(enc) == count_params(cfg, scope="encoder").total_params

    def test_small_preset_tally(self):
        cfg = ENCODER_PRESETS["small"]
        model = SpeakerModel(cfg)
        assert param_count(model) == count_params(cfg, scope="speaker").total_params

    @pytest.mark.parametrize("variant,k", [("V1", 2), ("V2", 0), ("V3", 1)])
    def test_adaptation_tally(self, variant, k):
        backbone = ConformerEncoder(EncoderConfig(3, 16, 4, 32, 0.25, conv_kernel=7))
        cfg = AdaptationConfig(variant, 2, k, light_dim=24, light_heads=4,
                               light_hidden=32, light_kernel=7)
        module = SpeakerAdaptation(backbone, cfg, seed=None)
        assert param_count(module) == count_adaptation_params(cfg, backbone.cfg).total_params


class TestMacs:
    @pytest.mark.parametrize("preset", sorted(MACS))
    def test_conv_convention_matches_published(self, preset):
        report = estimate_macs(ENCODER_PRESETS[preset], input_seconds=5.0, convention="conv")
        expected = MACS[preset]
        assert abs(report.total_macs - expected) / expected < 0.20

    def test_full_convention_strictly_larger(self):
        cfg = ENCODER_PRESETS["small"]
        conv = estimate_macs(cfg, convention="conv").total_macs
        full = estimate_macs(cfg, convention="full").total_macs
        assert full > conv

    def test_breakdown_sums(self):
        report = estimate_macs(ENCODER_PRESETS["half_small"])
        assert sum(e.macs for e in report.entries) == report.total_macs

    def test_frames_follow_length_convention(self):
        # 5 s -> 500 mel frames -> 125 at quarter rate per floor((n-1)/2)+1 twice
        report = estimate_macs(EncoderConfig(1, 8, 2, 16, 0.25, conv_kernel=3),
                               input_seconds=5.0, convention="conv", scope="encoder")
        pooling_free = report.total_macs
        # one block at T'=125: 125 * (2dd + dk + dd) with d=8, k=3
        per_block = 125 * (2 * 64 + 24 + 64)
        assert any(e.macs == per_block for e in report.entries)

    def test_report_render(self):
        report = estimate_macs(ENCODER_PRESETS["small"])
        csv = report.to_csv()
        assert csv.startswith("component,params,macs")
        assert str(report.total_macs) in csv
        assert "total" in report.to_text()
