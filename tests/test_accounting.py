"""Size/MACs accounting: published figures, live-model tallies, conventions."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import confsv
from confsv.accounting import count_adaptation_params, count_params, estimate_macs
from confsv.adaptation import AdaptationConfig, SpeakerAdaptation
from confsv.cli import EXIT_CONFIG, EXIT_OK, main
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

    def test_monotone_in_layers_dim_hidden(self):
        base = EncoderConfig(4, 32, 4, 64)
        total = count_params(base).total_params
        assert count_params(EncoderConfig(5, 32, 4, 64)).total_params > total
        assert count_params(EncoderConfig(4, 64, 4, 64)).total_params > total
        assert count_params(EncoderConfig(4, 32, 4, 96)).total_params > total

    @pytest.mark.parametrize("layers,scope", sorted(LARGE_TRUNCATED_M))
    def test_truncated_large_sizes(self, layers, scope):
        cfg = replace(ENCODER_PRESETS["large"], layers=layers)
        total = count_params(cfg, scope=scope).total_params
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

    def test_degenerate_l0_k0_is_a_config_error(self, capsys):
        """No add-on taps zero layers, so there is no L = 0 size to report."""
        with pytest.raises(ConfigError):
            AdaptationConfig("V2", 0, 0)
        assert main(["count", "--preset", "small", "--variant", "V2",
                     "--adapted-layers", "0"]) == EXIT_CONFIG
        assert "adapted_layers" in capsys.readouterr().err


# Exact totals, fixed integers that do not depend on the model code: any change
# to a layer's shape shows here.  (preset) -> speaker, encoder, encoder+decoder.
EXACT_PRESET_TOTALS = {
    "small": (15876288, 12972608, 12974555),
    "medium": (35256704, 30505472, 30508299),
    "large": (130937216, 121435136, 121440779),
    "half_small": (8729104, 7277072, 7279019),
    "half_medium": (19300992, 16925184, 16928011),
    "half_large": (72156032, 67404800, 67410443),
}
EXACT_LARGE_TRUNCATED = {(4, "speaker"): 35015040, (6, "speaker"): 48718208,
                         (8, "speaker"): 62421376, (6, "encoder"): 45550592,
                         (10, "encoder"): 70845440, (14, "encoder"): 96140288}
EXACT_ADAPTATION = {
    ("V2", 12, 0, "small"): 2057088,
    ("V3", 10, 2, "large"): 4917616,
    ("V3", 14, 2, "large"): 6135664,
    ("V1", 4, 0, "small"): 726208,
    ("V1", 8, 4, "small"): 5195904,
    ("V2", 8, 2, "small"): 3243456,
    ("V3", 12, 4, "small"): 6172848,
    ("V2", 6, 0, "medium"): 1135408,
    ("V3", 14, 2, "medium"): 5046128,
    ("V1", 10, 0, "large"): 5369392,
    ("V2", 14, 4, "large"): 6836144,
    ("V3", 6, 2, "large"): 3699568,
}
SMALL_CSV = (
    "component,params,macs\n"
    "subsampling,900416,0\n"
    "blocks (16 x 754512),12072192,0\n"
    "mfa_norm,5632,0\n"
    "pooling,1444736,0\n"
    "embedding_head,1453312,0\n"
    "total,15876288,0\n"
)
LARGE_V3_L10_K2_CSV = (
    "component,params,macs\n"
    "layer_adaptors (10 x 82432),824320,0\n"
    "concat_linear,901296,0\n"
    "light_blocks (2 x 754512),1509024,0\n"
    "mfa_norm,3264,0\n"
    "pooling,837344,0\n"
    "embedding_head,842368,0\n"
    "total,4917616,0\n"
)


class TestExactTotals:
    @pytest.mark.parametrize("preset", sorted(EXACT_PRESET_TOTALS))
    def test_preset_scopes(self, preset):
        totals = tuple(count_params(ENCODER_PRESETS[preset], scope=scope).total_params
                       for scope in ("speaker", "encoder", "encoder+decoder"))
        assert totals == EXACT_PRESET_TOTALS[preset]

    @pytest.mark.parametrize("layers,scope", sorted(EXACT_LARGE_TRUNCATED))
    def test_truncated_large(self, layers, scope):
        report = count_params(replace(ENCODER_PRESETS["large"], layers=layers), scope=scope)
        assert report.total_params == EXACT_LARGE_TRUNCATED[(layers, scope)]

    @pytest.mark.parametrize("key", sorted(EXACT_ADAPTATION))
    def test_adaptation_cells(self, key):
        variant, L, K, backbone = key
        report = count_adaptation_params(AdaptationConfig(variant, L, K),
                                         ENCODER_PRESETS[backbone])
        assert report.total_params == EXACT_ADAPTATION[key]

    @pytest.mark.parametrize("args,expected", [
        (["--preset", "small"], SMALL_CSV),
        (["--preset", "large", "--variant", "V3", "--adapted-layers", "10",
          "--extra-layers", "2"], LARGE_V3_L10_K2_CSV),
    ], ids=["small", "large-V3-L10-K2"])
    def test_count_csv_bytes(self, tmp_path, args, expected):
        csv_path = tmp_path / "r.csv"
        assert main(["count", *args, "--csv", str(csv_path)]) == EXIT_OK
        assert csv_path.read_bytes() == expected.encode("utf-8")


# Runs `count` in a child and reports the child's exit code and peak RSS (KiB),
# read with wait4.  A process keeps the peak RSS of the image it exec'd from,
# so this launcher, not the test process, is the count's parent.
_MEASURE_COUNT = """
import os, sys
count = "import sys; from confsv.cli import main; sys.exit(main(sys.argv[1:]))"
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", count, "count", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestCountCost:
    def test_largest_count_stays_small_in_memory(self):
        """The counted model's arrays are never written, so their pages are
        never backed: seeding them would cost about 1 GB here."""
        src = os.path.dirname(os.path.dirname(confsv.__file__))
        run = subprocess.run(
            [sys.executable, "-c", _MEASURE_COUNT, "--preset", "large", "--variant", "V3",
             "--adapted-layers", "14", "--extra-layers", "2"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        code, peak_kib = map(int, run.stdout.split())
        assert code == 0
        assert peak_kib / 1024 < 100


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"convention": "flops"}, "unknown MACs convention 'flops'"),
        ({"scope": "decoder"}, "unknown scope 'decoder'"),
    ])
    def test_unknown_convention_or_scope(self, kwargs, message):
        """`count` offers only the valid choices; a Python caller gets a ConfigError."""
        with pytest.raises(ConfigError, match=message):
            estimate_macs(ENCODER_PRESETS["small"], **kwargs)

    @pytest.mark.parametrize("seconds", [1e308, float("inf"), float("nan")])
    def test_length_without_a_finite_frame_count(self, seconds):
        """1e308 s is a finite length whose frame count overflows to inf."""
        with pytest.raises(ConfigError) as err:
            estimate_macs(ENCODER_PRESETS["small"], input_seconds=seconds)
        assert str(err.value) == (
            f"input length must give a finite mel frame count, got {seconds}")

    def test_report_render(self):
        report = estimate_macs(ENCODER_PRESETS["small"])
        csv = report.to_csv()
        assert csv.startswith("component,params,macs")
        assert str(report.total_macs) in csv
        assert "total" in report.to_text()


# Exact MACs, fixed integers captured before the counts were read from the
# built model: any module change that moves a layer's MACs shows here.
# (preset, seconds, convention) -> subsampling, one block, ctc_decoder, pooling,
# embedding_head, and the speaker-scope total.
EXACT_MACS = {
    ("half_large", 1, "conv"): (9216000, 40115200, 0, 117964800, 0, 488217600),
    ("half_large", 1, "full"): (533504000, 332051456, 281600, 117964800, 2359296, 3642291200),
    ("half_large", 5, "conv"): (46080000, 200576000, 0, 589824000, 0, 2441088000),
    ("half_large", 5, "full"): (2667520000, 1738105856, 1408000, 589824000, 2359296, 18902656000),
    ("half_medium", 1, "conv"): (4608000, 10227200, 0, 58982400, 0, 155635200),
    ("half_medium", 1, "full"): (135680000, 84171264, 140800, 58982400, 1179648, 953383424),
    ("half_medium", 5, "conv"): (23040000, 51136000, 0, 294912000, 0, 778176000),
    ("half_medium", 5, "full"): (678400000, 459518464, 704000, 294912000, 1179648, 5110157824),
    ("half_small", 1, "conv"): (3168000, 4919200, 0, 36044800, 0, 78566400),
    ("half_small", 1, "full"): (65120000, 40281824, 96800, 36044800, 720896, 424140288),
    ("half_small", 5, "conv"): (15840000, 24596000, 0, 180224000, 0, 392832000),
    ("half_small", 5, "full"): (325600000, 227933024, 484000, 180224000, 720896, 2330009088),
    ("large", 1, "conv"): (1188864000, 20057600, 0, 117964800, 0, 1667865600),
    ("large", 1, "full"): (1319936000, 164934656, 140800, 117964800, 4718592, 4411443200),
    ("large", 5, "conv"): (5944320000, 100288000, 0, 589824000, 0, 8339328000),
    ("large", 5, "full"): (6599680000, 844921856, 704000, 589824000, 4718592, 22402816000),
    ("medium", 1, "conv"): (299520000, 5113600, 0, 58982400, 0, 450547200),
    ("medium", 1, "full"): (332288000, 41572864, 70400, 58982400, 2359296, 1141941248),
    ("medium", 5, "conv"): (1497600000, 25568000, 0, 294912000, 0, 2252736000),
    ("medium", 5, "full"): (1661440000, 217726464, 352000, 294912000, 2359296, 5877787648),
    ("small", 1, "conv"): (142560000, 2459600, 0, 36044800, 0, 217958400),
    ("small", 1, "full"): (158048000, 19795424, 48400, 36044800, 1441792, 512261376),
    ("small", 5, "conv"): (712800000, 12298000, 0, 180224000, 0, 1089792000),
    ("small", 5, "full"): (790240000, 105701024, 242000, 180224000, 1441792, 2663122176),
}


class TestExactMacs:
    @pytest.mark.parametrize("scope", ["encoder", "encoder+decoder", "speaker"])
    @pytest.mark.parametrize("key", sorted(EXACT_MACS))
    def test_entries_and_total(self, key, scope):
        preset, seconds, convention = key
        sub, block, decoder, pooling, head, speaker_total = EXACT_MACS[key]
        layers = ENCODER_PRESETS[preset].layers
        expected = [("subsampling", sub), (f"blocks ({layers} x {block})", layers * block)]
        if scope == "encoder+decoder":
            expected.append(("ctc_decoder", decoder))
        if scope == "speaker":
            expected.append(("pooling", pooling))
            if convention == "full":
                expected.append(("embedding_head", head))
        report = estimate_macs(ENCODER_PRESETS[preset], seconds, convention, scope)
        assert [(e.name, e.params, e.macs) for e in report.entries] == [
            (name, 0, macs) for name, macs in expected]
        assert report.total_macs == sum(macs for _, macs in expected)
        if scope == "speaker":
            assert report.total_macs == speaker_total
