"""Command-line surface: determinism, exit codes, file outputs."""

import os
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv import checkpoint as ckpt
from confsv.adaptation import AdaptationConfig, SpeakerAdaptation
from confsv.checkpoint import load_checkpoint, save_checkpoint
from confsv.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from confsv.config import load_run_config
from confsv.conformer import ConformerEncoder, EncoderConfig
from confsv.datapipe import SAMPLE_RATE, VOCAB_SIZE, read_manifest
from confsv.errors import DataError
from confsv.heads import SpeakerModel
from confsv.losses import CtcDecoder
from confsv.nn import seed_parameters
from confsv.scoring import load_embeddings, parse_trials, save_embeddings
from confsv.training import (
    load_asr_model,
    load_embedder,
    save_adaptation,
    save_asr_checkpoint,
    save_speaker_checkpoint,
)
from confsv.util import rng_for

from conftest import seeded, toy_run_config

MINI_CONFIG = """
[experiment]
name = mini
seed = 5

[data]
n_speakers = 4
utts_per_speaker = 6
augment_prob = 0.0

[encoder]
layers = 1
dim = 16
heads = 4
hidden = 32
subsample_rate = 0.25
conv_kernel = 7
dropout = 0.1

[optim]
lr = 0.002
batch_size = 12
epochs = 2
"""

HALF_RATE_DISTILL_CONFIG = (
    MINI_CONFIG.replace("subsample_rate = 0.25", "subsample_rate = 0.5")
    + "\n[loss]\nalpha = 0.5\n"
)

V3_ADAPT_CONFIG = MINI_CONFIG + (
    "\n[adaptation]\nvariant = V3\nadapted_layers = 1\nextra_layers = 1\n"
    "light_dim = 16\nlight_hidden = 32\nlight_kernel = 7\n"
)


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini_cli")
    config = root / "run.cfg"
    config.write_text(MINI_CONFIG, encoding="utf-8")
    data_dir = root / "data"
    assert main(["gen-data", "--config", str(config), "--out", str(data_dir)]) == EXIT_OK
    manifest = data_dir / "manifest.txt"
    asr_dir = root / "asr"
    assert main([
        "pretrain-asr", "--config", str(config), "--manifest", str(manifest),
        "--out", str(asr_dir),
    ]) == EXIT_OK
    return {
        "root": root,
        "config": config,
        "manifest": manifest,
        "asr_ckpt": asr_dir / "asr.ckpt",
    }


class TestGenData:
    def test_same_seed_gives_identical_manifests(self, mini, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--config", str(mini["config"]), "--out", str(out)]) == EXIT_OK
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
        wav = sorted((a / "wavs").iterdir())[0].name
        assert (a / "wavs" / wav).read_bytes() == (b / "wavs" / wav).read_bytes()

    def test_speaker_count_in_manifest(self, mini):
        lines = mini["manifest"].read_text().splitlines()
        speakers = {line.split()[1] for line in lines}
        assert len(speakers) == 4

    def test_unwritable_out_fails_without_partial_manifest(self, mini, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub"  # mkdir under a regular file fails
        assert main(["gen-data", "--config", str(mini["config"]), "--out", str(out)]) == EXIT_DATA
        assert not (blocker / "sub").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[experiment]\nname = \xff\nseed = 1\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "not UTF-8" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[optim]\nlearning_rate = 0.1\n", encoding="utf-8")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_negative_frozen_epochs_exits_2(self, tmp_path, capsys):
        """Only `train --init` used to check it; every other command ran."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG + "\n[schedule]\nfrozen_epochs = -1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "frozen_epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("utts", ["0", "-3"])
    def test_no_utterances_per_speaker_exits_2(self, tmp_path, capsys, utts):
        """0 wrote a manifest of one newline that every later command failed on;
        -3 ended in a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG.replace("utts_per_speaker = 6", f"utts_per_speaker = {utts}"),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "utterance" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("prob", ["-0.5", "1.5"])
    def test_augment_prob_outside_0_1_exits_2(self, tmp_path, capsys, prob):
        """-0.5 trained with no augmentation; 1.5 failed in the first batch worker."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG.replace("augment_prob = 0.0", f"augment_prob = {prob}"),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "augment_prob" in capsys.readouterr().err
        assert not out.exists()

    def test_augment_prob_of_1_loads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG.replace("augment_prob = 0.0", "augment_prob = 1.0"),
                       encoding="utf-8")
        assert load_run_config(cfg).augment_prob == 1.0

    @pytest.mark.parametrize("text, message", [
        ("[data]\nspeed_perturb = maybe\n", "expected a boolean, got 'maybe'"),
        ("[encoder]\npreset = huge\n", "unknown encoder preset 'huge'"),
        ("[encoder]\nlayers = 0\ndim = 16\nheads = 4\nhidden = 32\n",
         "layers/dim/heads/hidden must be positive"),
        ("[encoder]\nlayers = 1\ndim = 16\nheads = 4\nhidden = -32\n",
         "layers/dim/heads/hidden must be positive"),
        ("[encoder]\nlayers = 1\ndim = 16\nheads = 4\nhidden = 32\ndropout = 1.0\n",
         "dropout must be in [0, 1)"),
        ("[adaptation]\nvariant = V2\nadapted_layers = 1\nextra_layers = -1\n",
         "extra_layers must be >= 0"),
    ], ids=["bool", "preset", "layers", "hidden", "dropout", "extra_layers"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nseed = 1\n" + text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestGenTrials:
    @pytest.mark.parametrize("n_target, n_nontarget, message", [
        ("-3", "4", "got -3 target and 4 non-target"),
        ("0", "0", "got 0 target and 0 non-target"),
    ], ids=["negative", "empty"])
    def test_negative_or_empty_counts_exit_2_and_write_no_file(
            self, tmp_path, capsys, n_target, n_nontarget, message):
        """-3 wrote a list with no target trials; 0 and 0 wrote one empty line."""
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"wavs/{s}{i}.wav spk{s} ae 1.000\n"
                                    for s in "ab" for i in range(2)), encoding="utf-8")
        out = tmp_path / "t"
        assert main(["gen-trials", "--manifest", str(manifest), "--out", str(out),
                     "--n-target", n_target, "--n-nontarget", n_nontarget]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: trial counts must be >= 0 and not both 0, {message}\n")
        assert not out.exists()

    def test_manifest_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"wavs/a.wav spk0 ae 1.000\nwavs/b\xff.wav spk1 ae 1.000\n")
        code = main(["gen-trials", "--manifest", str(manifest), "--out", str(tmp_path / "t")])
        assert code == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "-inf", "1e999", "-1"])
    def test_manifest_duration_that_is_not_finite_and_non_negative_exits_3(
            self, tmp_path, capsys, duration):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"wavs/a.wav spk0 ae 1.000\nwavs/b.wav spk1 ae {duration}\n",
                            encoding="utf-8")
        with pytest.raises(DataError, match="line 2: bad duration"):
            read_manifest(manifest)
        out = tmp_path / "t"
        assert main(["gen-trials", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
        assert "bad duration" in capsys.readouterr().err
        assert not out.exists()


def _asr_ckpt(path, enc_cfg):
    """An ASR checkpoint of seeded, untrained weights."""
    decoder = CtcDecoder(enc_cfg.dim, VOCAB_SIZE)
    seed_parameters(decoder, 12)
    encoder = seeded(ConformerEncoder(enc_cfg), 11, "encoder")
    save_asr_checkpoint(path, encoder, decoder, toy_run_config())
    return path


class TestTrain:
    def test_manifest_token_outside_the_inventory_exits_3(self, mini, tmp_path, capsys):
        wav = mini["manifest"].parent / read_manifest(mini["manifest"])[0].path
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{wav} spk000 aexo 2.300\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["pretrain-asr", "--config", str(mini["config"]), "--manifest",
                     str(manifest), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: unknown token 'x'\n"
        assert not (out / "asr.ckpt").exists()

    def test_stereo_wav_in_pretrain_asr_exits_3_naming_it_once(self, mini, tmp_path, capsys):
        """pretrain-asr reads every WAV header before training; the format
        error used to be wrapped again, naming the file twice."""
        entries = read_manifest(mini["manifest"])
        wav = tmp_path / "st.wav"
        _write_wav(wav, seconds=2.0, channels=2)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "".join(f"{mini['manifest'].parent / e.path} {e.speaker_id} {e.tokens} 2.300\n"
                    for e in entries[:3]) + f"{wav} spk000 aei 2.000\n",
            encoding="utf-8")
        out = tmp_path / "o"
        code = main(["pretrain-asr", "--config", str(mini["config"]), "--manifest",
                     str(manifest), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {wav}: expected 16-bit mono {SAMPLE_RATE} Hz WAV\n")
        assert not (out / "asr.ckpt").exists()

    def test_init_with_truncate_layers_starts_from_the_first_asr_blocks(self, mini, tmp_path):
        """The truncated initialization: a 2-block ASR encoder starts a 1-block
        run, and every epoch frozen keeps its subsampling and first block."""
        asr = _asr_ckpt(tmp_path / "asr2.ckpt", EncoderConfig(2, 16, 4, 32, conv_kernel=7))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG + "\n[schedule]\ntruncate_layers = 1\nfrozen_epochs = 2\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--manifest", str(mini["manifest"]),
                     "--out", str(out), "--init", str(asr)]) == EXIT_OK
        trained = dict(load_embedder(out / "speaker.ckpt").encoder.named_parameters())
        first = {name: p for name, p in load_asr_model(asr)[0].named_parameters()
                 if not name.startswith("blocks.1.")}
        assert trained.keys() == first.keys()
        assert all(trained[name].data.tobytes() == p.data.tobytes() for name, p in first.items())

    def test_init_from_another_encoder_than_the_runs_exits_2(self, mini, tmp_path, capsys):
        asr = _asr_ckpt(tmp_path / "asr2.ckpt", EncoderConfig(2, 16, 4, 32, conv_kernel=7))
        out = tmp_path / "o"
        code = main(["train", "--config", str(mini["config"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out), "--init", str(asr)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: run encoder config must match the checkpoint encoder\n")
        assert not (out / "speaker.ckpt").exists()

    def test_quarter_rate_student_under_a_half_rate_teacher_exits_2(self, mini, tmp_path,
                                                                    capsys):
        teacher = _asr_ckpt(tmp_path / "half.ckpt",
                            EncoderConfig(1, 16, 4, 32, 0.5, conv_kernel=7))
        out = tmp_path / "o"
        code = main(["distill", "--config", str(mini["config"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out), "--teacher", str(teacher)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unsupported student/teacher subsampling combination\n")
        assert not (out / "speaker.ckpt").exists()

    def test_loss_decreases_and_is_reproducible(self, mini, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = main([
                "train", "--config", str(mini["config"]),
                "--manifest", str(mini["manifest"]), "--out", str(out),
            ])
            assert code == EXIT_OK
        rows = (out1 / "loss.csv").read_text().splitlines()
        first, last = float(rows[1].split(",")[1]), float(rows[-1].split(",")[1])
        assert last < first
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "speaker.ckpt").read_bytes() == (out2 / "speaker.ckpt").read_bytes()

    def test_config_with_other_than_80_mel_bins_exits_2(self, mini, tmp_path, capsys):
        cfg = tmp_path / "mel40.cfg"
        cfg.write_text(MINI_CONFIG.replace("dropout = 0.1", "dropout = 0.1\nn_mels = 40"),
                       encoding="utf-8")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "n_mels must be 80" in capsys.readouterr().err
        assert not out.exists()

    def test_strategy_key_exits_2(self, mini, tmp_path, capsys):
        """The command picks the strategy; `train --init` under a file that said
        `strategy = adapt` used to train from scratch and exit 0."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(V3_ADAPT_CONFIG.replace("seed = 5", "seed = 5\nstrategy = adapt"),
                       encoding="utf-8")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--manifest", str(mini["manifest"]),
                     "--out", str(out), "--init", str(mini["asr_ckpt"])])
        assert code == EXIT_CONFIG
        assert "strategy" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("optim", "lr", "nan"), ("optim", "warmup_epochs", "inf"),
        ("data", "crop_seconds", "nan"), ("schedule", "lmft_crop_seconds", "inf"),
    ])
    def test_non_finite_config_number_exits_2(self, mini, tmp_path, capsys, section, key, value):
        """lr = nan used to train to a NaN checkpoint; the others ended in a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG + f"\n[{section}]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--manifest", str(mini["manifest"]),
                     "--out", str(out), "--init", str(mini["asr_ckpt"]), "--lmft"])
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (out / "speaker.ckpt").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("optim", "lr", "-1"), ("optim", "weight_decay", "-0.5"),
        ("optim", "warmup_epochs", "-5"), ("schedule", "lmft_epochs", "-3"),
        ("loss", "aam_scale", "0"), ("loss", "aam_margin", "2.0"),
        ("schedule", "lmft_margin", "-0.1"), ("loss", "alpha", "-1"),
        ("data", "crop_seconds", "-1"), ("schedule", "lmft_crop_seconds", "0.4"),
        ("experiment", "vocab", "3"),
    ])
    def test_out_of_range_config_number_exits_2(self, mini, tmp_path, capsys, section, key,
                                                value):
        """Each ran before: lr = -1 ascended the loss, lmft_epochs = -3 skipped LMFT,
        alpha = -1 dropped the KL term, aam_margin = 2 and crop_seconds = -1
        exited 3 as data errors, and vocab = 3 ended pretrain-asr in a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG + f"\n[{section}]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        command = {
            "vocab": ["pretrain-asr"],
            "alpha": ["distill", "--teacher", str(mini["asr_ckpt"])],
        }.get(key, ["train", "--init", str(mini["asr_ckpt"]), "--lmft"])
        code = main(command + ["--config", str(cfg), "--manifest", str(mini["manifest"]),
                               "--out", str(out)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_negative_distill_alpha_flag_exits_2(self, mini, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["distill", "--config", str(mini["config"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out), "--teacher",
                     str(mini["asr_ckpt"]), "--alpha", "-1"])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frozen_epochs, kept", [(2, True), (1, False)])
    def test_init_keeps_the_asr_encoder_through_its_frozen_epochs(self, mini, tmp_path,
                                                                  frozen_epochs, kept):
        """With every epoch frozen, the trained encoder's arrays, batch-norm
        running statistics included, are the ASR encoder's, bit for bit."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINI_CONFIG + f"\n[schedule]\nfrozen_epochs = {frozen_epochs}\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--manifest", str(mini["manifest"]),
                     "--out", str(out), "--init", str(mini["asr_ckpt"])]) == EXIT_OK
        trained = load_embedder(out / "speaker.ckpt").encoder.state_arrays()
        asr = load_asr_model(mini["asr_ckpt"])[0].state_arrays()
        assert trained.keys() == asr.keys()
        same = [trained[n].tobytes() == a.tobytes() for n, a in asr.items()]
        assert all(same) if kept else not all(same)

    def test_pretrained_init_requires_matching_encoder(self, mini, tmp_path):
        code = main([
            "train", "--config", str(mini["config"]), "--manifest", str(mini["manifest"]),
            "--out", str(tmp_path / "o"), "--init", str(mini["asr_ckpt"]),
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("command, config, ckpt", [
        ("distill", HALF_RATE_DISTILL_CONFIG, "speaker.ckpt"),  # runs the rate matcher
        ("adapt", V3_ADAPT_CONFIG, "adaptation.ckpt"),
    ])
    def test_distill_and_adapt_are_reproducible(self, mini, tmp_path, command, config, ckpt):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main([
                command, "--config", str(cfg), "--manifest", str(mini["manifest"]),
                "--out", str(out), "--teacher", str(mini["asr_ckpt"]),
            ]) == EXIT_OK
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / ckpt).read_bytes() == (out2 / ckpt).read_bytes()

    def test_distill_lmft_rows_have_every_header_field(self, mini, tmp_path):
        cfg = tmp_path / "lmft.cfg"
        cfg.write_text(MINI_CONFIG + "\n[schedule]\nlmft = true\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main([
            "distill", "--config", str(cfg), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--teacher", str(mini["asr_ckpt"]),
        ]) == EXIT_OK
        header, *rows = (out / "loss.csv").read_text().splitlines()
        assert header == "epoch,loss,loss_spk,loss_distill"
        assert len(rows) == 2 + 2  # 2 training epochs, 2 LMFT epochs
        assert all(len(row.split(",")) == 4 for row in rows)
        # LMFT has no distillation term: loss_spk is the loss, loss_distill 0
        for row in rows[2:]:
            _, loss, loss_spk, loss_distill = row.split(",")
            assert loss_spk == loss and float(loss_distill) == 0.0

    def test_missing_teacher_for_distill(self, mini, tmp_path):
        code = main([
            "distill", "--config", str(mini["config"]), "--manifest", str(mini["manifest"]),
            "--out", str(tmp_path / "o"), "--teacher", str(tmp_path / "nope.ckpt"),
        ])
        assert code == EXIT_DATA


class TestAdapt:
    def test_adapt_preserves_backbone_checkpoint(self, mini, tmp_path):
        cfg = tmp_path / "adapt.cfg"
        cfg.write_text(
            MINI_CONFIG + "\n[adaptation]\nvariant = V2\nadapted_layers = 1\n"
            "extra_layers = 0\nlight_dim = 16\nlight_hidden = 32\nlight_kernel = 7\n",
            encoding="utf-8",
        )
        before = mini["asr_ckpt"].read_bytes()
        code = main([
            "adapt", "--config", str(cfg), "--manifest", str(mini["manifest"]),
            "--out", str(tmp_path / "o"), "--teacher", str(mini["asr_ckpt"]),
        ])
        assert code == EXIT_OK
        assert mini["asr_ckpt"].read_bytes() == before
        meta, _ = load_checkpoint(tmp_path / "o" / "adaptation.ckpt")
        assert meta["kind"] == "adaptation"

    def test_adapt_without_an_adaptation_section_exits_2(self, mini, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "adapt", "--config", str(mini["config"]), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--teacher", str(mini["asr_ckpt"]),
        ])
        assert code == EXIT_CONFIG
        assert "adaptation" in capsys.readouterr().err
        assert not (out / "adaptation.ckpt").exists()


def _speaker_ckpt(path):
    model = seeded(SpeakerModel(EncoderConfig(1, 16, 4, 32, conv_kernel=7)), 3, "speaker_model")
    save_speaker_checkpoint(path, model, toy_run_config())
    return path


def _adaptation_ckpt(path, backbone_ckpt):
    """A seeded, untrained V2 add-on on the encoder of `backbone_ckpt`."""
    backbone, _ = load_asr_model(backbone_ckpt)
    cfg = AdaptationConfig("V2", 1, light_dim=16, light_hidden=32, light_kernel=7)
    save_adaptation(path, seeded(SpeakerAdaptation(backbone, cfg), 4, "adaptation"))
    return path


def _reshaped(src, dst, name, shape):
    """`src` written to `dst` with array `name` replaced by ones of `shape`."""
    meta, arrays = load_checkpoint(src)
    arrays[name] = np.ones(shape)
    save_checkpoint(dst, meta, arrays)
    return dst


class TestCheckpointContents:
    """A checkpoint of the wrong kind is a config error that names the kind it
    has; a wrong-shaped array, batch-norm statistics included, is a data error
    that names the array."""

    @pytest.mark.parametrize("command, flag", [("train", "--init"), ("distill", "--teacher")])
    def test_training_from_a_speaker_checkpoint_exits_2(self, mini, tmp_path, capsys,
                                                         command, flag):
        out = tmp_path / "o"
        code = main([command, "--config", str(mini["config"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out),
                     flag, str(_speaker_ckpt(tmp_path / "speaker.ckpt"))])
        assert code == EXIT_CONFIG
        assert "not an ASR checkpoint (kind 'speaker')" in capsys.readouterr().err
        assert not (out / "speaker.ckpt").exists()

    def test_embedding_with_an_asr_checkpoint_exits_2(self, mini, tmp_path, capsys):
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(mini["asr_ckpt"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "checkpoint kind 'asr'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, shape", [
        ("head.norm.running_var", (1,)),  # used to exit 0 with wrong embeddings
        ("encoder.blocks.0.conv.batch_norm.running_mean", (3,)),  # used to end in a traceback
    ])
    def test_embedding_with_a_wrong_shaped_statistic_exits_3(self, mini, tmp_path, capsys,
                                                             name, shape):
        path = _reshaped(_speaker_ckpt(tmp_path / "speaker.ckpt"), tmp_path / "bad.ckpt",
                         name, shape)
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert f"data error: {name}: shape {shape} != " in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_with_a_missing_array_exits_3_naming_it(self, mini, tmp_path, capsys):
        meta, arrays = load_checkpoint(_speaker_ckpt(tmp_path / "speaker.ckpt"))
        del arrays["head.proj.bias"]
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, meta, arrays)
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: missing arrays in state: ['head.proj.bias']\n")
        assert not out.exists()

    def test_init_from_a_wrong_shaped_asr_statistic_exits_3(self, mini, tmp_path, capsys):
        name = "encoder.blocks.0.conv.batch_norm.running_var"
        path = _reshaped(mini["asr_ckpt"], tmp_path / "bad.ckpt", name, (1,))
        out = tmp_path / "o"
        code = main(["train", "--config", str(mini["config"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out), "--init", str(path)])
        assert code == EXIT_DATA
        assert f"data error: {name}: shape (1,) != (16,)" in capsys.readouterr().err
        assert not (out / "speaker.ckpt").exists()


def _write_wav(path, seconds=1.0, channels=1, width=2, rate=SAMPLE_RATE):
    """A silent WAV of the given layout."""
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(bytes(round(seconds * rate) * channels * width))


class TestEmbedPipeline:
    @pytest.mark.parametrize("layout, message", [
        ({"seconds": 0.3}, "utterance shorter than 0.5s: 0.300"),
        ({"channels": 2}, "expected 16-bit mono 16000 Hz WAV"),
        ({"width": 1}, "expected 16-bit mono 16000 Hz WAV"),
        ({"rate": 8000}, "expected 16-bit mono 16000 Hz WAV"),
    ], ids=["short", "stereo", "8-bit", "8-kHz"])
    def test_wav_that_is_short_or_not_16_bit_mono_16_khz_exits_3(self, tmp_path, capsys,
                                                                 layout, message):
        _write_wav(tmp_path / "x.wav", **layout)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("x.wav spk000 aei 1.000\n", encoding="utf-8")
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(_speaker_ckpt(tmp_path / "speaker.ckpt")),
                     "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("keep", [4, 14, 200, -8])
    def test_truncated_checkpoint_exits_3(self, mini, tmp_path, capsys, keep):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(mini["asr_ckpt"].read_bytes()[:keep])
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(ckpt), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert "data error: " in capsys.readouterr().err

    def test_speaker_checkpoint_without_encoder_exits_3(self, mini, tmp_path, capsys):
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, {"kind": "speaker"}, {})
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert "'encoder'" in capsys.readouterr().err

    def test_non_finite_speaker_checkpoint_exits_3_and_writes_no_store(
            self, mini, tmp_path, capsys):
        """One inf in the head used to give exit 0 and a store of NaN embeddings."""
        path = tmp_path / "speaker.ckpt"
        model = seeded(SpeakerModel(EncoderConfig(1, 16, 4, 32, conv_kernel=7)), 3, "speaker_model")
        model.head.proj.weight.data[0, 0] = np.inf
        save_speaker_checkpoint(path, model, toy_run_config())
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert "'head.proj.weight' holds non-finite values" in capsys.readouterr().err

    def test_speaker_checkpoint_whose_embeddings_overflow_exits_4_and_writes_no_store(
            self, mini, tmp_path, capsys):
        """Finite weights whose embeddings pass float32's range used to store infinities."""
        path = tmp_path / "speaker.ckpt"
        model = seeded(SpeakerModel(EncoderConfig(1, 16, 4, 32, conv_kernel=7)), 3, "speaker_model")
        model.head.proj.weight.data *= 1e40
        save_speaker_checkpoint(path, model, toy_run_config())
        out = tmp_path / "e.bin"
        with np.errstate(over="ignore"):
            code = main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                         "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()
        assert "non-finite values in the embedding of " in capsys.readouterr().err

    def test_embed_reads_the_checkpoint_once(self, mini, tmp_path, monkeypatch):
        path = tmp_path / "speaker.ckpt"
        model = seeded(SpeakerModel(EncoderConfig(1, 16, 4, 32, conv_kernel=7)), 3, "speaker_model")
        save_speaker_checkpoint(path, model, toy_run_config())
        reads = []
        real = ckpt.load_checkpoint
        monkeypatch.setattr(ckpt, "load_checkpoint", lambda p: reads.append(p) or real(p))
        assert main(["embed", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(tmp_path / "e.bin")]) == EXIT_OK
        assert reads == [str(path)]

    def test_embed_reads_an_adaptation_checkpoint_and_its_backbone_once_each(
            self, mini, tmp_path, monkeypatch):
        path = _adaptation_ckpt(tmp_path / "adaptation.ckpt", mini["asr_ckpt"])
        reads = []
        real = ckpt.load_checkpoint
        monkeypatch.setattr(ckpt, "load_checkpoint", lambda p: reads.append(p) or real(p))
        assert main(["embed", "--ckpt", str(path), "--teacher", str(mini["asr_ckpt"]),
                     "--manifest", str(mini["manifest"]), "--out", str(tmp_path / "e.bin")
                     ]) == EXIT_OK
        assert reads == [str(path), str(mini["asr_ckpt"])]

    def test_embed_on_another_backbone_exits_3_and_writes_no_store(self, mini, tmp_path,
                                                                   capsys):
        path = _adaptation_ckpt(tmp_path / "adaptation.ckpt", mini["asr_ckpt"])
        other = _asr_ckpt(tmp_path / "other.ckpt", EncoderConfig(1, 16, 4, 32, conv_kernel=7))
        out = tmp_path / "e.bin"
        code = main(["embed", "--ckpt", str(path), "--teacher", str(other),
                     "--manifest", str(mini["manifest"]), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {path}: backbone content hash mismatch\n"
        assert not out.exists()

    def test_adaptation_checkpoint_embeds_and_evaluates(self, mini, tmp_path):
        cfg = tmp_path / "adapt.cfg"
        cfg.write_text(
            MINI_CONFIG + "\n[adaptation]\nvariant = V2\nadapted_layers = 1\n"
            "extra_layers = 0\nlight_dim = 16\nlight_hidden = 32\nlight_kernel = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert main([
            "adapt", "--config", str(cfg), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--teacher", str(mini["asr_ckpt"]),
        ]) == EXIT_OK
        emb = tmp_path / "emb.bin"
        assert main([
            "embed", "--ckpt", str(out / "adaptation.ckpt"), "--teacher", str(mini["asr_ckpt"]),
            "--manifest", str(mini["manifest"]), "--out", str(emb),
        ]) == EXIT_OK
        trials = tmp_path / "trials.txt"
        assert main([
            "gen-trials", "--manifest", str(mini["manifest"]), "--out", str(trials),
            "--n-target", "10", "--n-nontarget", "10",
        ]) == EXIT_OK
        assert main(["evaluate", "--embeddings", str(emb), "--trials", str(trials)]) == EXIT_OK

    def test_embed_with_adaptation_needs_teacher(self, mini, tmp_path):
        cfg = tmp_path / "adapt.cfg"
        cfg.write_text(
            MINI_CONFIG + "\n[adaptation]\nvariant = V1\nadapted_layers = 1\n"
            "light_dim = 16\nlight_hidden = 32\nlight_kernel = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert main([
            "adapt", "--config", str(cfg), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--teacher", str(mini["asr_ckpt"]),
        ]) == EXIT_OK
        code = main([
            "embed", "--ckpt", str(out / "adaptation.ckpt"),
            "--manifest", str(mini["manifest"]), "--out", str(tmp_path / "e.bin"),
        ])
        assert code == EXIT_CONFIG

    def test_lmft_phase_appends_epochs(self, mini, tmp_path):
        out = tmp_path / "lmft"
        code = main([
            "train", "--config", str(mini["config"]), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--lmft",
        ])
        assert code == EXIT_OK
        rows = (out / "loss.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 + 2  # header, 2 training epochs, 2 LMFT epochs

    def test_seed_required_without_config(self, mini, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert main(["gen-data", "--seed", "4", "--out", str(tmp_path / "y")]) == EXIT_OK


class TestProbe:
    def test_probe_csv_shape_and_determinism(self, mini, tmp_path):
        outs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            code = main([
                "probe", "--ckpt", str(mini["asr_ckpt"]), "--manifest", str(mini["manifest"]),
                "--out", str(out), "--seed", "3", "--max-utts", "16",
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "layer,accuracy"
        assert len(lines) == 1 + 1  # header + one encoder layer
        acc = float(lines[1].split(",")[1])
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("max_utts", ["8", "16"])
    @pytest.mark.parametrize("seed", ["0", "2", "3"])
    def test_probe_of_few_utterances_converges_at_any_seed(self, mini, tmp_path, max_utts, seed):
        """The descent's step scales with the features' largest Gram eigenvalue.

        A fixed step of 0.5 blew up to non-finite logits at 8 utterances, and
        at 16 with --seed 2, and exited 4."""
        out = tmp_path / "p.csv"
        code = main([
            "probe", "--ckpt", str(mini["asr_ckpt"]), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--seed", seed, "--max-utts", max_utts,
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "layer,accuracy" and len(lines) == 2
        assert 0.0 <= float(lines[1].split(",")[1]) <= 1.0

    def test_non_finite_asr_checkpoint_exits_3_and_writes_no_csv(self, mini, tmp_path, capsys):
        meta, arrays = load_checkpoint(mini["asr_ckpt"])
        arrays["encoder.blocks.0.ffn1.linear1.weight"][0, 0] = np.nan
        path = tmp_path / "asr.ckpt"
        save_checkpoint(path, meta, arrays)
        out = tmp_path / "p.csv"
        code = main(["probe", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                     "--out", str(out), "--seed", "3", "--max-utts", "16"])
        assert code == EXIT_DATA
        assert not out.exists()
        assert "'encoder.blocks.0.ffn1.linear1.weight' holds non-finite" in capsys.readouterr().err

    def test_probe_of_an_encoder_that_overflows_exits_4(self, mini, tmp_path, capsys):
        """Finite weights whose maps overflow to inf end in the probe's numeric check."""
        meta, arrays = load_checkpoint(mini["asr_ckpt"])
        arrays["encoder.blocks.0.norm_out.gamma"] *= 1e308
        path = tmp_path / "asr.ckpt"
        save_checkpoint(path, meta, arrays)
        out = tmp_path / "p.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["probe", "--ckpt", str(path), "--manifest", str(mini["manifest"]),
                         "--out", str(out), "--seed", "3", "--max-utts", "16"])
        assert code == EXIT_NUMERIC
        assert not out.exists()
        assert "non-finite values in probe" in capsys.readouterr().err

    def test_probe_of_one_speaker_exits_3(self, mini, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(["probe", "--ckpt", str(mini["asr_ckpt"]), "--manifest",
                     str(mini["manifest"]), "--out", str(out), "--max-utts", "3"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: probe needs at least two speakers\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_utts", ["0", "-1", "-5"])
    def test_max_utts_below_one_exits_2(self, mini, tmp_path, capsys, max_utts):
        """-1 used to probe all but the last utterance and -5 to exit 3."""
        out = tmp_path / "p.csv"
        code = main([
            "probe", "--ckpt", str(mini["asr_ckpt"]), "--manifest", str(mini["manifest"]),
            "--out", str(out), "--max-utts", max_utts,
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "--max-utts must be >= 1" in capsys.readouterr().err


class TestScoreEvaluate:
    @pytest.fixture()
    def separated_store(self, tmp_path):
        rng = np.random.default_rng(0)
        store = {}
        for spk in range(4):
            base = np.zeros(256)
            base[spk] = 1.0
            for u in range(3):
                store[f"s{spk}_u{u}"] = (base + 0.01 * rng.normal(size=256)).astype(np.float32)
        path = tmp_path / "emb.bin"
        save_embeddings(path, store)
        trials = tmp_path / "trials.txt"
        lines = []
        for spk in range(4):
            lines.append(f"1 s{spk}_u0 s{spk}_u1")
            lines.append(f"0 s{spk}_u0 s{(spk + 1) % 4}_u2")
        trials.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, trials

    def test_perfect_separation_evaluates_to_zero_eer(self, separated_store, tmp_path, capsys):
        emb, trials = separated_store
        metrics = tmp_path / "metrics.csv"
        code = main(["evaluate", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(metrics)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "EER[%] 0.0000" in printed
        assert metrics.read_text().splitlines()[0] == "eer_percent,min_dcf"

    def test_score_file_written(self, separated_store, tmp_path):
        emb, trials = separated_store
        out = tmp_path / "scores.txt"
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 8

    def test_trials_that_are_not_utf8_exit_3(self, separated_store, tmp_path, capsys):
        emb, trials = separated_store
        trials.write_bytes(trials.read_bytes() + b"1 s0_u0 s0_\xff\n")
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(tmp_path / "scores.txt")])
        assert code == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    def test_snorm_requires_cohort(self, separated_store, tmp_path):
        emb, trials = separated_store
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(tmp_path / "s.txt"), "--snorm"])
        assert code == EXIT_CONFIG

    def test_negative_cohort_size_exits_2(self, separated_store, tmp_path, capsys):
        emb, trials = separated_store
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(tmp_path / "s.txt"), "--snorm", "--cohort", str(emb),
                     "--cohort-size", "-1", "--top-k", "2"])
        assert code == EXIT_CONFIG
        assert "--cohort-size must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    @pytest.mark.parametrize("top_k", ["1", "0", "-3"])
    def test_snorm_top_k_below_two_exits_2_before_reading_a_store(
            self, separated_store, tmp_path, capsys, command, top_k):
        """A bad flag is a config error even when both stores are missing."""
        _, trials = separated_store
        missing = tmp_path / "missing.emb"
        code = main([command, "--embeddings", str(missing), "--trials", str(trials),
                     "--out", str(tmp_path / "s.txt"), "--snorm", "--cohort", str(missing),
                     "--top-k", top_k])
        assert code == EXIT_CONFIG
        assert "--top-k must be >= 2" in capsys.readouterr().err

    def test_truncated_store_exits_3(self, separated_store, tmp_path, capsys):
        emb, trials = separated_store
        emb.write_bytes(emb.read_bytes()[:-100])
        out = tmp_path / "s.txt"
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert "truncated embedding store" in capsys.readouterr().err
        assert not out.exists()

    def test_store_holding_a_nan_exits_3_and_writes_no_scores(
            self, separated_store, tmp_path, capsys):
        """A NaN embedding used to give exit 0 and nan scores."""
        emb, trials = separated_store
        store = load_embeddings(emb)
        store["s1_u1"][5] = np.nan
        save_embeddings(emb, store)
        out = tmp_path / "s.txt"
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert "'s1_u1' holds non-finite values" in capsys.readouterr().err

    def test_cohort_size_scores_against_a_seeded_sample_of_the_sorted_ids(
            self, separated_store, tmp_path):
        emb, trials = separated_store
        rng = np.random.default_rng(2)
        cohort = {f"c{i:02d}": rng.normal(size=256).astype(np.float32)
                  for i in rng.permutation(40)}
        full = tmp_path / "cohort.bin"
        save_embeddings(full, cohort)
        ids = sorted(cohort)
        picked = rng_for(4, "cohort").choice(len(ids), size=12, replace=False)
        sample = tmp_path / "sample.bin"
        save_embeddings(sample, {ids[i]: cohort[ids[i]] for i in sorted(picked)})

        def scores(cohort_path, size):
            out = tmp_path / f"{cohort_path.stem}_{size}.txt"
            assert main(["score", "--embeddings", str(emb), "--trials", str(trials),
                         "--out", str(out), "--snorm", "--cohort", str(cohort_path),
                         "--cohort-size", size, "--cohort-seed", "4", "--top-k", "5"]) == EXIT_OK
            return out.read_bytes()

        assert scores(full, "12") == scores(sample, "0")
        assert scores(full, "12") != scores(full, "0")

    def test_zero_cohort_embedding_exits_3(self, separated_store, tmp_path, capsys):
        emb, trials = separated_store
        rng = np.random.default_rng(3)
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(10)}
        cohort["c5"][:] = 0.0
        cohort_path = tmp_path / "cohort.bin"
        save_embeddings(cohort_path, cohort)
        out = tmp_path / "s.txt"
        code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(out), "--snorm", "--cohort", str(cohort_path), "--top-k", "5"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: cohort contains a zero embedding\n"
        assert not out.exists()

    def test_snorm_path_runs(self, separated_store, tmp_path):
        emb, trials = separated_store
        rng = np.random.default_rng(1)
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(40)}
        cohort_path = tmp_path / "cohort.bin"
        save_embeddings(cohort_path, cohort)
        code = main(["evaluate", "--embeddings", str(emb), "--trials", str(trials),
                     "--snorm", "--cohort", str(cohort_path), "--top-k", "10"])
        assert code == EXIT_OK


class TestQmfCli:
    def test_qmf_calibration_pipeline(self, mini, tmp_path):
        run = tmp_path / "run"
        assert main([
            "train", "--config", str(mini["config"]), "--manifest", str(mini["manifest"]),
            "--out", str(run),
        ]) == EXIT_OK
        emb = tmp_path / "emb.bin"
        assert main([
            "embed", "--ckpt", str(run / "speaker.ckpt"),
            "--manifest", str(mini["manifest"]), "--out", str(emb),
        ]) == EXIT_OK
        calib, trials = tmp_path / "calib.txt", tmp_path / "trials.txt"
        for path, seed in ((calib, 1), (trials, 2)):
            assert main([
                "gen-trials", "--manifest", str(mini["manifest"]), "--out", str(path),
                "--seed", str(seed), "--n-target", "15", "--n-nontarget", "15",
            ]) == EXIT_OK
        metrics = tmp_path / "metrics.csv"
        assert main([
            "evaluate", "--embeddings", str(emb), "--trials", str(trials),
            "--qmf", "--calib-trials", str(calib), "--manifest", str(mini["manifest"]),
            "--out", str(metrics),
        ]) == EXIT_OK
        assert metrics.exists()
        # calibrated scores flow through s-norm first when both flags are set
        assert main([
            "evaluate", "--embeddings", str(emb), "--trials", str(trials),
            "--snorm", "--cohort", str(emb), "--top-k", "10",
            "--qmf", "--calib-trials", str(calib), "--manifest", str(mini["manifest"]),
        ]) == EXIT_OK

    def test_manifest_may_list_utterances_the_store_lacks(self, mini, tmp_path, capsys):
        """Quality features are read only for the keys the trials name, so a
        manifest listing more than was embedded scores the same bytes; a trial
        key the manifest lacks still exits 3."""
        (tmp_path / "wavs").symlink_to(mini["manifest"].parent / "wavs")
        lines = mini["manifest"].read_text(encoding="utf-8").splitlines()
        full, subset = tmp_path / "full.txt", tmp_path / "subset.txt"
        full.write_text("\n".join(lines) + "\n", encoding="utf-8")
        subset.write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
        emb = tmp_path / "emb.bin"
        assert main(["embed", "--ckpt", str(_speaker_ckpt(tmp_path / "spk.ckpt")),
                     "--manifest", str(subset), "--out", str(emb)]) == EXIT_OK
        calib, trials = tmp_path / "calib.txt", tmp_path / "trials.txt"
        for path, seed in ((calib, "1"), (trials, "2")):
            assert main(["gen-trials", "--manifest", str(subset), "--out", str(path),
                         "--seed", seed, "--n-target", "15", "--n-nontarget", "15"]) == EXIT_OK

        def score(manifest):
            out = tmp_path / f"scores_{manifest.stem}.txt"
            code = main(["score", "--embeddings", str(emb), "--trials", str(trials),
                         "--out", str(out), "--qmf", "--calib-trials", str(calib),
                         "--manifest", str(manifest)])
            return code, out.read_bytes() if code == EXIT_OK else None

        scored = score(full)
        assert scored[0] == EXIT_OK and scored == score(subset)
        key = trials.read_text(encoding="utf-8").split()[1]
        short = tmp_path / "short.txt"
        short.write_text("".join(f"{line}\n" for line in lines if line.split()[0] != key),
                         encoding="utf-8")
        capsys.readouterr()
        assert score(short) == (EXIT_DATA, None)
        assert capsys.readouterr().err == f"data error: no quality features for id {key!r}\n"

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    @pytest.mark.parametrize("present, missing", [("--manifest", "--calib-trials"),
                                                  ("--calib-trials", "--manifest")])
    def test_qmf_without_an_input_exits_2_before_reading_a_store(
            self, tmp_path, capsys, command, present, missing):
        """A missing --qmf input is a config error even when both stores are missing."""
        store = tmp_path / "missing.emb"
        trials = tmp_path / "t.txt"
        trials.write_text("1 a a\n0 a b\n", encoding="utf-8")
        code = main([command, "--embeddings", str(store), "--trials", str(trials),
                     "--out", str(tmp_path / "s.txt"), "--snorm", "--cohort", str(store),
                     "--qmf", present, str(trials)])
        assert code == EXIT_CONFIG
        assert f"--qmf needs {missing}" in capsys.readouterr().err

    def test_manifest_path_with_a_nul_byte_exits_3(self, tmp_path, capsys):
        emb = tmp_path / "emb.bin"
        rng = np.random.default_rng(0)
        save_embeddings(emb, {k: rng.normal(size=256).astype(np.float32)
                              for k in ("a\x00.wav", "b")})
        trials = tmp_path / "t.txt"  # quality features are read for trial keys only
        trials.write_text("1 a\x00.wav a\x00.wav\n0 a\x00.wav b\n", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a\x00.wav spk0 ae 1.000\n", encoding="utf-8")
        assert main(["score", "--embeddings", str(emb), "--trials", str(trials),
                     "--out", str(tmp_path / "s.txt"), "--qmf", "--calib-trials", str(trials),
                     "--manifest", str(manifest)]) == EXIT_DATA
        assert "cannot read WAV" in capsys.readouterr().err

    def test_qmf_needs_calibration_inputs(self, tmp_path):
        emb = tmp_path / "emb.bin"
        rng = np.random.default_rng(0)
        save_embeddings(emb, {k: rng.normal(size=256).astype(np.float32) for k in "ab"})
        trials = tmp_path / "t.txt"
        trials.write_text("1 a a\n0 a b\n", encoding="utf-8")
        assert main(["evaluate", "--embeddings", str(emb), "--trials", str(trials),
                     "--qmf"]) == EXIT_CONFIG


FUZZ_KEYS = st.sampled_from(["a.wav", "b.wav", "spk0", "ae", "c.wav"])
TRIAL_LINES = st.tuples(st.sampled_from(["0", "1"]), FUZZ_KEYS, FUZZ_KEYS).map(" ".join)
MANIFEST_LINES = st.tuples(FUZZ_KEYS, st.sampled_from(["spk0", "spk1"]), st.just("ae"),
                           st.sampled_from(["1.000", "0.5", "nan", "-inf", "1e999"])).map(" ".join)
# fields and separators that break a line, or split it where str.splitlines does
JUNK_LINES = st.lists(st.sampled_from(["2", "-1", "01", "1_0", "a.wav", "\t", "\r", "\x00",
                                       "\x0c", "\x85", "\u2028", "\u00e9"]),
                      max_size=5).map(" ".join)


def fuzzed(good_lines):
    """Arbitrary bytes, or lines that are mostly well formed with a few bytes overwritten."""
    text = st.lists(st.one_of(good_lines, good_lines, good_lines, JUNK_LINES), max_size=8).map(
        lambda lines: "\n".join(lines).encode("utf-8"))
    edits = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=2)

    def overwrite(args):
        data, edits = bytearray(args[0]), args[1]
        for offset, value in edits:
            if offset < len(data):
                data[offset] = value
        return bytes(data)

    return st.one_of(st.binary(max_size=300), st.tuples(text, edits).map(overwrite))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    save_embeddings(root / "emb.bin", {k: rng.normal(size=256).astype(np.float32)
                                       for k in ("a.wav", "b.wav", "spk0", "ae")})
    return root


class TestParserFuzz:
    """Arbitrary bytes as a trial list or a manifest: the parser returns or
    raises a DataError, and the command exits 0, or 3 when the parser raises,
    never with a traceback."""

    @staticmethod
    def parses_or_exits_3(parse, path, argv):
        try:
            parse(path)
            parsed = True
        except DataError:
            parsed = False
        code = main(argv)
        assert code in (EXIT_OK, EXIT_DATA)
        assert parsed or code == EXIT_DATA

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(TRIAL_LINES))
    def test_trial_list(self, fuzz_dir, data):
        path = fuzz_dir / "trials.txt"
        path.write_bytes(data)
        self.parses_or_exits_3(parse_trials, path, [
            "score", "--embeddings", str(fuzz_dir / "emb.bin"), "--trials", str(path),
            "--out", str(fuzz_dir / "scores.txt")])

    @settings(max_examples=200, deadline=None)
    @given(data=fuzzed(MANIFEST_LINES))
    def test_manifest(self, fuzz_dir, data):
        path = fuzz_dir / "manifest.txt"
        path.write_bytes(data)
        self.parses_or_exits_3(read_manifest, path, [
            "gen-trials", "--manifest", str(path), "--out", str(fuzz_dir / "t.txt"),
            "--n-target", "2", "--n-nontarget", "2"])


class TestCount:
    def test_small_preset_report(self, capsys):
        assert main(["count", "--preset", "small"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "total" in text
        total = int(text.splitlines()[-1].split()[1].replace(",", ""))
        assert abs(total / 1e6 - 15.88) / 15.88 < 0.15

    def test_breakdown_csv_sums(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        assert main(["count", "--preset", "half_medium", "--macs", "--csv", str(csv_path)]) == EXIT_OK
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        parts = [int(r[2]) for r in rows[:-1]]
        assert sum(parts) == int(rows[-1][2])

    def test_variant_without_adapted_layers_exits_2(self, capsys):
        assert main(["count", "--preset", "small", "--variant", "V2"]) == EXIT_CONFIG
        assert "--adapted-layers" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, too_short, shortest",
                             [("small", "0.07", "0.08"), ("half_small", "0.03", "0.04")])
    def test_macs_need_the_mel_frames_the_subsampling_accepts(self, preset, too_short,
                                                              shortest, capsys):
        assert main(["count", "--preset", preset, "--macs", "--seconds", too_short]) == EXIT_CONFIG
        assert "mel frames" in capsys.readouterr().err
        assert main(["count", "--preset", preset, "--macs", "--seconds", shortest]) == EXIT_OK

    @pytest.mark.parametrize("seconds", ["-1", "nan", "1e308"])
    def test_macs_of_a_negative_or_nan_length_exit_2(self, seconds, capsys):
        assert main(["count", "--preset", "small", "--macs", "--seconds", seconds]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""  # no report, so no negative MACs

    @pytest.mark.parametrize("args", [[], ["--layers", "2", "--dim", "16", "--heads", "4"]])
    def test_neither_a_preset_nor_all_four_sizes_exits_2(self, capsys, args):
        assert main(["count", *args]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: count needs --preset or all of --layers/--dim/--heads/--hidden\n")

    @pytest.mark.parametrize("convention, rows", [
        ("conv", ["subsampling,0,712800000", "blocks (16 x 12298000),0,196768000",
                  "ctc_decoder,0,0", "total,0,909568000"]),
        # the decoder maps 125 frames of d = 176 to 11 outputs
        ("full", ["subsampling,0,790240000", "blocks (16 x 105701024),0,1691216384",
                  "ctc_decoder,0,242000", "total,0,2481698384"]),
    ])
    def test_macs_of_the_encoder_and_decoder(self, tmp_path, convention, rows):
        csv = tmp_path / "m.csv"
        assert main(["count", "--preset", "small", "--macs", "--scope", "encoder+decoder",
                     "--convention", convention, "--csv", str(csv)]) == EXIT_OK
        assert csv.read_text().splitlines() == ["component,params,macs", *rows]

    def test_invalid_config_exits_2(self, capsys):
        assert main(["count", "--preset", "gigantic"]) == EXIT_CONFIG
        # the message of an unknown `[encoder] preset` in a config file
        assert capsys.readouterr() == ("", "config error: unknown encoder preset 'gigantic'\n")
        assert main(["count", "--layers", "2", "--dim", "10", "--heads", "3",
                     "--hidden", "16"]) == EXIT_CONFIG


def _fail_replace(src, dst):
    raise OSError("disk full")


# each command with `out` as its text output
ATOMIC_OUTPUTS = {
    "gen-data": lambda m, out: ["gen-data", "--config", str(m["config"]),
                                "--out", str(out.parent)],
    "gen-trials": lambda m, out: ["gen-trials", "--manifest", str(m["manifest"]),
                                  "--out", str(out)],
    "probe": lambda m, out: ["probe", "--ckpt", str(m["asr_ckpt"]), "--manifest",
                             str(m["manifest"]), "--max-utts", "16", "--out", str(out)],
    "count": lambda m, out: ["count", "--preset", "small", "--csv", str(out)],
}


@pytest.mark.parametrize("command", sorted(ATOMIC_OUTPUTS))
def test_failed_output_rename_keeps_the_old_file_and_leaves_no_temp_file(
    command, mini, tmp_path, monkeypatch
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "manifest.txt"  # the name gen-data writes its manifest to
    out.write_bytes(b"old\n")
    before = set(out_dir.iterdir())
    monkeypatch.setattr(os, "replace", _fail_replace)
    assert main(ATOMIC_OUTPUTS[command](mini, out)) == EXIT_DATA
    assert out.read_bytes() == b"old\n"
    assert {p for p in out_dir.iterdir() if p.name != "wavs"} == before
