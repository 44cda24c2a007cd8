"""Synthetic corpus, features, and augmentation contracts."""

import sys
import threading
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv import datapipe
from confsv.datapipe import (
    BABBLE_VOICES,
    SAMPLE_RATE,
    TOKENS,
    Corpus,
    Utterance,
    add_noise,
    augment_onthefly,
    augment_plan,
    babble_voice,
    crop,
    expand_speed_labels,
    frame_count,
    log_mel,
    make_noise,
    make_rir,
    make_trials,
    mel_filterbank,
    read_manifest,
    read_wav,
    reverb,
    snr_estimate_db,
    speed_perturb,
    wav_length,
    write_corpus,
    write_wav,
)
from confsv.errors import ConfigError, DataError, DegenerateNoiseError, InputTooShortError


def make_utt(seconds=1.0, seed=0, speaker="spkX"):
    rng = np.random.default_rng(seed)
    wave = 0.5 * np.sin(2 * np.pi * 220 * np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE)
    wave += 0.05 * rng.standard_normal(wave.size)
    wave = 0.9 * wave / np.abs(wave).max()
    return Utterance(wave, speaker, "aeiou")


class TestCorpus:
    def test_deterministic_generation(self):
        a = Corpus(4, 3, seed=7)
        b = Corpus(4, 3, seed=7)
        for i in (0, 5, 11):
            ua, ub = a.utterance(i), b.utterance(i)
            np.testing.assert_array_equal(ua.waveform, ub.waveform)
            assert ua.tokens == ub.tokens and ua.speaker_id == ub.speaker_id

    def test_speaker_count(self):
        c = Corpus(6, 2, seed=1)
        assert len(c.speakers) == 6
        assert {c.utterance(i).speaker_id for i in range(len(c))} == set(c.speakers)

    def test_speakers_separable_by_long_term_spectrum(self):
        # generator sanity oracle: leave-one-out nearest centroid on mean log-mel
        c = Corpus(5, 10, seed=7)
        feats = np.stack([log_mel(c.utterance(i).waveform).mean(axis=0) for i in range(50)])
        labels = np.array([c.item_key(i)[0] for i in range(50)])
        correct = 0
        for i in range(50):
            keep = np.arange(50) != i
            cents = np.stack(
                [feats[keep & (labels == s)].mean(axis=0) for s in range(5)]
            )
            correct += int(np.argmin(((feats[i] - cents) ** 2).sum(axis=1)) == labels[i])
        assert correct / 50 >= 0.90

    def test_too_few_speakers(self):
        with pytest.raises(ConfigError):
            Corpus(1, 5, seed=0)

    def test_utterance_invariants(self):
        c = Corpus(3, 2, seed=3)
        for i in range(len(c)):
            u = c.utterance(i)
            assert np.abs(u.waveform).max() <= 1.0
            assert u.duration_sec >= 0.5
            assert u.tokens


class TestLogMel:
    def test_two_second_frame_count(self):
        # T = floor((N - 320) / 160) + 1 = 199 for 2 s at 16 kHz
        feats = log_mel(np.zeros(2 * SAMPLE_RATE) + 1e-3)
        assert feats.shape == (199, 80)
        assert frame_count(2 * SAMPLE_RATE) == 199

    def test_silence_hits_log_floor(self):
        feats = log_mel(np.zeros(SAMPLE_RATE))
        np.testing.assert_allclose(feats, np.log(1e-10))

    def test_pure_tone_argmax_stable(self):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        feats = log_mel(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        argmax = feats.argmax(axis=1)
        assert np.all(argmax == argmax[0])
        # the winning filter's band must contain 1 kHz
        fb = mel_filterbank()
        bins = np.fft.rfftfreq(512, d=1.0 / SAMPLE_RATE)
        band = bins[fb[argmax[0]] > 0]
        assert band.min() <= 1000.0 <= band.max()

    def test_too_short(self):
        with pytest.raises(InputTooShortError):
            log_mel(np.zeros(100))

    @pytest.mark.parametrize("n_samples", [320, 321, 480, 5280, 5440, 16_000, 57_601, 96_000])
    def test_blocked_fft_matches_one_fft_over_all_frames(self, n_samples):
        wave = np.random.default_rng(n_samples).normal(scale=0.3, size=n_samples)
        # the single-FFT formula: gathered frames, one rfft, then the filterbank
        win, hop = 320, 160
        idx = np.arange(win)[None, :] + hop * np.arange(frame_count(n_samples))[:, None]
        spec = np.abs(np.fft.rfft(wave[idx] * np.hamming(win)[None, :], n=512, axis=1)) ** 2
        expected = np.log(np.maximum(mel_filterbank() @ spec.T, 1e-10)).T
        np.testing.assert_array_equal(log_mel(wave), expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_no_nan_inf_on_bounded_waveforms(self, seed):
        rng = np.random.default_rng(seed)
        wave = np.clip(rng.normal(scale=0.4, size=4000), -1.0, 1.0)
        assert np.all(np.isfinite(log_mel(wave)))


class TestSpeedPerturb:
    def test_label_expansion_three_per_speaker(self):
        labels = expand_speed_labels([f"s{i}" for i in range(5994)])
        assert len(labels) == 17982  # 5994 x 3 after both factors

    def test_identity_factor(self):
        utt = make_utt(seed=1)
        out = speed_perturb(utt, 1.0)
        np.testing.assert_array_equal(out.waveform, utt.waveform)
        assert out.speaker_id == utt.speaker_id

    def test_resampled_length(self):
        utt = make_utt(seconds=2.0, seed=2)
        out = speed_perturb(utt, 0.9)
        assert abs(out.n_samples - round(2.0 * SAMPLE_RATE / 0.9)) <= 1
        assert out.duration_sec == pytest.approx(2.0 / 0.9, abs=1e-4)
        assert out.speaker_id != utt.speaker_id

    @pytest.mark.parametrize("factor", [0.0, -0.9])
    def test_factor_must_be_positive(self, factor):
        with pytest.raises(ConfigError, match="speed factor must be positive"):
            speed_perturb(make_utt(), factor)


class TestUtteranceChecks:
    """A manifest line always has tokens and a WAV holds samples in [-1, 1);
    these checks guard the samples a Python caller builds an utterance from."""

    def test_empty_token_sequence(self):
        with pytest.raises(DataError, match="nonempty token sequence"):
            Utterance(np.zeros(SAMPLE_RATE), "spk", "")

    def test_shorter_than_half_a_second(self):
        with pytest.raises(DataError, match=r"utterance shorter than 0.5s: 0.400"):
            Utterance(np.zeros(6400), "spk", "a")

    def test_samples_outside_the_unit_range(self):
        with pytest.raises(DataError, match=r"samples exceed \[-1, 1\] \(peak 1.5000\)"):
            Utterance(np.full(SAMPLE_RATE, -1.5), "spk", "a")


class TestAddNoise:
    @pytest.mark.parametrize("kind", ["ambient", "music", "babble"])
    def test_exact_snr(self, kind):
        utt = make_utt(seconds=0.8, seed=3)
        rng = np.random.default_rng(4)
        out = add_noise(utt, kind, snr_db=20.0, rng=rng)
        noise = out.waveform / out.norm_gain - utt.waveform
        measured = 10 * np.log10(np.mean(utt.waveform**2) / np.mean(noise**2))
        assert abs(measured - 20.0) < 1e-6

    def test_babble_source_count_in_range(self):
        utt = make_utt(seconds=0.6, seed=5)
        for seed in range(5):
            _, info = add_noise(utt, "babble", 10.0, np.random.default_rng(seed),
                                return_info=True)
            assert 3 <= info["n_sources"] <= 8

    def test_infinite_snr_is_identity(self):
        utt = make_utt(seed=6)
        out = add_noise(utt, "ambient", np.inf, np.random.default_rng(1))
        np.testing.assert_array_equal(out.waveform, utt.waveform)

    def test_zero_power_signal_rejected(self):
        silent = Utterance(np.zeros(SAMPLE_RATE), "s", "a")
        with pytest.raises(DegenerateNoiseError):
            add_noise(silent, "ambient", 10.0, np.random.default_rng(2))

    def test_never_clips_and_records_gain(self):
        utt = make_utt(seconds=0.7, seed=8)
        out = add_noise(utt, "ambient", 0.0, np.random.default_rng(3))
        assert np.abs(out.waveform).max() <= 1.0
        assert 0 < out.norm_gain <= 1.0

    def test_unknown_noise_kind(self):
        with pytest.raises(ConfigError, match="unknown noise kind 'hum'"):
            make_noise("hum", 100, np.random.default_rng(0))

    def test_zero_power_noise_rejected(self):
        from confsv.datapipe import mix_noise

        with pytest.raises(DegenerateNoiseError):
            mix_noise(make_utt(seed=30), np.zeros(1000), 10.0)


def wrapped_babble(n_samples, seed):
    """Babble by the draws `make_noise` documents, each voice tiled to length."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 9))
    sig = np.zeros(n_samples)
    for index in rng.choice(BABBLE_VOICES, k, replace=False):
        voice = babble_voice(int(index))
        start = int(rng.integers(0, voice.size))
        reps = -(-(start + n_samples) // voice.size)
        sig += np.tile(voice, reps)[start : start + n_samples]
    return sig


class TestBabbleBank:
    def test_bank_voices_are_read_only_and_three_seconds_long(self):
        for index in range(BABBLE_VOICES):
            voice = babble_voice(index)
            assert abs(voice.size - 3 * SAMPLE_RATE) <= 12  # 12 tokens, each rounded
            assert not voice.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                voice[0] = 0.0

    def test_an_items_voices_are_distinct_bank_voices(self, monkeypatch):
        drawn = []
        voice = datapipe.babble_voice
        monkeypatch.setattr(datapipe, "babble_voice", lambda i: drawn.append(i) or voice(i))
        counts = set()
        for seed in range(20):
            drawn.clear()
            _, k = make_noise("babble", SAMPLE_RATE, np.random.default_rng(seed))
            assert len(drawn) == len(set(drawn)) == k
            assert set(drawn) <= set(range(BABBLE_VOICES))
            counts.add(k)
        assert len(counts) > 1

    @pytest.mark.parametrize("seconds", [0.6, 2.3, 6.0])  # 6 s: twice a voice
    def test_voices_are_read_circularly_with_no_zero_tail(self, seconds):
        n = int(seconds * SAMPLE_RATE)
        for seed in range(3):
            sig, _ = make_noise("babble", n, np.random.default_rng(seed))
            assert sig.shape == (n,)
            np.testing.assert_array_equal(sig, wrapped_babble(n, seed))
            # every 25 ms frame, the last ones too, carries the voices
            assert (np.abs(sig.reshape(-1, 400)).max(axis=1) > 0.01).all()

    def test_threads_filling_a_cold_bank_give_the_bytes_of_one(self, cold_bank, monkeypatch):
        serial = [babble_voice(i).tobytes() for i in range(BABBLE_VOICES)]
        cold_bank()
        synth = datapipe.synth_utterance
        calls = []
        monkeypatch.setattr(datapipe, "synth_utterance",
                            lambda *a, **k: calls.append(a) or synth(*a, **k))
        n_threads = 4  # more than the cores of the reference machine
        start = threading.Barrier(n_threads, timeout=60)
        built = [None] * n_threads

        def fill(slot):
            start.wait()
            built[slot] = [babble_voice(i).tobytes() for i in range(BABBLE_VOICES)]

        workers = [threading.Thread(target=fill, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert built == [serial] * n_threads
        assert len(calls) == BABBLE_VOICES  # every voice is in the bank, so one call each
        assert sorted(datapipe._BABBLE_BANK) == list(range(BABBLE_VOICES))


class TestReverb:
    def test_unit_impulse_identity(self):
        utt = make_utt(seconds=0.5, seed=9)
        out = reverb(utt, np.array([1.0]))
        np.testing.assert_allclose(out.waveform, utt.waveform, atol=1e-9)

    def test_delayed_impulse_shifts(self):
        wave = 0.1 * np.sin(2 * np.pi * 313 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        wave[0] = 0.9  # pin the peak at the start so normalization is exactly 1
        utt = Utterance(wave, "s", "a")
        lag = 7
        rir = np.zeros(lag + 1)
        rir[lag] = 1.0
        out = reverb(utt, rir)
        np.testing.assert_allclose(out.waveform[:lag], np.zeros(lag), atol=1e-9)
        np.testing.assert_allclose(out.waveform[lag:], wave[:-lag], atol=1e-9)

    def test_against_naive_convolution_oracle(self):
        rng = np.random.default_rng(11)
        wave = np.concatenate([rng.normal(size=2000) * 0.2, np.zeros(SAMPLE_RATE - 2000)])
        utt = Utterance(wave * 0.9 / np.abs(wave).max(), "s", "a")
        rir = rng.normal(size=100) * np.exp(-np.arange(100) / 20.0)
        out = reverb(utt, rir)
        naive = np.zeros(utt.n_samples)
        for k in range(rir.size):
            naive[k:] += rir[k] * utt.waveform[: utt.n_samples - k]
        naive *= np.abs(utt.waveform).max() / np.abs(naive).max()
        np.testing.assert_allclose(out.waveform, naive, atol=1e-10)

    def test_empty_rir(self):
        with pytest.raises(ConfigError):
            reverb(make_utt(seed=12), np.array([]))


class TestAugmentOnTheFly:
    def test_p_zero_always_identity(self):
        rng = np.random.default_rng(13)
        assert all(augment_plan(0.0, rng) is None for _ in range(1000))

    def test_p_one_always_applies(self):
        rng = np.random.default_rng(14)
        assert all(augment_plan(1.0, rng) is not None for _ in range(10_000))

    def test_rate_matches_probability(self):
        rng = np.random.default_rng(15)
        draws = 100_000
        applied = sum(augment_plan(0.6, rng) is not None for _ in range(draws))
        assert abs(applied / draws - 0.6) <= 0.01

    def test_deterministic_given_rng_state(self):
        utt = make_utt(seconds=0.6, seed=16)
        a = augment_onthefly(utt, 1.0, np.random.default_rng(17))
        b = augment_onthefly(utt, 1.0, np.random.default_rng(17))
        np.testing.assert_array_equal(a.waveform, b.waveform)


class TestCrop:
    def test_exact_two_second_crop(self):
        utt = make_utt(seconds=5.0, seed=18)
        out = crop(utt, 2.0, np.random.default_rng(19))
        assert out.n_samples == 32_000

    def test_loop_padding(self):
        utt = make_utt(seconds=1.0, seed=20)
        out = crop(utt, 2.0, np.random.default_rng(0))  # loop-padding draws nothing
        assert out.n_samples == 32_000
        np.testing.assert_array_equal(out.waveform[:16_000], utt.waveform)
        np.testing.assert_array_equal(out.waveform[16_000:], utt.waveform)

    def test_crop_of_the_exact_length_keeps_the_samples_and_draws_nothing(self):
        utt = make_utt(seconds=1.0, seed=23)
        rng = np.random.default_rng(24)
        out = crop(utt, 1.0, rng)
        assert out.waveform.tobytes() == utt.waveform.tobytes()
        assert rng.random() == np.random.default_rng(24).random()

    def test_crop_is_contiguous_slice(self):
        utt = make_utt(seconds=3.0, seed=21)
        out = crop(utt, 1.0, np.random.default_rng(22))
        # locate the crop by cross-correlation, then require exact equality
        xc = np.correlate(utt.waveform, out.waveform[:512], mode="valid")
        start = int(np.argmax(xc))
        np.testing.assert_array_equal(out.waveform, utt.waveform[start : start + 16_000])


class TestIO:
    def test_wav_round_trip(self, tmp_path):
        wave = np.round(np.random.default_rng(23).uniform(-0.9, 0.9, 4000) * 32767) / 32768.0
        path = tmp_path / "x.wav"
        write_wav(path, wave)
        back = read_wav(path)
        np.testing.assert_allclose(back, wave, atol=1.0 / 32768.0)

    @pytest.mark.parametrize("cut", [0, 10, 30, 44, 45, 1001, 7999])
    def test_missing_or_truncated_wav_is_a_data_error(self, tmp_path, cut):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(4000))
        path.write_bytes(path.read_bytes()[:cut])  # the header alone is 44 bytes
        with pytest.raises(DataError, match="x.wav"):
            read_wav(path)
        with pytest.raises(DataError, match="missing.wav"):
            read_wav(tmp_path / "missing.wav")

    def test_wav_length_reads_the_header_only(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(4000))
        assert wav_length(path) == 4000
        path.write_bytes(path.read_bytes()[:1001])  # the header still says 4000
        assert wav_length(path) == 4000
        for missing in (tmp_path / "missing.wav", tmp_path):
            with pytest.raises(DataError, match="cannot read WAV"):
                wav_length(missing)

    def test_wav_of_another_layout_names_its_path_once(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(bytes(4 * 8000))
        for read in (read_wav, wav_length):
            with pytest.raises(DataError) as info:
                read(path)
            assert str(info.value) == f"{path}: expected 16-bit mono 16000 Hz WAV"

    def test_corpus_manifest_round_trip(self, tmp_path):
        corpus = Corpus(3, 2, seed=24)
        manifest = write_corpus(corpus, tmp_path)
        entries = read_manifest(manifest)
        assert len(entries) == 6
        assert {e.speaker_id for e in entries} == set(corpus.speakers)
        assert all((tmp_path / e.path).exists() for e in entries)
        assert all(set(e.tokens) <= set(TOKENS) for e in entries)

    def test_manifest_rejects_malformed(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_text("only three fields here\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_manifest(bad)

    def test_manifest_that_is_not_utf8_is_a_data_error(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_bytes(b"wavs/a.wav spk0 ae 1.000\nwavs/b\xff.wav spk1 ae 1.000\n")
        with pytest.raises(DataError, match="not UTF-8"):
            read_manifest(bad)

    def test_trials_require_two_speakers(self):
        from confsv.datapipe import ManifestEntry

        single = [ManifestEntry(f"u{i}.wav", "spk0", "ae") for i in range(4)]
        with pytest.raises(DataError):
            make_trials(single, 0, 2, 2)

    @pytest.mark.parametrize("n_target, n_nontarget", [(-3, 4), (4, -1), (0, 0)])
    def test_trial_counts_must_be_non_negative_and_not_both_zero(self, n_target, n_nontarget):
        from confsv.datapipe import ManifestEntry

        entries = [ManifestEntry(f"{s}{i}.wav", s, "ae") for s in "ab" for i in range(2)]
        with pytest.raises(ConfigError, match="trial counts must be >= 0 and not both 0"):
            make_trials(entries, 0, n_target, n_nontarget)
        assert len(make_trials(entries, 0, 0, 1)) == 1  # one kind alone is enough


def test_training_batches_deterministic(tmp_path):
    """Same (seed, epoch, index) yields bit-identical batches across processes."""
    from confsv.config import RunConfig
    from confsv.conformer import EncoderConfig
    from confsv.training import _speaker_item, _stack_speaker_batch, build_items
    from confsv.util import map_batches

    manifest = write_corpus(Corpus(3, 4, seed=6), tmp_path)
    entries = read_manifest(manifest)
    items, labels = build_items(entries, use_speed=True)
    cfg = RunConfig(seed=42, encoder=EncoderConfig(1, 16, 4, 32, conv_kernel=7),
                    batch_size=6, augment_prob=0.6)
    keys = [(1, idx, 2.0) for idx in range(6)]
    with map_batches(_speaker_item(manifest, items, labels, cfg), [keys, keys]) as built:
        (a_feats, a_labels), (b_feats, b_labels) = map(_stack_speaker_batch, built)
    np.testing.assert_array_equal(a_feats.data, b_feats.data)
    np.testing.assert_array_equal(a_labels, b_labels)


def test_snr_estimate_orders_noisiness():
    # the percentile estimator relies on speech-like energy modulation
    clean = Corpus(2, 1, seed=25).utterance(0)
    noisy = add_noise(clean, "ambient", 0.0, np.random.default_rng(26))
    assert snr_estimate_db(clean.waveform) > snr_estimate_db(noisy.waveform)


def index_gather_snr_db(waveform):
    """`snr_estimate_db` as it framed the waveform before the shared strided view:
    an index-array gather of every 20 ms frame."""
    win, hop = int(0.020 * SAMPLE_RATE), int(0.010 * SAMPLE_RATE)
    if waveform.size < win:
        return 0.0
    n_frames = (waveform.size - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    energy = (waveform[idx] ** 2).mean(axis=1) + 1e-12
    hi, lo = np.percentile(energy, 85), np.percentile(energy, 15)
    return float(10.0 * np.log10(hi / lo))


@pytest.mark.parametrize("n", [100, 319, 320, 321, 479, 480, 481, 16000, 37123, 57600, 96001])
def test_snr_estimate_equals_the_index_gather(n):
    rng = np.random.default_rng(n)
    envelope = 0.1 + np.abs(np.sin(2 * np.pi * 3.0 * np.arange(n) / SAMPLE_RATE))
    wave = envelope * rng.standard_normal(n)
    assert snr_estimate_db(wave) == index_gather_snr_db(wave)


def test_rir_generator_shape():
    rir = make_rir(np.random.default_rng(27))
    assert rir[0] == 1.0 and rir.size == int(0.25 * SAMPLE_RATE)


# -- synthesis oracles ------------------------------------------------------------
# The direct formulas `synth_utterance` and `_one_pole` used before the Clenshaw
# harmonic sum and the blocked one-pole recurrence: a sine per harmonic and a
# 400-tap `np.convolve`.  The fast ones must agree with them to float rounding.


def sine_matrix_harmonic_sum(amps, phase):
    h_idx = np.arange(1, amps.size + 1)
    return (amps[:, None] * np.sin(h_idx[:, None] * phase[None, :])).sum(axis=0)


def exact_argument_harmonic_sum(amps, phase):
    """The sine matrix with `h * phase` carried exactly: `h * phase = p + e`
    (Dekker's split), `sin(p + e) ~ sin(p) + e cos(p)`.  Over long segments
    the rounding of `p` alone moves the plain sine matrix by ~1e-12."""
    h_idx = np.arange(1, amps.size + 1, dtype=np.float64)[:, None]
    big = 134217729.0 * phase
    hi = big - (big - phase)
    lo = phase - hi
    p = h_idx * phase
    e = (h_idx * hi - p) + h_idx * lo
    return (amps[:, None] * (np.sin(p) + e * np.cos(p))).sum(axis=0)


def direct_one_pole(noise, coeff):
    k = min(len(noise), 400)
    out = np.convolve(noise, coeff ** np.arange(k))[: len(noise)]
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def oracle_synth_utterance(profile, tokens, seed, min_duration=1.0):
    rng = datapipe.rng_for("utterance", profile.seed, tokens, seed)
    durations = rng.uniform(0.14, 0.24, size=len(tokens))
    total = durations.sum()
    if total < min_duration:
        durations *= min_duration / total
    pieces = []
    for tok, dur in zip(tokens, durations):
        n = int(round(dur * SAMPLE_RATE))
        t = np.arange(n) / SAMPLE_RATE
        _, harm_gain, noise_gain, noise_coeff = datapipe._TOKEN_GESTURES[tok]
        f0 = profile.f0_base * (
            1.0
            + 0.05 * np.sin(2 * np.pi * rng.uniform(1.5, 3.5) * t + rng.uniform(0, 2 * np.pi))
            + 0.01 * rng.standard_normal(n).cumsum() / max(n, 1)
        )
        phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
        amps = harmonic_amps(profile, tok, float(f0.mean()))
        harm = sine_matrix_harmonic_sum(amps, phase)
        noise = direct_one_pole(rng.standard_normal(n), noise_coeff) * noise_gain
        seg = harm_gain * harm / (np.abs(harm).max() + 1e-12) + noise
        ramp = min(n // 8, 160)
        env = np.ones(n)
        if ramp > 0:
            env[:ramp] = np.linspace(0.0, 1.0, ramp)
            env[-ramp:] = np.linspace(1.0, 0.0, ramp)
        pieces.append(seg * env)
    wave = np.concatenate(pieces)
    wave = wave + 0.002 * rng.standard_normal(wave.size)
    return 0.9 * wave / (np.abs(wave).max() + 1e-12)


def harmonic_amps(profile, tok, f0_mean):
    h_idx = np.arange(1, datapipe._N_HARMONICS + 1)
    freqs = h_idx * f0_mean
    amps = profile.formant_gain(freqs, tok) * profile.harmonic_tilt / (h_idx ** profile.rolloff)
    return np.where(freqs < SAMPLE_RATE / 2 - 200, amps, 0.0)


def wobbling_phase(f0_base, seconds, seed):
    rng = np.random.default_rng(seed)
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = f0_base * (1.0 + 0.05 * np.sin(2 * np.pi * 2.5 * t + rng.uniform(0, 6.28))
                    + 0.01 * rng.standard_normal(n).cumsum() / n)
    return f0, 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE


def peak_relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestSynthesisOracles:
    F0S = (95.0, 140.0, 210.0, 294.0)

    @pytest.mark.parametrize("f0_base", F0S)
    @pytest.mark.parametrize("seconds", [0.01, 0.2, 1.0])
    def test_clenshaw_matches_the_sine_matrix(self, f0_base, seconds):
        # the token segments of the corpora and babble voices built here are
        # under 1 s; longer ones are checked against the exact-argument oracle
        f0, phase = wobbling_phase(f0_base, seconds, seed=int(f0_base))
        for i, tok in enumerate(TOKENS):
            amps = harmonic_amps(datapipe.SynthSpeakerProfile(i), tok, float(f0.mean()))
            got = datapipe._harmonic_sum(amps, phase)
            assert peak_relative_gap(got, sine_matrix_harmonic_sum(amps, phase)) <= 1e-12

    @pytest.mark.parametrize("f0_base", F0S)
    @pytest.mark.parametrize("seconds", [2.0, 4.0, 8.0])
    def test_clenshaw_matches_the_exact_argument_sine_matrix_up_to_8_s(self, f0_base, seconds):
        f0, phase = wobbling_phase(f0_base, seconds, seed=int(f0_base) + 1)
        for i, tok in enumerate(TOKENS):
            amps = harmonic_amps(datapipe.SynthSpeakerProfile(i), tok, float(f0.mean()))
            got = datapipe._harmonic_sum(amps, phase)
            assert peak_relative_gap(got, exact_argument_harmonic_sum(amps, phase)) <= 1e-12

    @pytest.mark.parametrize("min_duration", [1.0, 2.3, 3.6, 8.0])
    def test_synth_utterance_matches_the_oracle(self, min_duration):
        for seed in range(4):
            prof = datapipe.SynthSpeakerProfile(1000 + seed)
            tokens = "".join(TOKENS[(3 * seed + j) % len(TOKENS)] for j in range(8 + seed))
            got = datapipe.synth_utterance(prof, tokens, seed, min_duration=min_duration)
            want = oracle_synth_utterance(prof, tokens, seed, min_duration=min_duration)
            assert got.shape == want.shape
            assert peak_relative_gap(got, want) <= 1e-12

    @pytest.mark.parametrize("coeff", [0.30, 0.90, 0.995])
    @pytest.mark.parametrize("n", [1, 7, 399, 400, 401, 3000, 41600])
    def test_one_pole_matches_the_direct_convolution(self, coeff, n):
        noise = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_allclose(datapipe._one_pole(noise, coeff),
                                   direct_one_pole(noise, coeff), rtol=0, atol=1e-12)

    def test_babble_matches_the_oracle(self, monkeypatch, cold_bank):
        got = make_noise("babble", 3 * SAMPLE_RATE, np.random.default_rng(11))
        cold_bank()  # else the oracle side would read the voices built above
        monkeypatch.setattr(datapipe, "synth_utterance", oracle_synth_utterance)
        want = make_noise("babble", 3 * SAMPLE_RATE, np.random.default_rng(11))
        assert got[1] == want[1]
        assert peak_relative_gap(got[0], want[0]) <= 1e-12

    @pytest.mark.parametrize("min_duration", [1.0, 2.3, 3.6])
    def test_written_corpus_is_byte_identical_to_the_oracle(self, tmp_path, monkeypatch,
                                                            min_duration):
        for seed in (0, 1, 2):
            corpus = datapipe.Corpus(3, 2, seed, min_duration=min_duration)
            new_dir, old_dir = tmp_path / f"new{seed}", tmp_path / f"old{seed}"
            write_corpus(corpus, new_dir)
            with monkeypatch.context() as m:
                m.setattr(datapipe, "synth_utterance", oracle_synth_utterance)
                write_corpus(corpus, old_dir)
            for i in range(len(corpus)):
                rel = f"wavs/{corpus.utterance_id(i)}"
                assert (new_dir / rel).read_bytes() == (old_dir / rel).read_bytes(), rel
            assert (new_dir / "manifest.txt").read_bytes() == (old_dir / "manifest.txt").read_bytes()
