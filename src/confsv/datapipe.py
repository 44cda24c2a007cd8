"""Synthetic speaker corpus, log-Mel features, and augmentation.

Speakers are harmonic sources shaped by per-speaker formant-like resonances
and per-token spectral gestures, so every utterance carries both a speaker
identity (for verification) and a token sequence (for CTC).  All generation
is a pure function of seeds: the same (corpus seed, item index) always yields
the same samples, which is what the reproducibility contracts lean on.

Noise and room responses are procedurally generated stand-ins for the usual
augmentation corpora.  Babble is summed from a fixed bank of `BABBLE_VOICES`
seeded voices, as recipes sum recordings of a fixed speech set such as MUSAN:
each voice depends on its bank index only, is built on its first draw and is
reused for the rest of the process.
"""

from __future__ import annotations

import math
import threading
import wave as wave_mod
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DataError, DegenerateNoiseError, InputTooShortError
from .util import read_text, rng_for, stable_seed, write_lines

SAMPLE_RATE = 16000
TOKENS = "aeioumnsrz"  # toy phoneme inventory; CTC ids are 1-based, 0 = blank
TOKEN_IDS = {t: i + 1 for i, t in enumerate(TOKENS)}
VOCAB_SIZE = len(TOKENS)

N_MELS = 80
F_MAX = 8000.0
WINDOW_SEC = 0.020
HOP_SEC = 0.010
WIN = int(WINDOW_SEC * SAMPLE_RATE)  # samples per analysis frame
HOP = int(HOP_SEC * SAMPLE_RATE)
N_FFT = 512
LOG_FLOOR = 1e-10
RIR_SEC = 0.25

MIN_UTT_SEC = 0.5


def token_ids(tokens: str) -> list[int]:
    try:
        return [TOKEN_IDS[t] for t in tokens]
    except KeyError as e:
        raise DataError(f"unknown token {e.args[0]!r}") from None


@dataclass
class Utterance:
    waveform: np.ndarray
    speaker_id: str
    tokens: str
    norm_gain: float = 1.0  # gain applied by clipping protection, if any

    def __post_init__(self):
        self.waveform = np.asarray(self.waveform, dtype=np.float64)
        if not self.tokens:
            raise DataError("utterance needs a nonempty token sequence")
        if self.duration_sec < MIN_UTT_SEC - 1e-9:
            raise DataError(f"utterance shorter than {MIN_UTT_SEC}s: {self.duration_sec:.3f}")
        peak = np.abs(self.waveform).max() if self.waveform.size else 0.0
        if peak > 1.0 + 1e-9:
            raise DataError(f"samples exceed [-1, 1] (peak {peak:.4f})")

    @property
    def n_samples(self) -> int:
        return self.waveform.size

    @property
    def duration_sec(self) -> float:
        return self.n_samples / SAMPLE_RATE

    def token_id_seq(self) -> list[int]:
        return token_ids(self.tokens)


# -- synthetic speakers ---------------------------------------------------------

# Per-token spectral gestures: multiplicative formant shifts, harmonic level,
# noise level, and noise brightness (one-pole coefficient).
_TOKEN_GESTURES = {
    "a": ((1.25, 0.95, 1.00), 1.00, 0.02, 0.90),
    "e": ((0.85, 1.25, 1.05), 0.95, 0.02, 0.90),
    "i": ((0.60, 1.45, 1.10), 0.90, 0.02, 0.90),
    "o": ((1.05, 0.70, 0.95), 1.00, 0.02, 0.90),
    "u": ((0.70, 0.60, 0.90), 0.95, 0.02, 0.90),
    "m": ((0.55, 0.65, 0.80), 0.55, 0.05, 0.97),
    "n": ((0.60, 0.80, 0.85), 0.55, 0.05, 0.95),
    "s": ((1.00, 1.00, 1.00), 0.05, 0.85, 0.30),
    "r": ((0.95, 0.85, 0.70), 0.75, 0.10, 0.80),
    "z": ((1.00, 1.00, 1.00), 0.40, 0.55, 0.35),
}

_N_HARMONICS = 20


@dataclass
class SynthSpeakerProfile:
    """Seeded voice: pitch range, harmonic envelope, resonances, token offsets."""

    seed: int
    f0_base: float = field(init=False)
    rolloff: float = field(init=False)
    formants: np.ndarray = field(init=False)
    bandwidths: np.ndarray = field(init=False)
    harmonic_tilt: np.ndarray = field(init=False)
    token_offsets: dict = field(init=False)

    def __post_init__(self):
        rng = rng_for("speaker-profile", self.seed)
        self.f0_base = float(np.exp(rng.uniform(np.log(95.0), np.log(280.0))))
        self.rolloff = float(rng.uniform(0.6, 1.6))
        self.formants = np.array(
            [rng.uniform(320, 880), rng.uniform(950, 2300), rng.uniform(2400, 3400)]
        )
        self.bandwidths = np.array([rng.uniform(70, 140) for _ in range(3)])
        self.harmonic_tilt = rng.uniform(0.75, 1.25, size=_N_HARMONICS)
        self.token_offsets = {
            t: rng.uniform(0.92, 1.08, size=3) for t in TOKENS
        }

    def formant_gain(self, freqs: np.ndarray, token: str) -> np.ndarray:
        shifts = np.asarray(_TOKEN_GESTURES[token][0]) * self.token_offsets[token]
        centers = self.formants * shifts
        gain = np.full_like(freqs, 0.05, dtype=np.float64)
        for fc, bw in zip(centers, self.bandwidths):
            gain = gain + 1.0 / (1.0 + ((freqs - fc) / bw) ** 2)
        return gain


_ONE_POLE_BLOCK = 64
# Entry [m, i] of a block's filter matrix is powers[i - m]; below the diagonal
# it indexes the zero that `_one_pole` puts at powers[_ONE_POLE_BLOCK + 1].
_ONE_POLE_LAGS = np.arange(_ONE_POLE_BLOCK)[None, :] - np.arange(_ONE_POLE_BLOCK)[:, None]
_ONE_POLE_LAGS[_ONE_POLE_LAGS < 0] = _ONE_POLE_BLOCK + 1


def _one_pole(noise: np.ndarray, coeff: float) -> np.ndarray:
    """Cheap colored noise: the 400-tap FIR `y[i] = sum_j coeff**j noise[i-j]`,
    scaled to unit peak.

    Run as the recurrence `y[i] = coeff y[i-1] + noise[i]` in blocks of 64
    samples: one GEMM against the triangular Toeplitz matrix `coeff**(i-m)`
    filters every block from a zero state, a scalar pass carries each block's
    last value into the next, and `y[i] -= coeff**400 y[i-400]` cuts the tail
    at 400 taps.
    """
    n, b = noise.size, _ONE_POLE_BLOCK
    taps = min(n, 400)
    rows = -(-n // b)
    x = np.zeros(rows * b)
    x[:n] = noise
    powers = coeff ** np.arange(b + 2)
    powers[b + 1] = 0.0
    y = x.reshape(rows, b) @ powers[_ONE_POLE_LAGS]
    decay, carry, carries = float(powers[b]), 0.0, []
    for last in y[:-1, -1].tolist():
        carry = last + decay * carry
        carries.append(carry)
    y[1:] += np.multiply.outer(carries, powers[1 : b + 1])
    out = y.reshape(-1)[:n]
    out[taps:] -= coeff ** taps * out[: n - taps]
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def _harmonic_sum(amps: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """`sum_h amps[h-1] * sin(h * phase)` by the Clenshaw recurrence.

    From h = H down to 1, `b_h = amps[h-1] + 2cos(phase) b_{h+1} - b_{h+2}`;
    the sum is `b_1 sin(phase)`.  One cosine and one sine per sample and H
    multiply-adds, where the direct sum takes H sines.
    """
    two_cos = 2.0 * np.cos(phase)
    b1 = np.full_like(phase, amps[-1])
    b2 = np.zeros_like(phase)
    tmp = np.empty_like(phase)
    for a in amps[-2::-1]:
        np.multiply(two_cos, b1, out=tmp)
        tmp -= b2
        tmp += a
        b1, b2, tmp = tmp, b1, b2
    return b1 * np.sin(phase)


def synth_utterance(profile: SynthSpeakerProfile, tokens: str, seed: int,
                    min_duration: float = 1.0) -> np.ndarray:
    """Deterministic waveform for a token string in this speaker's voice.

    Each token is a segment of `_N_HARMONICS` harmonics of a wobbling f0,
    shaped by the speaker's formants and the token's gesture (summed by
    `_harmonic_sum`), plus one-pole colored noise, under a short fade in and
    out; the segments are concatenated over a faint white floor and scaled
    to a 0.9 peak.
    """
    rng = rng_for("utterance", profile.seed, tokens, seed)
    durations = rng.uniform(0.14, 0.24, size=len(tokens))
    total = durations.sum()
    if total < min_duration:
        durations *= min_duration / total
    pieces = []
    for tok, dur in zip(tokens, durations):
        n = int(round(dur * SAMPLE_RATE))
        t = np.arange(n) / SAMPLE_RATE
        _, harm_gain, noise_gain, noise_coeff = _TOKEN_GESTURES[tok]
        f0 = profile.f0_base * (
            1.0
            + 0.05 * np.sin(2 * np.pi * rng.uniform(1.5, 3.5) * t + rng.uniform(0, 2 * np.pi))
            + 0.01 * rng.standard_normal(n).cumsum() / max(n, 1)
        )
        phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
        h_idx = np.arange(1, _N_HARMONICS + 1)
        freqs = h_idx * float(f0.mean())
        amps = (
            profile.formant_gain(freqs, tok)
            * profile.harmonic_tilt
            / (h_idx ** profile.rolloff)
        )
        amps = np.where(freqs < SAMPLE_RATE / 2 - 200, amps, 0.0)
        harm = _harmonic_sum(amps, phase)
        noise = _one_pole(rng.standard_normal(n), noise_coeff) * noise_gain
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


@dataclass
class Corpus:
    """Lazy, fully seeded utterance collection."""

    n_speakers: int
    utts_per_speaker: int
    seed: int
    min_duration: float = 2.3

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ConfigError("a corpus needs at least 2 speakers")
        if self.utts_per_speaker < 1:
            raise ConfigError("a corpus needs at least 1 utterance per speaker")
        self.speakers = [f"spk{idx:03d}" for idx in range(self.n_speakers)]
        self._profiles = {
            spk: SynthSpeakerProfile(stable_seed(self.seed, "profile", spk))
            for spk in self.speakers
        }
        self._tokens: dict[tuple[int, int], str] = {}
        for s in range(self.n_speakers):
            for u in range(self.utts_per_speaker):
                rng = rng_for(self.seed, "tokens", s, u)
                n_tok = int(rng.integers(8, 13))
                self._tokens[(s, u)] = "".join(
                    TOKENS[i] for i in rng.integers(0, len(TOKENS), size=n_tok)
                )

    def __len__(self) -> int:
        return self.n_speakers * self.utts_per_speaker

    def item_key(self, index: int) -> tuple[int, int]:
        return divmod(index, self.utts_per_speaker)

    def utterance_id(self, index: int) -> str:
        s, u = self.item_key(index)
        return f"{self.speakers[s]}_u{u:03d}.wav"

    def utterance(self, index: int) -> Utterance:
        s, u = self.item_key(index)
        spk = self.speakers[s]
        tokens = self._tokens[(s, u)]
        wave = synth_utterance(
            self._profiles[spk], tokens, stable_seed(self.seed, "synth", s, u),
            min_duration=self.min_duration,
        )
        return Utterance(wave, spk, tokens)


# -- features -------------------------------------------------------------------


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """Triangular filters on the mel scale up to `F_MAX`, area-normalized,
    (N_MELS, N_FFT//2+1)."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_pts = np.linspace(to_mel(0.0), to_mel(F_MAX), N_MELS + 2)
    hz_pts = from_mel(mel_pts)
    bins = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    fb = np.zeros((N_MELS, bins.size))
    for i in range(N_MELS):
        lo, ctr, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bins - lo) / max(ctr - lo, 1e-9)
        down = (hi - bins) / max(hi - ctr, 1e-9)
        fb[i] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def frame_count(n_samples: int) -> int:
    return (n_samples - WIN) // HOP + 1


def _frames(waveform: np.ndarray) -> np.ndarray:
    """The (frame_count, WIN) analysis frames, a strided view of the waveform."""
    return np.lib.stride_tricks.sliding_window_view(waveform, WIN)[::HOP]


_FFT_ROWS = 32  # frames per FFT block in log_mel


def log_mel(waveform: np.ndarray) -> np.ndarray:
    """Log mel-filterbank energies, (T, N_MELS); Hamming 20 ms windows, 10 ms shift.

    Features and the encoder's maps are time-major, (T, C), from here through
    the model and the layer-wise probe.

    The frames are a strided view of the waveform, and the power spectrum is
    filled in blocks of `_FFT_ROWS` frames, so the temporaries stay small
    whatever the utterance length.  Each frame's FFT is independent, so the
    blocks give the same bits as one FFT over all frames.
    """
    waveform = np.asarray(waveform, dtype=np.float64)
    if waveform.size < WIN:
        raise InputTooShortError(f"need >= {WIN} samples, got {waveform.size}")
    frames = _frames(waveform)
    window = np.hamming(WIN)
    power = np.empty((frame_count(waveform.size), N_FFT // 2 + 1))
    for start in range(0, power.shape[0], _FFT_ROWS):
        block = slice(start, start + _FFT_ROWS)
        np.square(np.abs(np.fft.rfft(frames[block] * window, n=N_FFT, axis=1)), out=power[block])
    mel = mel_filterbank() @ power.T
    return np.log(np.maximum(mel, LOG_FLOOR)).T


def snr_estimate_db(waveform: np.ndarray) -> float:
    """Energy-percentile SNR proxy: high vs low frame-energy quantiles in dB."""
    if waveform.size < WIN:
        return 0.0
    energy = (_frames(waveform) ** 2).mean(axis=1) + 1e-12
    hi, lo = np.percentile(energy, 85), np.percentile(energy, 15)
    return float(10.0 * np.log10(hi / lo))


# -- augmentation ---------------------------------------------------------------

SPEED_FACTORS = (0.9, 1.1)


def speed_perturb(utt: Utterance, factor: float) -> Utterance:
    """Resample by `factor`; any factor != 1 defines a new speaker label."""
    if factor <= 0:
        raise ConfigError("speed factor must be positive")
    if factor == 1.0:
        return utt
    n_new = int(round(utt.n_samples / factor))
    positions = np.arange(n_new) * factor
    wave = np.interp(positions, np.arange(utt.n_samples), utt.waveform)
    return Utterance(wave, f"{utt.speaker_id}@sp{factor}", utt.tokens, utt.norm_gain)


def expand_speed_labels(speakers: Sequence[str]) -> list[str]:
    """Speaker label set after both perturbation factors: 3x the originals."""
    out = list(speakers)
    for f in SPEED_FACTORS:
        out.extend(f"{s}@sp{f}" for s in speakers)
    return out


BABBLE_VOICES = 12
BABBLE_VOICE_SEC = 3.0
_BABBLE_BANK: dict[int, np.ndarray] = {}  # index -> voice, built on its first draw
_BABBLE_LOCKS = tuple(threading.Lock() for _ in range(BABBLE_VOICES))


def babble_voice(index: int) -> np.ndarray:
    """Voice `index` of the babble bank: a seeded speaker saying 12 seeded
    tokens, stretched to `BABBLE_VOICE_SEC`.

    Built once per process, under the index's own lock, and shared, so the
    array is read-only.  It depends on the index alone, not on the run seed,
    so babble comes out the same whichever thread first builds a voice.
    """
    with _BABBLE_LOCKS[index]:
        voice = _BABBLE_BANK.get(index)
        if voice is None:
            rng = rng_for("babble-voice", index)
            profile = SynthSpeakerProfile(int(rng.integers(0, 2**32)))
            tokens = "".join(TOKENS[i] for i in rng.integers(0, len(TOKENS), size=12))
            voice = synth_utterance(profile, tokens, int(rng.integers(0, 2**32)),
                                    min_duration=BABBLE_VOICE_SEC)
            voice.flags.writeable = False
            _BABBLE_BANK[index] = voice
    return voice


def make_noise(kind: str, n_samples: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Procedural noise of a given kind; returns (signal, source count).

    Babble sums 3 to 8 distinct voices of the bank, each read circularly from
    a drawn offset, so an item longer than a voice wraps around it.
    """
    if kind == "ambient":
        coeff = rng.uniform(0.9, 0.995)
        return _one_pole(rng.standard_normal(n_samples), coeff), 1
    if kind == "music":
        t = np.arange(n_samples) / SAMPLE_RATE
        sig = np.zeros(n_samples)
        for _ in range(int(rng.integers(3, 6))):
            f = rng.uniform(80, 1200)
            am = 0.5 * (1 + np.sin(2 * np.pi * rng.uniform(0.3, 2.0) * t + rng.uniform(0, 6.28)))
            sig += am * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
        sig += 0.05 * rng.standard_normal(n_samples)
        return sig, 1
    if kind == "babble":
        k = int(rng.integers(3, 9))  # three to eight overlapping voices
        sig = np.zeros(n_samples)
        for index in rng.choice(BABBLE_VOICES, k, replace=False):
            voice = babble_voice(int(index))
            start = int(rng.integers(0, voice.size))
            sig += np.take(voice, np.arange(start, start + n_samples), mode="wrap")
        return sig, k
    raise ConfigError(f"unknown noise kind {kind!r}")


def mix_noise(utt: Utterance, noise: np.ndarray, snr_db: float) -> Utterance:
    """Mix a noise waveform at an exact SNR; rescales into [-1, 1] if needed."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.size < utt.n_samples:
        noise = np.tile(noise, int(np.ceil(utt.n_samples / max(noise.size, 1))))
    noise = noise[: utt.n_samples]
    p_signal = float(np.mean(utt.waveform**2))
    p_noise = float(np.mean(noise**2))
    if p_noise <= 0.0 or p_signal <= 0.0:
        raise DegenerateNoiseError("zero-power signal or noise cannot be SNR-scaled")
    gain = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = utt.waveform + gain * noise
    peak = np.abs(mixed).max()
    norm = 1.0 / peak if peak > 1.0 else 1.0
    return replace(utt, waveform=mixed * norm, norm_gain=utt.norm_gain * norm)


def add_noise(utt: Utterance, noise_kind: str, snr_db: float, rng: np.random.Generator,
              return_info: bool = False):
    """Mix procedural noise of a kind at an exact SNR."""
    if np.isinf(snr_db) and snr_db > 0:
        return (utt, {"noise": noise_kind, "n_sources": 0, "norm_gain": 1.0}) if return_info else utt
    noise, n_sources = make_noise(noise_kind, utt.n_samples, rng)
    out = mix_noise(utt, noise, snr_db)
    if return_info:
        return out, {"noise": noise_kind, "n_sources": n_sources,
                     "norm_gain": out.norm_gain / utt.norm_gain}
    return out


def make_rir(rng: np.random.Generator) -> np.ndarray:
    """Synthetic exponential-decay room impulse response, direct path first."""
    n = int(RIR_SEC * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    tau = rng.uniform(0.02, 0.08)
    rir = rng.standard_normal(n) * np.exp(-t / tau) * 0.3
    rir[0] = 1.0
    return rir


def _fft_convolve(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    n = x.size + k.size - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(k, nfft), nfft)[:n]


def reverb(utt: Utterance, rir: np.ndarray) -> Utterance:
    """Convolve with an impulse response, truncate, and restore the input peak."""
    rir = np.asarray(rir, dtype=np.float64)
    if rir.size == 0:
        raise ConfigError("empty impulse response")
    wet = _fft_convolve(utt.waveform, rir)[: utt.n_samples]
    peak_in = np.abs(utt.waveform).max()
    peak_out = np.abs(wet).max()
    if peak_out > 0 and peak_in > 0:
        wet = wet * (peak_in / peak_out)
    return replace(utt, waveform=wet)


AUGMENT_KINDS = ("ambient", "music", "babble", "reverb")


def augment_plan(p: float, rng: np.random.Generator) -> Optional[str]:
    """Draw the on-the-fly decision: None (identity) or one augmentation kind.

    `p` is `RunConfig.augment_prob`, which the config checks lies in [0, 1].
    """
    if rng.random() >= p:
        return None
    return AUGMENT_KINDS[int(rng.integers(0, len(AUGMENT_KINDS)))]


def augment_onthefly(utt: Utterance, p: float, rng: np.random.Generator) -> Utterance:
    """With probability p apply one randomly chosen augmentation, else identity."""
    kind = augment_plan(p, rng)
    if kind is None:
        return utt
    if kind == "reverb":
        return reverb(utt, make_rir(rng))
    return add_noise(utt, kind, snr_db=float(rng.uniform(0.0, 20.0)), rng=rng)


def crop(utt: Utterance, seconds: float, rng: np.random.Generator) -> Utterance:
    """Random contiguous crop when longer; loop-pad when shorter."""
    n = int(round(seconds * SAMPLE_RATE))
    if utt.n_samples > n:
        start = int(rng.integers(0, utt.n_samples - n + 1))
        wave = utt.waveform[start : start + n]
    elif utt.n_samples < n:
        reps = int(np.ceil(n / utt.n_samples))
        wave = np.tile(utt.waveform, reps)[:n]
    else:
        wave = utt.waveform
    return replace(utt, waveform=wave)


# -- corpus on disk --------------------------------------------------------------


def write_wav(path: Union[str, Path], waveform: np.ndarray) -> None:
    pcm = np.clip(np.asarray(waveform), -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    with wave_mod.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())


def _open_wav(path: Union[str, Path], read):
    """`read(f)` on the opened 16-bit mono WAV; a missing or malformed file raises DataError."""
    try:
        with wave_mod.open(str(path), "rb") as f:
            if (f.getnchannels(), f.getsampwidth(), f.getframerate()) == (1, 2, SAMPLE_RATE):
                return read(f)
    except (OSError, EOFError, ValueError, wave_mod.Error) as e:  # ValueError: a NUL in the path
        raise DataError(f"{path}: cannot read WAV: {e}") from None
    raise DataError(f"{path}: expected 16-bit mono {SAMPLE_RATE} Hz WAV")


def wav_length(path: Union[str, Path]) -> int:
    """The sample count a WAV's header declares; the samples are not read."""
    return _open_wav(path, lambda f: f.getnframes())


def read_wav(path: Union[str, Path]) -> np.ndarray:
    """Samples of a 16-bit mono WAV; a missing, malformed or truncated file raises DataError."""
    n_frames, raw = _open_wav(path, lambda f: (f.getnframes(), f.readframes(f.getnframes())))
    if len(raw) != 2 * n_frames:
        raise DataError(f"{path}: truncated WAV: {len(raw)} of {2 * n_frames} data bytes")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


@dataclass
class ManifestEntry:
    path: str
    speaker_id: str
    tokens: str


def write_corpus(corpus: Corpus, out_dir: Union[str, Path]) -> Path:
    """Write WAVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(len(corpus)):
        utt = corpus.utterance(i)
        rel = f"wavs/{corpus.utterance_id(i)}"
        write_wav(out_dir / rel, utt.waveform)
        lines.append(f"{rel} {utt.speaker_id} {utt.tokens} {utt.duration_sec:.3f}")
    manifest = out_dir / "manifest.txt"
    write_lines(manifest, lines)
    return manifest


def read_manifest(path: Union[str, Path]) -> list[ManifestEntry]:
    """The entries of a manifest.  The duration column must be a finite,
    non-negative number; the audio's own length is read from its WAV."""
    entries = []
    for i, line in enumerate(read_text(path, DataError).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"{path}: line {i}: expected 4 fields, got {len(parts)}")
        try:
            valid = 0 <= float(parts[3]) < math.inf  # false for nan too
        except ValueError:
            valid = False
        if not valid:
            raise DataError(f"{path}: line {i}: bad duration {parts[3]!r}")
        entries.append(ManifestEntry(parts[0], parts[1], parts[2]))
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def load_utterance(manifest_path: Union[str, Path], entry: ManifestEntry) -> Utterance:
    wave = read_wav(Path(manifest_path).parent / entry.path)
    return Utterance(wave, entry.speaker_id, entry.tokens)


def make_trials(entries: Sequence[ManifestEntry], seed: int, n_target: int,
                n_nontarget: int) -> list[tuple[int, str, str]]:
    """Sample (label, enroll, test) trials from manifest entries; a negative
    count, or a total of 0, is a ConfigError."""
    if n_target < 0 or n_nontarget < 0 or n_target + n_nontarget == 0:
        raise ConfigError(f"trial counts must be >= 0 and not both 0, got {n_target} target "
                          f"and {n_nontarget} non-target")
    rng = rng_for(seed, "trials")
    by_spk: dict[str, list[str]] = {}
    for e in entries:
        by_spk.setdefault(e.speaker_id, []).append(e.path)
    speakers = sorted(s for s, utts in by_spk.items() if len(utts) >= 2)
    if len(speakers) < 2:
        raise DataError("need >= 2 speakers with >= 2 utterances for trials")
    trials = []
    for _ in range(n_target):
        s = speakers[int(rng.integers(0, len(speakers)))]
        a, b = rng.choice(len(by_spk[s]), size=2, replace=False)
        trials.append((1, by_spk[s][a], by_spk[s][b]))
    for _ in range(n_nontarget):
        i, j = rng.choice(len(speakers), size=2, replace=False)
        a = by_spk[speakers[i]][int(rng.integers(0, len(by_spk[speakers[i]])))]
        b = by_spk[speakers[j]][int(rng.integers(0, len(by_spk[speakers[j]])))]
        trials.append((0, a, b))
    return trials
