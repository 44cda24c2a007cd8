"""Verification back end: trials, cosine scores, normalization, calibration, metrics.

Score normalization is the symmetric adaptive form: the raw score is z-normed
against each side's top-k highest imposter-cohort scores and the two z-scores
are averaged.  Calibration is a logistic model over the raw score plus six
quality features.  EER interpolates linearly between the bracketing ROC points;
minDCF (P_target 0.01, unit costs) sweeps every decision threshold including
accept-all and reject-all.

Each step has one batch path over a whole trial list: `score_trials` or
`snorm_scores`, then `qmf_features` -> `qmf_fit` -> `QmfModel.calibrate`.  Trial
lists reuse their embeddings many times, so within one call the per-embedding
work (the float64 copy and norm, the cohort top-k statistics, the quality
features) is done once per key and a trial costs one 256-term dot product.
Lists that should share that work are scored in one call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import (
    DataError,
    DegenerateCohortError,
    DegenerateEmbeddingError,
    DegenerateLabelsError,
    DimensionError,
    MissingEmbeddingError,
    NumericError,
    TrialParseError,
)
from .heads import EMBEDDING_DIM
from .util import ByteReader, read_text, write_atomic

EMB_STORE_MAGIC = b"CFSVEMB1"
EMB_STORE_VERSION = 1
P_TARGET = 0.01
QMF_TOL = 1e-8
QMF_MAX_ITERS = 200000


@dataclass
class Trial:
    label: int  # 1 = target, 0 = nontarget
    enroll: str
    test: str


@dataclass
class TrialList:
    trials: list[Trial]

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    @property
    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=np.int64)


def parse_trials(path: Union[str, Path]) -> TrialList:
    """Lines of "label enroll test" with label in {0, 1}, whitespace-separated."""
    trials = []
    for i, line in enumerate(read_text(path, DataError).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TrialParseError(i, f"expected 3 fields, got {len(parts)}")
        if parts[0] not in ("0", "1"):
            raise TrialParseError(i, f"label must be 0 or 1, got {parts[0]!r}")
        trials.append(Trial(int(parts[0]), parts[1], parts[2]))
    return TrialList(trials)


def _cosine(e1: np.ndarray, n1: float, e2: np.ndarray, n2: float) -> float:
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateEmbeddingError("cannot cosine-score a zero embedding")
    return float(np.dot(e1, e2) / (n1 * n2))


def _check_cohort_size(top_k: int, size: int) -> None:
    if top_k < 2 or size < top_k:
        raise DegenerateCohortError(
            f"need a cohort of >= top_k >= 2 scores (top_k={top_k}, size {size})"
        )


def _top_stats(cohort_scores: np.ndarray, top_k: int) -> tuple[float, float]:
    """Mean and standard deviation of the top_k highest cohort scores."""
    top = np.sort(cohort_scores)[-top_k:]
    return float(top.mean()), float(top.std())


def _snorm(raw: float, enroll_stats: tuple[float, float],
           test_stats: tuple[float, float]) -> float:
    (mu_e, sigma_e), (mu_t, sigma_t) = enroll_stats, test_stats
    if sigma_e == 0.0 or sigma_t == 0.0:
        raise DegenerateCohortError("zero-variance cohort")
    return 0.5 * ((raw - mu_e) / sigma_e + (raw - mu_t) / sigma_t)


# -- metrics ---------------------------------------------------------------------


def _check_two_classes(labels: np.ndarray) -> None:
    if labels.size == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError("need both target and nontarget trials")


def _operating_points(scores: Sequence[float], labels: Sequence[int]):
    """Accepted targets and nontargets at every unique threshold, high to low.

    A trial is accepted iff its score >= the threshold.  One stable sort by
    descending score; the cumulative counts at the end of each tie group are
    the accepts with that group's score as the threshold.  O(N log N).
    Returns (accepted targets, accepted nontargets, n_target, n_nontarget).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _check_two_classes(labels)
    if scores.shape != labels.shape:
        raise DimensionError(f"{scores.shape} scores for {labels.shape} labels")
    if np.isnan(scores).any():
        raise NumericError("NaN in the scores")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tar = np.cumsum(y == 1)
    non = np.cumsum(y == 0)
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])  # end of each tie group
    return tar[last], non[last], int(tar[-1]), int(non[-1])


def eer(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Equal error rate in percent, linearly interpolated at the FAR/FRR crossing."""
    tar, non, n_tar, n_non = _operating_points(scores, labels)
    # reject-all first; the last operating point accepts every trial, so FAR
    # ends at 1 and FRR at 0 and the difference crosses zero somewhere
    far = np.concatenate([[0.0], non / n_non])
    frr = np.concatenate([[1.0], 1.0 - tar / n_tar])
    diff = far - frr
    idx = int(np.argmax(diff >= 0))
    if diff[idx] == 0:
        return float(100.0 * far[idx])
    f1, r1 = far[idx - 1], frr[idx - 1]
    f2, r2 = far[idx], frr[idx]
    t = (r1 - f1) / ((r1 - f1) - (r2 - f2))
    return float(100.0 * (f1 + t * (f2 - f1)))


def min_dcf(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Minimum normalized detection cost over all decision thresholds, at
    `P_TARGET` with unit miss and false-alarm costs."""
    tar, non, n_tar, n_non = _operating_points(scores, labels)
    # the last operating point accepts every trial; add reject-all
    far = np.concatenate([non / n_non, [0.0]])
    frr = np.concatenate([(n_tar - tar) / n_tar, [1.0]])
    cost = P_TARGET * frr + (1.0 - P_TARGET) * far
    return float(cost.min() / min(P_TARGET, 1.0 - P_TARGET))


# -- calibration -----------------------------------------------------------------


@dataclass
class QmfModel:
    """Logistic calibration over [raw score, 6 quality features]."""

    weights: np.ndarray  # (7,)
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def calibrate(self, features: np.ndarray) -> np.ndarray:
        """Calibrated score of each (n, 7) feature row.

        One 7-term dot product per row: a matrix-vector product would sum in
        another order and change the last bits.
        """
        z = (features - self.feat_mean) / self.feat_std
        return np.array([float(row @ self.weights + self.bias) for row in z])


def _fit_logistic(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent with a unit step on mean cross-entropy, to
    |delta loss| < `QMF_TOL` or `QMF_MAX_ITERS` steps."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    prev = np.inf
    for _ in range(QMF_MAX_ITERS):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        eps = 1e-12
        loss = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        if abs(prev - loss) < QMF_TOL:
            break
        prev = loss
        g = p - y
        w -= (x.T @ g) / n
        b -= g.mean()
    return w, b


def qmf_features(trials: TrialList, scores: np.ndarray,
                 quality: dict[str, tuple[float, float, float]]) -> np.ndarray:
    """(n, 7) calibration features, one row per trial: its score, then the
    enroll and test duration, the enroll and test SNR, and the enroll and test
    embedding magnitude.  The per-utterance features are looked up once per key."""
    index = {key: i for i, key in enumerate(quality)}
    try:
        enroll = np.array([index[t.enroll] for t in trials], dtype=np.int64)
        test = np.array([index[t.test] for t in trials], dtype=np.int64)
    except KeyError as e:
        raise MissingEmbeddingError(f"no quality features for id {e.args[0]!r}") from None
    table = np.array(list(quality.values()), dtype=np.float64).reshape(-1, 3)
    x = np.empty((len(trials), 7))
    x[:, 0] = scores
    x[:, 1::2] = table[enroll]  # duration, SNR, magnitude of the enroll side
    x[:, 2::2] = table[test]
    return x


def qmf_fit(x: np.ndarray, labels: Sequence[int]) -> QmfModel:
    """Fit the calibration model on the (n, 7) `qmf_features` of labelled trials."""
    labels = np.asarray(labels, dtype=np.float64)
    _check_two_classes(labels.astype(np.int64))
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    w, b = _fit_logistic((x - mean) / std, labels)
    return QmfModel(w, b, mean, std)


# -- embedding store ---------------------------------------------------------------

# Binary layout: magic, u32 version, u32 count, u32 dim, then per entry
# u16 id length + id bytes + dim little-endian float32 values.


def save_embeddings(path: Union[str, Path], embeddings: dict[str, np.ndarray]) -> None:
    """Write the store atomically: a failure leaves any existing file as it was."""
    header = struct.pack("<III", EMB_STORE_VERSION, len(embeddings), EMBEDDING_DIM)
    chunks = [EMB_STORE_MAGIC, header]
    for key, vec in embeddings.items():
        vec = np.asarray(vec, dtype="<f4")
        if vec.shape != (EMBEDDING_DIM,):
            raise DegenerateEmbeddingError(f"{key}: expected ({EMBEDDING_DIM},), got {vec.shape}")
        kb = key.encode("utf-8")
        if len(kb) > 0xFFFF:
            raise DataError(f"embedding id of {len(kb)} bytes is longer than 65535")
        chunks += [struct.pack("<H", len(kb)), kb, vec.tobytes()]
    write_atomic(path, b"".join(chunks))


def load_embeddings(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """Read a store; a truncated, malformed or foreign file, or an entry
    holding a NaN or an infinity, raises a DataError."""
    data = Path(path).read_bytes()
    if data[:8] != EMB_STORE_MAGIC:
        raise MissingEmbeddingError(f"{path}: bad embedding store magic")
    read = ByteReader(data, path, DataError, "embedding store")
    read.take(len(EMB_STORE_MAGIC), "magic")
    version, count, dim = read.unpack("<III", "header")
    if version != EMB_STORE_VERSION:
        raise DataError(f"{path}: unsupported embedding store version {version}")
    if dim != EMBEDDING_DIM:
        raise DataError(f"{path}: embedding dim {dim}, expected {EMBEDDING_DIM}")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (klen,) = read.unpack("<H", f"entry {i} id length")
        key = read.text(klen, f"entry {i} id")
        if key in out:
            raise DataError(f"{path}: duplicate embedding id {key!r}")
        values = read.take(4 * dim, f"entry {i} values")
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=values)
        if not np.isfinite(vec).all():
            raise DataError(f"{path}: embedding {key!r} holds non-finite values")
        out[key] = vec.copy()
    if read.off != len(data):
        raise DataError(f"{path}: {len(data) - read.off} trailing bytes after {count} entries")
    return out


def resolve_embedding(store: dict[str, np.ndarray], key: str) -> np.ndarray:
    if key not in store:
        raise MissingEmbeddingError(f"no embedding for id {key!r}")
    return store[key].astype(np.float64)


def _entries(store: dict[str, np.ndarray],
             trials: TrialList) -> dict[str, tuple[np.ndarray, float]]:
    """Float64 copy and norm of every key the trials use, each computed once."""
    out: dict[str, tuple[np.ndarray, float]] = {}
    for t in trials:
        for key in (t.enroll, t.test):
            if key not in out:
                vec = resolve_embedding(store, key)
                out[key] = (vec, np.linalg.norm(vec))
    return out


def _cosines(entries: dict[str, tuple[np.ndarray, float]], trials: TrialList) -> list[float]:
    return [_cosine(*entries[t.enroll], *entries[t.test]) for t in trials]


def score_trials(store: dict[str, np.ndarray], trials: TrialList) -> np.ndarray:
    return np.array(_cosines(_entries(store, trials), trials))


def snorm_scores(store: dict[str, np.ndarray], trials: TrialList,
                 cohort: dict[str, np.ndarray], top_k: int) -> np.ndarray:
    """Adapted s-norm of every trial against a shared imposter cohort.

    Each key's top-k cohort statistics are computed once; a trial then costs a
    cosine score and a few float operations.
    """
    _check_cohort_size(top_k, len(cohort))
    cohort_mat = np.stack([v.astype(np.float64) for v in cohort.values()])
    norms = np.linalg.norm(cohort_mat, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateEmbeddingError("cohort contains a zero embedding")
    cohort_mat /= norms
    entries = _entries(store, trials)
    raw = _cosines(entries, trials)  # a zero embedding raises here, before it is normed
    stats = {key: _top_stats(cohort_mat @ (vec / norm), top_k)
             for key, (vec, norm) in entries.items()}
    return np.array([_snorm(s, stats[t.enroll], stats[t.test]) for s, t in zip(raw, trials)])


def write_score_file(path: Union[str, Path], trials: TrialList, scores: np.ndarray) -> None:
    lines = [f"{t.enroll} {t.test} {s:.17g}" for t, s in zip(trials, scores)]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
