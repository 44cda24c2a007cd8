"""Output checks and artefact digests, independent of the program under test.

Each check takes the command's captured standard output and returns a list of
problems; an empty list means the output is correct.  The readers here parse
the documented file formats themselves rather than calling confsv.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np

EMB_MAGIC = b"CFSVEMB1"
EER_TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def loss_csv(path: Path, stdout: str = "") -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    if not rows:
        return [f"{path}: no loss rows"]
    values = [float(v) for row in rows for v in row.split(",")]
    if not all(math.isfinite(v) for v in values):
        return [f"{path}: non-finite loss"]
    return []


def manifest_paths(manifest: Path) -> list[str]:
    lines = Path(manifest).read_text(encoding="utf-8").splitlines()
    return [line.split()[0] for line in lines if line.strip()]


def read_embedding_ids(path: Path) -> list[str]:
    data = Path(path).read_bytes()
    if data[:8] != EMB_MAGIC:
        raise ValueError(f"{path}: bad magic")
    _, count, dim = struct.unpack_from("<III", data, 8)
    off, ids = 20, []
    for _ in range(count):
        (klen,) = struct.unpack_from("<H", data, off)
        ids.append(data[off + 2: off + 2 + klen].decode("utf-8"))
        off += 2 + klen + 4 * dim
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return ids


def embedding_store(path: Path, manifest: Path, stdout: str = "") -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    try:
        ids = read_embedding_ids(path)
    except (ValueError, struct.error) as e:
        return [f"{path.name}: {e}"]
    expected = manifest_paths(manifest)
    if sorted(ids) != sorted(expected):
        return [f"{path.name}: {len(ids)} entries for {len(expected)} manifest lines"]
    return []


def read_trials(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]
    return [(a, b) for _, a, b in rows], np.array([int(r[0]) for r in rows], dtype=np.int64)


def read_scores(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]
    return [(a, b) for a, b, _ in rows], np.array([float(r[2]) for r in rows])


def score_file(path: Path, trials: Path, stdout: str = "") -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    pairs, scores = read_scores(path)
    if pairs != read_trials(trials)[0]:
        return [f"{path.name}: trial pairs differ from {trials.name}"]
    if not np.all(np.isfinite(scores)):
        return [f"{path.name}: non-finite scores"]
    return []


def _operating_points(scores: np.ndarray, labels: np.ndarray):
    """Accepted targets and nontargets at every unique threshold, high to low."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tar = np.cumsum(y == 1)
    non = np.cumsum(y == 0)
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])  # end of each tie group
    return tar[last], non[last], int(tar[-1]), int(non[-1])


def eer_percent(scores: np.ndarray, labels: np.ndarray) -> float:
    """Sort-based EER with the program's definition: FAR/FRR crossing, linearly interpolated."""
    tar, non, n_tar, n_non = _operating_points(scores, labels)
    far = np.concatenate([[0.0], non / n_non])
    frr = np.concatenate([[1.0], 1.0 - tar / n_tar])
    diff = far - frr
    if diff[-1] < 0:
        return float(100.0 * max(far[-1], frr[-1]))
    idx = int(np.argmax(diff >= 0))
    if diff[idx] == 0:
        return float(100.0 * far[idx])
    f1, r1, f2, r2 = far[idx - 1], frr[idx - 1], far[idx], frr[idx]
    t = (r1 - f1) / ((r1 - f1) - (r2 - f2))
    return float(100.0 * (f1 + t * (f2 - f1)))


def min_dcf(scores: np.ndarray, labels: np.ndarray, p_target: float = 0.01) -> float:
    """Sort-based minimum normalized detection cost (c_miss = c_fa = 1)."""
    tar, non, n_tar, n_non = _operating_points(scores, labels)
    far = np.concatenate([non / n_non, [1.0], [0.0]])
    frr = np.concatenate([(n_tar - tar) / n_tar, [0.0], [1.0]])
    cost = p_target * frr + (1.0 - p_target) * far
    return float(cost.min() / min(p_target, 1.0 - p_target))


def read_evaluation(path: Path) -> tuple[float, float]:
    eer, dcf = Path(path).read_text(encoding="utf-8").splitlines()[1].split(",")
    return float(eer), float(dcf)


def evaluation(path: Path, scores_path: Path, trials: Path, stdout: str = "") -> list[str]:
    """evaluate's EER and minDCF equal our own computation on the written scores."""
    if not path.is_file() or not scores_path.is_file():
        return [f"{path.name}: missing evaluation or scores"]
    eer, dcf = read_evaluation(path)
    _, labels = read_trials(trials)
    _, scores = read_scores(scores_path)
    problems = []
    for name, got, want in (("EER[%]", eer, eer_percent(scores, labels)),
                            ("minDCF", dcf, min_dcf(scores, labels))):
        if abs(got - want) > EER_TOLERANCE:
            problems.append(f"{name} {got!r} differs from the reference {want!r}")
        printed = re.search(rf"^{re.escape(name)} (\S+)$", stdout, re.MULTILINE)
        if printed is None or abs(float(printed.group(1)) - want) > 5e-5:
            problems.append(f"printed {name} does not match the reference {want:.4f}")
    return problems
