"""Metrics against brute-force oracles, normalization, calibration, stores.

The batch scorers are checked bit for bit against one-trial reference
formulas that live only here: `cosine_score`, `adapted_snorm` and a
row-by-row calibration.
"""

import numpy as np
import pytest

from confsv import scoring
from confsv.cli import _scored, build_parser
from confsv.datapipe import read_manifest, write_wav
from confsv.errors import (
    ConfsvError,
    DataError,
    DegenerateCohortError,
    DegenerateEmbeddingError,
    DegenerateLabelsError,
    DimensionError,
    MissingEmbeddingError,
    NumericError,
    TrialParseError,
)
from confsv.scoring import (
    Trial,
    TrialList,
    eer,
    load_embeddings,
    min_dcf,
    parse_trials,
    qmf_features,
    qmf_fit,
    resolve_embedding,
    save_embeddings,
    score_trials,
    snorm_scores,
    write_score_file,
)
from confsv.training import quality_features


def cosine_score(e1, e2):
    """Inner product of the L2-normalized embeddings, one trial at a time."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateEmbeddingError("cannot cosine-score a zero embedding")
    return float(np.dot(e1, e2) / (n1 * n2))


def adapted_snorm(raw, enroll_cohort_scores, test_cohort_scores, top_k):
    """Symmetric adaptive normalization of one raw score against each side's
    top-k cohort scores."""
    sides = [np.asarray(c, dtype=np.float64) for c in (enroll_cohort_scores, test_cohort_scores)]
    if top_k < 2 or min(c.size for c in sides) < top_k:
        raise DegenerateCohortError(f"need cohorts of >= top_k = {top_k} >= 2 scores")
    tops = [np.sort(c)[-top_k:] for c in sides]
    (mu_e, sigma_e), (mu_t, sigma_t) = [(float(t.mean()), float(t.std())) for t in tops]
    if sigma_e == 0.0 or sigma_t == 0.0:
        raise DegenerateCohortError("zero-variance cohort")
    return 0.5 * ((raw - mu_e) / sigma_e + (raw - mu_t) / sigma_t)


def brute_force_eer(scores, labels):
    """Independent sweep: FAR/FRR at every threshold, interpolate the crossing."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1]])
    points = []
    for th in thresholds:
        far = np.mean([s >= th for s, y in zip(scores, labels) if y == 0])
        frr = np.mean([s < th for s, y in zip(scores, labels) if y == 1])
        points.append((far, frr))
    for (f1, r1), (f2, r2) in zip(points, points[1:]):
        if f2 - r2 >= 0:
            if f2 - r2 == 0:
                return 100.0 * f2
            t = (r1 - f1) / ((r1 - f1) - (r2 - f2))
            return 100.0 * (f1 + t * (f2 - f1))
    return 100.0 * max(points[-1])


def brute_force_min_dcf(scores, labels, p=0.01, cm=1.0, cf=1.0):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    thresholds = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    best = np.inf
    for th in thresholds:
        far = np.mean([s >= th for s, y in zip(scores, labels) if y == 0])
        frr = np.mean([s < th for s, y in zip(scores, labels) if y == 1])
        best = min(best, cm * p * frr + cf * (1 - p) * far)
    return best / min(cm * p, cf * (1 - p))


def random_score_set(rng):
    n_tar = int(rng.integers(3, 40))
    n_non = int(rng.integers(3, 40))
    sep = rng.uniform(0.0, 2.0)
    scores = np.concatenate([rng.normal(sep, 1.0, n_tar), rng.normal(0.0, 1.0, n_non)])
    labels = np.concatenate([np.ones(n_tar, dtype=int), np.zeros(n_non, dtype=int)])
    return scores, labels


class TestCosine:
    def test_self_similarity(self):
        e = np.random.default_rng(0).normal(size=256)
        assert cosine_score(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a, b = np.zeros(4), np.zeros(4)
        a[0] = 2.0
        b[1] = -3.0
        assert cosine_score(a, b) == 0.0

    def test_against_direct_formula(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=256), rng.normal(size=256)
        direct = (a @ b) / (np.sqrt(a @ a) * np.sqrt(b @ b))
        assert abs(cosine_score(a, b) - direct) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine_score(np.zeros(8), np.ones(8))


class TestAdaptedSnorm:
    def test_scalar_hand_computation(self):
        # top-2 of {0.5, 0.1, 0.0} -> mu .3 sd .2; top-2 of {0.3, 0.1, -0.2} -> mu .2 sd .1
        out = adapted_snorm(0.4, [0.5, 0.1, 0.0], [0.3, 0.1, -0.2], top_k=2)
        expected = 0.5 * ((0.4 - 0.3) / 0.2 + (0.4 - 0.2) / 0.1)
        assert abs(out - expected) < 1e-12
        assert abs(out - 1.25) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        enroll, test = rng.normal(size=30), rng.normal(size=30)
        raw = 0.7
        base = adapted_snorm(raw, enroll, test, top_k=10)
        a, b = 2.5, -0.3
        shifted = adapted_snorm(a * raw + b, a * enroll + b, a * test + b, top_k=10)
        assert abs(base - shifted) < 1e-10

    def test_symmetric_cohorts_collapse_to_znorm(self):
        cohort = np.random.default_rng(3).normal(size=20)
        out = adapted_snorm(0.5, cohort, cohort, top_k=8)
        top = np.sort(cohort)[-8:]
        assert abs(out - (0.5 - top.mean()) / top.std()) < 1e-12

    def test_degenerate_cohorts(self):
        with pytest.raises(DegenerateCohortError):
            adapted_snorm(0.1, [0.5, 0.5, 0.5], [0.1, 0.2, 0.3], top_k=3)
        with pytest.raises(DegenerateCohortError):
            adapted_snorm(0.1, [0.5], [0.1, 0.2], top_k=2)


class TestEer:
    def test_perfect_separation(self):
        assert eer([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 0.0

    def test_known_25_percent(self):
        scores = [0.9, 0.8, 0.7, 0.4, 0.5, 0.3, 0.2, 0.1]
        labels = [1, 1, 1, 1, 0, 0, 0, 0]
        assert eer(scores, labels) == pytest.approx(25.0, abs=1e-9)

    def test_against_brute_force_on_random_suites(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            scores, labels = random_score_set(rng)
            assert eer(scores, labels) == pytest.approx(
                brute_force_eer(scores, labels), abs=1e-9
            )

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(5)
        scores, labels = random_score_set(rng)
        base = eer(scores, labels)
        assert eer(np.exp(scores), labels) == pytest.approx(base, abs=1e-9)
        assert eer(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            eer([0.1, 0.2], [1, 1])


class TestMinDcf:
    def test_perfect_separation(self):
        assert min_dcf([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 0.0

    def test_small_case_matches_brute_force(self):
        scores = [0.9, 0.2, 0.8, 0.1]
        labels = [1, 1, 0, 0]
        assert min_dcf(scores, labels) == pytest.approx(
            brute_force_min_dcf(scores, labels), abs=1e-12
        )

    def test_against_brute_force_on_random_suites(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            scores, labels = random_score_set(rng)
            assert min_dcf(scores, labels) == pytest.approx(
                brute_force_min_dcf(scores, labels), abs=1e-9
            )

    def test_bounded_by_trivial_policy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores, labels = random_score_set(rng)
            assert min_dcf(scores, labels) <= 1.0 + 1e-12

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(8)
        scores, labels = random_score_set(rng)
        base = min_dcf(scores, labels)
        assert min_dcf(np.exp(scores), labels) == pytest.approx(base, abs=1e-9)


class TestTrialParsing:
    def test_two_records(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a.wav b.wav\n0 a.wav c.wav\n", encoding="utf-8")
        trials = parse_trials(path)
        assert len(trials) == 2
        assert trials.labels.tolist() == [1, 0]

    def test_empty_file_then_metrics_error(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("", encoding="utf-8")
        trials = parse_trials(path)
        assert len(trials) == 0
        with pytest.raises(DegenerateLabelsError):
            eer([], trials.labels)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("2 x y\n", encoding="utf-8")
        with pytest.raises(TrialParseError, match="line 1"):
            parse_trials(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a.wav b.wav\n1 only-two\n", encoding="utf-8")
        with pytest.raises(TrialParseError, match="line 2"):
            parse_trials(path)

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_bytes(b"1 a.wav b.wav\n0 a.wav c\xff.wav\n")
        with pytest.raises(DataError, match="not UTF-8"):
            parse_trials(path)


class TestQmf:
    @staticmethod
    def rows_from(scores, durations=None):
        """(n, 7) features in `qmf_features` column order: score, enroll and test
        duration, enroll and test SNR, enroll and test magnitude."""
        n = len(scores)
        durations = durations if durations is not None else np.full(n, 2.0)
        rows = np.empty((n, 7))
        rows[:, 0] = scores
        rows[:, 1] = durations
        rows[:, 2:] = [2.0, 10.0, 10.0, 1.0, 1.0]
        return rows

    def test_monotone_in_raw_score(self):
        rng = np.random.default_rng(9)
        scores = np.concatenate([rng.normal(1.0, 0.3, 40), rng.normal(-1.0, 0.3, 40)])
        labels = np.concatenate([np.ones(40), np.zeros(40)])
        model = qmf_fit(self.rows_from(scores), labels)
        assert model.weights[0] > 0  # the raw-score weight; feat_std > 0 keeps its sign
        outs = model.calibrate(self.rows_from(np.linspace(-2, 2, 9)))
        assert all(a < b for a, b in zip(outs, outs[1:]))

    def test_monotone_calibration_preserves_eer(self):
        rng = np.random.default_rng(10)
        scores = np.concatenate([rng.normal(0.6, 0.4, 50), rng.normal(-0.6, 0.4, 50)])
        labels = np.concatenate([np.ones(50, dtype=int), np.zeros(50, dtype=int)])
        model = qmf_fit(self.rows_from(scores), labels)
        calibrated = model.calibrate(self.rows_from(scores))
        assert eer(calibrated, labels) == pytest.approx(eer(scores, labels), abs=1e-9)

    def test_quality_feature_reduces_cross_entropy(self):
        # duration flips ~10% of decisions; the full model must beat score-only
        rng = np.random.default_rng(11)
        n = 400
        labels = (rng.random(n) < 0.5).astype(float)
        flip = rng.random(n) < 0.10
        scores = np.where(labels == 1, 1.0, -1.0) * np.where(flip, -1.0, 1.0)
        scores = scores + rng.normal(0, 0.2, n)
        durations = np.where(flip, 0.5, 3.0)  # duration exposes the flipped trials
        rows = self.rows_from(scores, durations)
        full = qmf_fit(rows, labels)

        def cross_entropy(weights, bias, x):
            z = x @ weights + bias
            p = 1 / (1 + np.exp(-z))
            return -np.mean(labels * np.log(p + 1e-12) + (1 - labels) * np.log(1 - p + 1e-12))

        ce_full = cross_entropy(full.weights, full.bias, (rows - full.feat_mean) / full.feat_std)

        score_only = np.zeros_like(rows)  # every quality feature 0
        score_only[:, 0] = rows[:, 0]
        so_model = qmf_fit(score_only, labels)
        x_so = (score_only - so_model.feat_mean) / so_model.feat_std
        ce_so = cross_entropy(so_model.weights, so_model.bias, x_so)
        assert ce_full < ce_so

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            qmf_fit(self.rows_from([0.1, 0.2]), [1, 1])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=60)
        labels = (rng.random(60) < 0.5).astype(int)
        labels[:2] = [0, 1]
        m1 = qmf_fit(self.rows_from(scores), labels)
        m2 = qmf_fit(self.rows_from(scores), labels)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestEmbeddingStore:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        store = {f"utt{i}.wav": rng.normal(size=256).astype(np.float32) for i in range(5)}
        path = tmp_path / "emb.bin"
        save_embeddings(path, store)
        back = load_embeddings(path)
        assert set(back) == set(store)
        for k in store:
            assert back[k].tobytes() == store[k].tobytes()

    def test_id_of_more_than_65535_bytes_rejected(self, tmp_path):
        """The store gives an id a u16 length; a longer one is a DataError."""
        vec = np.ones(256, dtype=np.float32)
        longest = "\u00e9" * 32767 + "a"  # 65535 UTF-8 bytes
        save_embeddings(tmp_path / "ok.bin", {longest: vec})
        assert list(load_embeddings(tmp_path / "ok.bin")) == [longest]
        path = tmp_path / "emb.bin"
        with pytest.raises(DataError, match="embedding id of 65536 bytes is longer than 65535"):
            save_embeddings(path, {longest + "b": vec})
        assert not path.exists()

    def test_missing_id(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(path, {"a": np.zeros(256, dtype=np.float32)})
        store = load_embeddings(path)
        with pytest.raises(MissingEmbeddingError):
            resolve_embedding(store, "b")

    def test_score_file_and_snorm_pipeline(self, tmp_path):
        rng = np.random.default_rng(14)
        store = {f"u{i}": rng.normal(size=256).astype(np.float32) for i in range(6)}
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(30)}
        trial_path = tmp_path / "trials.txt"
        trial_path.write_text("1 u0 u1\n0 u2 u3\n1 u4 u5\n", encoding="utf-8")
        trials = parse_trials(trial_path)
        raw = score_trials(store, trials)
        normed = snorm_scores(store, trials, cohort, top_k=10)
        assert raw.shape == normed.shape == (3,)
        out = tmp_path / "scores.txt"
        write_score_file(out, trials, raw)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("u0 u1 ")
        assert float(lines[0].split()[2]) == pytest.approx(raw[0], abs=0)


# -- the batch scorers against the one-trial oracles ------------------------------


def quadratic_eer(scores, labels):
    """The threshold-by-threshold EER scan the sort-based one replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_tar = int((labels == 1).sum())
    n_non = int((labels == 0).sum())
    uniq = np.unique(scores)[::-1]
    tar_counts = np.array([(scores[labels == 1] >= th).sum() for th in uniq])
    non_counts = np.array([(scores[labels == 0] >= th).sum() for th in uniq])
    far = np.concatenate([[0.0], non_counts / n_non])
    frr = np.concatenate([[1.0], 1.0 - tar_counts / n_tar])
    diff = far - frr
    if diff[-1] < 0:
        return float(100.0 * max(far[-1], frr[-1]))
    idx = int(np.argmax(diff >= 0))
    if diff[idx] == 0:
        return float(100.0 * far[idx])
    f1, r1, f2, r2 = far[idx - 1], frr[idx - 1], far[idx], frr[idx]
    t = (r1 - f1) / ((r1 - f1) - (r2 - f2))
    return float(100.0 * (f1 + t * (f2 - f1)))


def quadratic_min_dcf(scores, labels, p_target=0.01):
    """The threshold-by-threshold minDCF scan the sort-based one replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_tar = int((labels == 1).sum())
    n_non = int((labels == 0).sum())
    far, frr = [], []
    for th in np.unique(scores)[::-1]:
        acc = scores >= th
        far.append((labels == 0)[acc].sum() / n_non)
        frr.append(((labels == 1) & ~acc).sum() / n_tar)
    far = np.concatenate([far, [1.0], [0.0]])
    frr = np.concatenate([frr, [0.0], [1.0]])
    cost = p_target * frr + (1.0 - p_target) * far
    return float(cost.min() / min(p_target, 1.0 - p_target))


def tied_score_set(rng):
    scores, labels = random_score_set(rng)
    return np.round(scores, 1), labels  # about 40 distinct values, many shared by both classes


def random_store_and_trials(rng, n_keys=9, n_trials=300):
    store = {f"k{i}": rng.normal(size=256).astype(np.float32) for i in range(n_keys)}
    keys = list(store)
    trials = TrialList([Trial(int(rng.integers(2)), keys[rng.integers(n_keys)],
                              keys[rng.integers(n_keys)]) for _ in range(n_trials)])
    return store, trials


def per_trial_snorm(store, trials, cohort, top_k):
    cohort_mat = np.stack([v.astype(np.float64) for v in cohort.values()])
    cohort_mat /= np.linalg.norm(cohort_mat, axis=1, keepdims=True)

    def cohort_scores(key):
        e = resolve_embedding(store, key)
        return cohort_mat @ (e / np.linalg.norm(e))

    return np.array([
        adapted_snorm(cosine_score(resolve_embedding(store, t.enroll),
                                   resolve_embedding(store, t.test)),
                      cohort_scores(t.enroll), cohort_scores(t.test), top_k=top_k)
        for t in trials
    ])


class TestCachedScoring:
    def test_score_trials_bitwise_equals_cosine_score(self):
        rng = np.random.default_rng(20)
        store, trials = random_store_and_trials(rng)
        expected = np.array([cosine_score(resolve_embedding(store, t.enroll),
                                          resolve_embedding(store, t.test)) for t in trials])
        assert score_trials(store, trials).tobytes() == expected.tobytes()

    def test_snorm_scores_bitwise_equal_adapted_snorm(self):
        rng = np.random.default_rng(21)
        store, trials = random_store_and_trials(rng)
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(25)}
        for top_k in (2, 10, 25):
            got = snorm_scores(store, trials, cohort, top_k=top_k)
            assert got.tobytes() == per_trial_snorm(store, trials, cohort, top_k).tobytes()

    def test_scored_computes_each_keys_cohort_stats_once(self, tmp_path, monkeypatch):
        """`score --snorm --qmf` scores the calibration trials and the trials in
        one call: each key's top-k statistics are computed once across both
        lists, and the calibrated scores equal the per-trial oracle's bitwise."""
        rng = np.random.default_rng(22)
        store, trials = random_store_and_trials(rng, n_keys=12)
        _, calib = random_store_and_trials(rng, n_keys=12)
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(25)}
        paths = {name: tmp_path / name for name in ("emb", "cohort", "trials", "calib",
                                                    "manifest")}
        save_embeddings(paths["emb"], store)
        save_embeddings(paths["cohort"], cohort)
        for name, trial_list in (("trials", trials), ("calib", calib)):
            paths[name].write_text("".join(f"{t.label} {t.enroll} {t.test}\n"
                                           for t in trial_list), encoding="utf-8")
        for i, key in enumerate(store):
            write_wav(tmp_path / key, 0.3 * rng.standard_normal(8000 + 400 * i))
        paths["manifest"].write_text("".join(f"{key} spk{i % 3} ae 0.500\n"
                                             for i, key in enumerate(store)), encoding="utf-8")
        calls = []

        def counted_top_stats(cohort_scores, top_k):
            calls.append(top_k)
            return top_stats(cohort_scores, top_k)

        top_stats = scoring._top_stats
        monkeypatch.setattr(scoring, "_top_stats", counted_top_stats)
        args = build_parser().parse_args([
            "score", "--embeddings", str(paths["emb"]), "--trials", str(paths["trials"]),
            "--snorm", "--cohort", str(paths["cohort"]), "--cohort-size", "0", "--top-k", "10",
            "--qmf", "--calib-trials", str(paths["calib"]), "--manifest", str(paths["manifest"]),
            "--out", str(tmp_path / "scores.txt")])
        _, got = _scored(args)
        keys = {key for trial_list in (trials, calib) for t in trial_list
                for key in (t.enroll, t.test)}
        assert calls == [10] * len(keys)
        quality = quality_features(paths["manifest"], read_manifest(paths["manifest"]), store)
        model = qmf_fit(qmf_features(calib, per_trial_snorm(store, calib, cohort, 10), quality),
                        calib.labels)
        expected = model.calibrate(
            qmf_features(trials, per_trial_snorm(store, trials, cohort, 10), quality))
        assert got.tobytes() == expected.tobytes()

    def test_empty_trial_list(self):
        store = {"a": np.ones(256, dtype=np.float32)}
        cohort = {f"c{i}": np.eye(256, dtype=np.float32)[i] for i in range(3)}
        assert score_trials(store, TrialList([])).shape == (0,)
        assert snorm_scores(store, TrialList([]), cohort, top_k=2).shape == (0,)

    def test_qmf_features_and_calibration_bitwise_equal_per_trial_rows(self):
        rng = np.random.default_rng(22)
        store, trials = random_store_and_trials(rng, n_trials=120)
        quality = {k: (float(rng.uniform(1, 4)), float(rng.normal(15, 5)),
                       float(rng.uniform(5, 20))) for k in store}
        scores = score_trials(store, trials)
        rows = np.array([  # score, then (enroll, test) duration, SNR and magnitude
            [s, quality[t.enroll][0], quality[t.test][0], quality[t.enroll][1],
             quality[t.test][1], quality[t.enroll][2], quality[t.test][2]]
            for t, s in zip(trials, scores)
        ])
        features = qmf_features(trials, scores, quality)
        assert features.tobytes() == rows.tobytes()
        m = qmf_fit(features, trials.labels)
        expected = np.array([  # one row at a time
            float((row - m.feat_mean) / m.feat_std @ m.weights + m.bias) for row in rows
        ])
        assert m.calibrate(features).tobytes() == expected.tobytes()

    def test_qmf_features_missing_id(self):
        trials = TrialList([Trial(1, "a", "b")])
        with pytest.raises(MissingEmbeddingError):
            qmf_features(trials, np.zeros(1), {"a": (1.0, 2.0, 3.0)})

    def test_sort_based_metrics_equal_quadratic_scans_on_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            scores, labels = tied_score_set(rng)
            assert eer(scores, labels) == quadratic_eer(scores, labels)
            assert min_dcf(scores, labels) == quadratic_min_dcf(scores, labels)

    def test_sort_based_metrics_match_brute_force_on_ties(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            scores, labels = tied_score_set(rng)
            assert eer(scores, labels) == pytest.approx(brute_force_eer(scores, labels), abs=1e-9)
            assert min_dcf(scores, labels) == pytest.approx(
                brute_force_min_dcf(scores, labels), abs=1e-9)

    def test_all_scores_tied(self):
        scores, labels = np.full(6, 0.3), [1, 0, 1, 0, 0, 1]
        assert eer(scores, labels) == quadratic_eer(scores, labels) == 50.0
        assert min_dcf(scores, labels) == quadratic_min_dcf(scores, labels)

    def test_nan_score_rejected(self):
        with pytest.raises(NumericError):
            eer([0.1, np.nan, 0.3], [1, 0, 0])
        with pytest.raises(NumericError):
            min_dcf([0.1, np.nan, 0.3], [1, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            eer([0.1, 0.2, 0.3], [1, 0])
        with pytest.raises(DimensionError):
            min_dcf([0.1, 0.2], [1, 0, 0])


class TestCachedScoringErrors:
    """The batch path raises the same typed error as the one-trial oracles."""

    @staticmethod
    def setup_store():
        rng = np.random.default_rng(25)
        store = {k: rng.normal(size=256).astype(np.float32) for k in "abc"}
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(6)}
        return store, cohort

    def both_raise(self, error, store, trials, cohort, top_k=3):
        trials = TrialList([Trial(1, a, b) for a, b in trials])
        with pytest.raises(error):
            per_trial_snorm(store, trials, cohort, top_k)
        with pytest.raises(error):
            snorm_scores(store, trials, cohort, top_k)

    def test_missing_id(self):
        store, cohort = self.setup_store()
        trials = TrialList([Trial(1, "a", "b"), Trial(0, "a", "zz")])
        with pytest.raises(MissingEmbeddingError):
            score_trials(store, trials)
        self.both_raise(MissingEmbeddingError, store, [("a", "b"), ("a", "zz")], cohort)

    def test_zero_embedding(self):
        store, cohort = self.setup_store()
        store["z"] = np.zeros(256, dtype=np.float32)
        trials = TrialList([Trial(1, "a", "b"), Trial(0, "z", "a")])
        with pytest.raises(DegenerateEmbeddingError):
            cosine_score(resolve_embedding(store, "z"), resolve_embedding(store, "a"))
        with pytest.raises(DegenerateEmbeddingError):
            score_trials(store, trials)
        with np.errstate(invalid="ignore"):  # the per-trial path norms the zero vector first
            self.both_raise(DegenerateEmbeddingError, store, [("a", "b"), ("z", "a")], cohort)

    def test_cohort_smaller_than_top_k(self):
        store, cohort = self.setup_store()
        self.both_raise(DegenerateCohortError, store, [("a", "b")], cohort, top_k=7)
        self.both_raise(DegenerateCohortError, store, [("a", "b")], cohort, top_k=1)

    def test_zero_variance_cohort(self):
        store, _ = self.setup_store()
        same = np.random.default_rng(26).normal(size=256).astype(np.float32)
        cohort = {f"c{i}": same for i in range(5)}
        self.both_raise(DegenerateCohortError, store, [("a", "b")], cohort)

    def test_empty_cohort(self):
        store, _ = self.setup_store()
        with pytest.raises(DegenerateCohortError):
            snorm_scores(store, TrialList([Trial(1, "a", "b")]), {}, top_k=2)


class TestEmbeddingStoreReader:
    @staticmethod
    def small_store(tmp_path):
        rng = np.random.default_rng(27)
        path = tmp_path / "emb.bin"
        save_embeddings(path, {k: rng.normal(size=256).astype(np.float32)
                               for k in ("a.wav", "bb.wav")})
        return path

    def test_every_truncation_raises_typed_error(self, tmp_path):
        data = self.small_store(tmp_path).read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(ConfsvError):
                load_embeddings(cut)

    @pytest.mark.parametrize("offset,value,match", [(8, 99, "version 99"),
                                                    (16, 128, "dim 128")])
    def test_unknown_header_field_rejected(self, tmp_path, offset, value, match):
        path = self.small_store(tmp_path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=match):
            load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.small_store(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="trailing"):
            load_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.small_store(tmp_path)
        data = path.read_bytes()
        entry = data[20:20 + 2 + 5 + 1024]  # the "a.wav" entry
        data = data[:12] + (3).to_bytes(4, "little") + data[16:] + entry
        path.write_bytes(data)
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected_by_name(self, tmp_path, bad):
        path = tmp_path / "emb.bin"
        vec = np.ones(256, dtype=np.float32)
        vec[7] = bad
        save_embeddings(path, {"a.wav": np.ones(256, dtype=np.float32), "bb.wav": vec})
        with pytest.raises(DataError, match="'bb.wav' holds non-finite"):
            load_embeddings(path)

    def test_failed_save_keeps_old_store(self, tmp_path):
        path = self.small_store(tmp_path)
        before = path.read_bytes()
        bad = {"ok.wav": np.ones(256, dtype=np.float32), "bad.wav": np.ones(10)}
        with pytest.raises(DegenerateEmbeddingError):
            save_embeddings(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
