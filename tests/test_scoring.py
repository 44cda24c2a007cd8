"""Metrics against brute-force oracles, normalization, calibration, stores."""

import numpy as np
import pytest

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
    ScoreCache,
    ScoreRecord,
    Trial,
    TrialList,
    adapted_snorm,
    cosine_score,
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
    def records_from(scores, durations=None):
        n = len(scores)
        durations = durations if durations is not None else np.full(n, 2.0)
        return [
            ScoreRecord(raw=float(s), duration_enroll=float(d), duration_test=2.0,
                        snr_enroll=10.0, snr_test=10.0,
                        magnitude_enroll=1.0, magnitude_test=1.0)
            for s, d in zip(scores, durations)
        ]

    def test_monotone_in_raw_score(self):
        rng = np.random.default_rng(9)
        scores = np.concatenate([rng.normal(1.0, 0.3, 40), rng.normal(-1.0, 0.3, 40)])
        labels = np.concatenate([np.ones(40), np.zeros(40)])
        model = qmf_fit(self.records_from(scores), labels)
        assert model.weights[0] > 0  # the raw-score weight; feat_std > 0 keeps its sign
        grid = self.records_from(np.linspace(-2, 2, 9))
        outs = [model.transform(r) for r in grid]
        assert all(a < b for a, b in zip(outs, outs[1:]))

    def test_monotone_calibration_preserves_eer(self):
        rng = np.random.default_rng(10)
        scores = np.concatenate([rng.normal(0.6, 0.4, 50), rng.normal(-0.6, 0.4, 50)])
        labels = np.concatenate([np.ones(50, dtype=int), np.zeros(50, dtype=int)])
        model = qmf_fit(self.records_from(scores), labels)
        calibrated = [model.transform(r) for r in self.records_from(scores)]
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
        records = self.records_from(scores, durations)
        full = qmf_fit(records, labels)

        def cross_entropy(weights, bias, x):
            z = x @ weights + bias
            p = 1 / (1 + np.exp(-z))
            return -np.mean(labels * np.log(p + 1e-12) + (1 - labels) * np.log(1 - p + 1e-12))

        x_full = np.stack([
            (np.concatenate([[r.raw], r.quality_vector()]) - full.feat_mean) / full.feat_std
            for r in records
        ])
        ce_full = cross_entropy(full.weights, full.bias, x_full)

        score_only = [ScoreRecord(raw=r.raw) for r in records]
        so_model = qmf_fit(score_only, labels)
        x_so = np.stack([
            (np.concatenate([[r.raw], r.quality_vector()]) - so_model.feat_mean)
            / so_model.feat_std
            for r in score_only
        ])
        ce_so = cross_entropy(so_model.weights, so_model.bias, x_so)
        assert ce_full < ce_so

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            qmf_fit(self.records_from([0.1, 0.2]), [1, 1])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=60)
        labels = (rng.random(60) < 0.5).astype(int)
        labels[:2] = [0, 1]
        m1 = qmf_fit(self.records_from(scores), labels)
        m2 = qmf_fit(self.records_from(scores), labels)
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


# -- the cached scoring path against the one-trial functions ---------------------


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

    def test_shared_cache_scores_each_list_bitwise_alike(self):
        rng = np.random.default_rng(22)
        store, trials = random_store_and_trials(rng, n_keys=12)
        _, calib = random_store_and_trials(rng, n_keys=12)
        cohort = {f"c{i}": rng.normal(size=256).astype(np.float32) for i in range(25)}
        cache = ScoreCache()
        for trial_list in (trials, calib):
            got = snorm_scores(store, trial_list, cohort, top_k=10, cache=cache)
            assert got.tobytes() == per_trial_snorm(store, trial_list, cohort, 10).tobytes()
        assert set(cache.stats) == set(cache.entries) == set(store)
        cache.stats = {key: (np.nan, np.nan) for key in cache.stats}  # poison: no recompute
        assert np.isnan(snorm_scores(store, trials, cohort, top_k=10, cache=cache)).all()
        plain = ScoreCache()
        for trial_list in (trials, calib):
            assert (score_trials(store, trial_list, cache=plain).tobytes()
                    == score_trials(store, trial_list).tobytes())

    def test_empty_trial_list(self):
        store = {"a": np.ones(256, dtype=np.float32)}
        cohort = {f"c{i}": np.eye(256, dtype=np.float32)[i] for i in range(3)}
        assert score_trials(store, TrialList([])).shape == (0,)
        assert snorm_scores(store, TrialList([]), cohort, top_k=2).shape == (0,)

    def test_qmf_features_bitwise_equal_score_records(self):
        rng = np.random.default_rng(22)
        store, trials = random_store_and_trials(rng, n_trials=120)
        quality = {k: (float(rng.uniform(1, 4)), float(rng.normal(15, 5)),
                       float(rng.uniform(5, 20))) for k in store}
        scores = score_trials(store, trials)
        records = [
            ScoreRecord(raw=float(s), duration_enroll=quality[t.enroll][0],
                        duration_test=quality[t.test][0], snr_enroll=quality[t.enroll][1],
                        snr_test=quality[t.test][1], magnitude_enroll=quality[t.enroll][2],
                        magnitude_test=quality[t.test][2])
            for t, s in zip(trials, scores)
        ]
        labels = trials.labels
        features = qmf_features(trials, scores, quality)
        from_records, from_features = qmf_fit(records, labels), qmf_fit(features, labels)
        assert from_features.weights.tobytes() == from_records.weights.tobytes()
        assert from_features.bias == from_records.bias
        m = from_records
        expected = np.array([  # one record at a time, as QmfModel.transform computes it
            float((np.concatenate([[r.raw], r.quality_vector()]) - m.feat_mean) / m.feat_std
                  @ m.weights + m.bias)
            for r in records
        ])
        assert from_features.calibrate(features).tobytes() == expected.tobytes()
        assert np.array([m.transform(r) for r in records]).tobytes() == expected.tobytes()

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
    """The cached path raises the same typed error as the one-trial functions."""

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

    def test_failed_save_keeps_old_store(self, tmp_path):
        path = self.small_store(tmp_path)
        before = path.read_bytes()
        bad = {"ok.wav": np.ones(256, dtype=np.float32), "bad.wav": np.ones(10)}
        with pytest.raises(DegenerateEmbeddingError):
            save_embeddings(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
