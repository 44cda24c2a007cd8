"""Aggregation, pooling, embedding head, and all training objectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsv import autodiff as ad
from confsv import heads, losses
from confsv.conformer import ENCODER_PRESETS
from confsv.errors import DataError, DimensionError, InfeasibleTargetError, InputTooShortError
from confsv.heads import AttentiveStatsPooling, EmbeddingHead, MfaAggregator
from confsv.losses import (
    AamClassifier,
    RateMatcher,
    aam_softmax_loss,
    combined_loss,
    ctc_loss_batch,
    distill_kl_loss,
)
from confsv.nn import seed_parameters

from conftest import conv1d_channels_first, gradcheck


def fmaps(dims, frames, seed=0):
    """(1, frames, d) block outputs, one per width in `dims`."""
    rng = np.random.default_rng(seed)
    return [ad.tensor(rng.normal(size=(d, frames)).T[None]) for d in dims]


def aggregate(maps):
    aggregator = MfaAggregator(sum(m.shape[-1] for m in maps))
    seed_parameters(aggregator, 0)  # gamma 1 and beta 0 whatever the seed
    return aggregator(maps).data[0]  # (T, D)


def pool_frames(x, pool=None, seed=0):
    """Pool a (D, T) map to a 2D-length vector."""
    if pool is None:
        pool = AttentiveStatsPooling(x.shape[0])
        seed_parameters(pool, seed, scope="asp")
    return pool(ad.tensor(x.T[None])).data[0]


class TestMfa:
    def test_small_stack_width(self):
        cfg = ENCODER_PRESETS["small"]
        feature = aggregate(fmaps([cfg.dim] * cfg.layers, 3))
        assert feature.shape[-1] == 2816  # 16 blocks x 176 channels

    def test_single_map_is_normalized(self):
        feature = aggregate(fmaps([6], 4, seed=1))
        col = feature[0]
        assert abs(col.mean()) < 1e-9
        assert abs(col.var() - 1.0) < 1e-3

    def test_permuting_inputs_permutes_channels(self):
        maps = fmaps([3, 3], 5, seed=2)
        fwd = aggregate(maps)
        rev = aggregate(maps[::-1])
        np.testing.assert_allclose(np.concatenate([fwd[:, 3:], fwd[:, :3]], axis=1), rev,
                                   atol=1e-12)

    def test_frame_mismatch(self):
        a, = fmaps([3], 5, seed=3)
        b, = fmaps([3], 6, seed=4)
        with pytest.raises(DimensionError):
            aggregate([a, b])


class TestAttentiveStatsPooling:
    def test_identical_frames_collapse_std(self):
        frame = np.random.default_rng(5).normal(size=4)
        out = pool_frames(np.tile(frame[:, None], (1, 6)), seed=6)
        np.testing.assert_allclose(out[:4], frame, atol=1e-9)
        assert np.abs(out[4:]).max() <= np.sqrt(1e-5)

    def test_output_length_is_twice_channels(self):
        out = pool_frames(np.random.default_rng(7).normal(size=(4, 3)))
        assert out.shape == (8,)

    def test_against_weighted_moment_oracle(self, monkeypatch):
        monkeypatch.setattr(heads, "ASP_BOTTLENECK", 3)
        pool = AttentiveStatsPooling(2)
        seed_parameters(pool, 8)
        x = np.random.default_rng(9).normal(size=(2, 2))  # (D, T)
        out = pool_frames(x, pool)

        # independent recomputation from the module's weights
        h = x.T  # (T, D)
        mu = h.mean(axis=0)
        sd = np.sqrt(np.maximum(h.var(axis=0), 0.0) + 1e-10)
        ctx = np.concatenate([h, np.tile(mu, (2, 1)), np.tile(sd, (2, 1))], axis=1)
        scores = np.tanh(ctx @ pool.score1.weight.data + pool.score1.bias.data)
        scores = scores @ pool.score2.weight.data + pool.score2.bias.data
        w = np.exp(scores - scores.max(axis=0))
        w = w / w.sum(axis=0)
        mean = (w * h).sum(axis=0)
        std = np.sqrt(np.maximum((w * h * h).sum(axis=0) - mean**2, 0.0) + 1e-10)
        np.testing.assert_allclose(out, np.concatenate([mean, std]), atol=1e-10)

    def test_frame_permutation_invariance(self):
        pool = AttentiveStatsPooling(3)
        seed_parameters(pool, 10)
        x = np.random.default_rng(11).normal(size=(3, 7))
        a = pool_frames(x, pool)
        b = pool_frames(x[:, ::-1], pool)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_frames_error(self):
        pool = AttentiveStatsPooling(3)
        with pytest.raises(DimensionError):
            pool(ad.tensor(np.zeros((1, 0, 3))))


class TestEmbeddingHead:
    def test_output_is_256(self):
        head = EmbeddingHead(10)
        seed_parameters(head, 12)
        assert head(ad.tensor(np.random.default_rng(13).normal(size=(1, 10)))).shape == (1, 256)

    def test_zero_weights_zero_embedding(self):
        head = EmbeddingHead(10)  # zero-initialized by default
        out = head(ad.tensor(np.random.default_rng(14).normal(size=(1, 10)))).data[0]
        np.testing.assert_array_equal(out, np.zeros(256))

    def test_dim_mismatch(self):
        head = EmbeddingHead(10)
        with pytest.raises(DimensionError):
            head(ad.tensor(np.zeros((1, 9))))

    def test_gradients(self):
        head = EmbeddingHead(6)
        seed_parameters(head, 15)
        x = ad.tensor(np.random.default_rng(16).normal(size=(3, 6)), requires_grad=True)
        params = [p for _, p in head.named_parameters()]
        gradcheck(lambda: ad.sum_(ad.tanh(head(x, np.random.default_rng(0)))), [x] + params,
                  sample=5, rng=np.random.default_rng(3))


class TestAamSoftmax:
    def test_zero_margin_equals_cross_entropy_on_cosines(self, monkeypatch):
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 8)
        rng = np.random.default_rng(17)
        clf = AamClassifier(5)
        seed_parameters(clf, 18)
        emb = ad.tensor(rng.normal(size=(4, 8)))
        labels = [0, 2, 4, 1]
        loss = aam_softmax_loss(emb, labels, clf, scale=1.0, margin=0.0)

        w = clf.weight.data / np.linalg.norm(clf.weight.data, axis=1, keepdims=True)
        e = emb.data / np.linalg.norm(emb.data, axis=1, keepdims=True)
        cos = np.clip(e @ w.T, -1 + 1e-7, 1 - 1e-7)
        logp = cos - np.log(np.exp(cos).sum(axis=1, keepdims=True))
        # max-subtraction makes the direct form stable enough at these scales
        shifted = cos - cos.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -np.mean([logp[i, y] for i, y in enumerate(labels)])
        assert abs(float(loss.data) - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_zero_margin_matches_the_plain_cosine_branch_bitwise(self, monkeypatch, seed):
        """Margin 0 takes the margin form: cos * cos 0 - sin * sin 0 is cos, and
        each gradient term through the sine adds a zero.  The oracle is the
        separate margin-0 branch the loss used to have."""
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 8)
        rng = np.random.default_rng(seed)
        batch, n_classes = int(rng.integers(1, 40)), int(rng.integers(2, 300))
        scale = (1.0, 32.0)[seed % 2]
        clf = AamClassifier(n_classes)
        seed_parameters(clf, seed)
        labels = rng.integers(0, n_classes, size=batch)
        emb_data = rng.normal(size=(batch, 8))

        def cosine_branch(emb):
            w, e = losses._l2_rows(clf.weight), losses._l2_rows(emb)
            cos = ad.clip(ad.matmul(e, ad.transpose(w)),
                          -1.0 + losses.COS_CLAMP, 1.0 - losses.COS_CLAMP)
            logp = ad.log_softmax(cos * ad.tensor(scale), axis=-1)
            rows = np.arange(batch)[:, None]
            return -ad.mean(ad.take_pairs(logp, rows, labels[:, None]))

        def run(loss_of):
            emb = ad.tensor(emb_data, requires_grad=True)
            clf.weight.grad = None
            loss = loss_of(emb)
            ad.backward(loss)
            return loss.data, emb.grad, clf.weight.grad

        got = run(lambda emb: aam_softmax_loss(emb, labels, clf, scale, 0.0))
        for a, b in zip(got, run(cosine_branch)):
            assert np.array_equal(a, b)

    def test_two_class_aligned_case(self, monkeypatch):
        # embedding colinear with the target weight, orthogonal imposter
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 4)
        clf = AamClassifier(2)
        clf.weight.data = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        emb = ad.tensor(np.array([[2.0, 0.0, 0.0, 0.0]]))
        s, m = 4.0, 0.2
        loss = aam_softmax_loss(emb, [0], clf, scale=s, margin=m)

        cos_t = 1.0 - 1e-7  # clamp engages at exact alignment
        sin_t = math.sqrt(1.0 - cos_t * cos_t)
        phi = cos_t * math.cos(m) - sin_t * math.sin(m)
        z = np.array([s * phi, 0.0])
        expected = -(z[0] - np.log(np.exp(z).sum()))
        assert abs(float(loss.data) - expected) < 1e-10

    def test_label_out_of_range(self, monkeypatch):
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 4)
        clf = AamClassifier(3)
        seed_parameters(clf, 19)
        with pytest.raises(IndexError):
            aam_softmax_loss(ad.tensor(np.ones((1, 4))), [3], clf)

    def test_margin_domain(self, monkeypatch):
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 4)
        clf = AamClassifier(3)
        with pytest.raises(DataError):
            aam_softmax_loss(ad.tensor(np.ones((1, 4))), [0], clf, margin=1.7)

    def test_one_label_per_embedding(self, monkeypatch):
        """One label for two embeddings would otherwise score the first row only."""
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 4)
        clf = AamClassifier(3)
        seed_parameters(clf, 19)
        with pytest.raises(DimensionError, match="one label per embedding required"):
            aam_softmax_loss(ad.tensor(np.ones((2, 4))), [1], clf)

    def test_gradients(self, monkeypatch):
        monkeypatch.setattr(losses, "EMBEDDING_DIM", 6)
        clf = AamClassifier(4)
        seed_parameters(clf, 20)
        emb = ad.tensor(np.random.default_rng(21).normal(size=(3, 6)), requires_grad=True)
        gradcheck(lambda: aam_softmax_loss(emb, [0, 1, 3], clf, 8.0, 0.2),
                  [emb, clf.weight], sample=8, rng=np.random.default_rng(4))


def brute_force_ctc(logits: np.ndarray, target: list[int]) -> float:
    """Enumerate every frame labelling, collapse, and sum matching paths."""
    T, V = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    total = -np.inf
    paths = np.indices((V,) * T).reshape(T, -1).T if T > 0 else []
    for path in paths:
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev and sym != 0:
                collapsed.append(int(sym))
            prev = sym
        if collapsed == list(target):
            lp = sum(logp[t, path[t]] for t in range(T))
            total = np.logaddexp(total, lp)
    return -total


class TestCtc:
    def test_single_frame(self):
        logits = np.random.default_rng(22).normal(size=(1, 4))
        loss = ctc_loss_batch(ad.tensor(logits[None]), [[2]])
        shifted = logits[0] - logits[0].max()
        expected = -(shifted[2] - np.log(np.exp(shifted).sum()))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_against_brute_force(self):
        logits = np.random.default_rng(23).normal(size=(3, 4))
        loss = ctc_loss_batch(ad.tensor(logits[None]), [[1, 3]])
        assert abs(float(loss.data) - brute_force_ctc(logits, [1, 3])) < 1e-10

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_batch(ad.tensor(np.zeros((1, 2, 4))), [[1, 2, 3]])

    def test_repeat_needs_separator_frame(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_batch(ad.tensor(np.zeros((1, 2, 4))), [[1, 1]])

    def test_empty_target(self):
        with pytest.raises(DataError):
            ctc_loss_batch(ad.tensor(np.zeros((1, 3, 4))), [[]])

    def test_symbol_out_of_range(self):
        with pytest.raises(IndexError):
            ctc_loss_batch(ad.tensor(np.zeros((1, 3, 4))), [[4]])

    def test_gradients(self):
        logits = ad.tensor(np.random.default_rng(24).normal(size=(4, 4)), requires_grad=True)
        gradcheck(lambda: ctc_loss_batch(ad.reshape(logits, (1, 4, 4)), [[2, 1]]), [logits])

    def test_batch_mean(self):
        rng = np.random.default_rng(25)
        logits = rng.normal(size=(2, 4, 4))
        l0 = float(ctc_loss_batch(ad.tensor(logits[:1]), [[1]]).data)
        l1 = float(ctc_loss_batch(ad.tensor(logits[1:]), [[2, 3]]).data)
        lb = float(ctc_loss_batch(ad.tensor(logits), [[1], [2, 3]]).data)
        assert abs(lb - 0.5 * (l0 + l1)) < 1e-12

    # mixed lengths, repeats, and [1, 1, 1], which needs all T = 5 frames
    MIXED = [[1], [2, 2], [3, 1, 2], [1, 1, 1], [2, 3, 2, 1]]

    def test_mixed_batch_against_brute_force(self):
        logits = np.random.default_rng(41).normal(size=(5, 5, 4)) * 2.0
        expected = sum(brute_force_ctc(logits[b], t) for b, t in enumerate(self.MIXED)) / 5
        got = float(ctc_loss_batch(ad.tensor(logits), self.MIXED).data)
        assert abs(got - expected) < 1e-12

    def test_mixed_batch_gradients(self):
        logits = ad.tensor(np.random.default_rng(42).normal(size=(5, 5, 4)), requires_grad=True)
        gradcheck(lambda: ctc_loss_batch(logits, self.MIXED), [logits])

    def test_batch_is_one_node_summing_items_in_order(self):
        logits = ad.tensor(np.random.default_rng(43).normal(size=(5, 5, 4)), requires_grad=True)
        loss = ctc_loss_batch(logits, self.MIXED)
        assert ad.topo_order(loss) == [logits, loss]
        items = [ctc_loss_batch(ad.tensor(logits.data[b][None]), [t]).data
                 for b, t in enumerate(self.MIXED)]
        total = items[0]
        for item in items[1:]:
            total = total + item
        assert loss.data == total * (1.0 / 5)

    def test_batch_checks_every_target(self):
        logits = ad.tensor(np.zeros((2, 3, 4)))
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_batch(logits, [[1], [2, 2, 2]])
        with pytest.raises(IndexError):
            ctc_loss_batch(logits, [[4], [1]])
        with pytest.raises(DataError):
            ctc_loss_batch(logits, [[1], []])
        with pytest.raises(DimensionError):
            ctc_loss_batch(logits, [[1]])


class TestDistillKl:
    def test_identical_logits_zero(self):
        logits = np.random.default_rng(26).normal(size=(5, 7))
        loss = distill_kl_loss(ad.tensor(logits, requires_grad=True), logits)
        assert abs(float(loss.data)) < 1e-12

    def test_constant_frame_shift_cancels(self):
        rng = np.random.default_rng(27)
        t = rng.normal(size=(4, 6))
        shift = rng.normal(size=(4, 1))
        loss = distill_kl_loss(ad.tensor(t + shift), t)
        assert abs(float(loss.data)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        s = ad.tensor(rng.normal(scale=3.0, size=(3, 5)))
        t = rng.normal(scale=3.0, size=(3, 5))
        assert float(distill_kl_loss(s, t).data) >= -1e-12

    def test_hand_computed_two_frame_case(self):
        teacher = np.log(np.array([[0.8, 0.2], [0.5, 0.5]]))
        student = np.zeros((2, 2))  # uniform
        loss = distill_kl_loss(ad.tensor(student), teacher)
        kl1 = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        assert abs(float(loss.data) - kl1 / 2.0) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            distill_kl_loss(ad.tensor(np.zeros((2, 3))), np.zeros((3, 3)))


class TestRateMatcher:
    def test_halves_frames(self):
        rm = RateMatcher(6)
        seed_parameters(rm, 30)
        out = rm(ad.tensor(np.random.default_rng(31).normal(size=(1, 10, 6))))
        assert out.shape == (1, 5, 6)

    def test_minimal_length(self):
        rm = RateMatcher(6)
        seed_parameters(rm, 32)
        out = rm(ad.tensor(np.random.default_rng(33).normal(size=(1, 3, 6))))
        assert out.shape == (1, 2, 6)

    def test_channels_preserved(self):
        rm = RateMatcher(9)
        seed_parameters(rm, 34)
        out = rm(ad.tensor(np.random.default_rng(35).normal(size=(2, 11, 9))))
        assert out.shape[-1] == 9

    def test_too_short(self):
        rm = RateMatcher(4)
        with pytest.raises(InputTooShortError):
            rm(ad.tensor(np.zeros((1, 2, 4))))

    @pytest.mark.parametrize("B", [1, 3, 8, 12])
    def test_matches_the_channels_first_conv(self, B):
        rm = RateMatcher(32)
        seed_parameters(rm, 36)
        x = np.random.default_rng(B).normal(size=(B, 45, 32))
        out = rm(ad.tensor(x)).data
        ref = conv1d_channels_first(x.transpose(0, 2, 1), rm.conv.weight.data,
                                    rm.conv.bias.data, 2, 1, 1)
        assert np.array_equal(out, ref.transpose(0, 2, 1))

    def test_gradients(self):
        rm = RateMatcher(4)
        seed_parameters(rm, 37)
        x = ad.tensor(np.random.default_rng(38).normal(size=(3, 8, 4)), requires_grad=True)
        gradcheck(lambda: ad.sum_(ad.tanh(rm(x))), [x, rm.conv.weight, rm.conv.bias])


def combined(l_spk: float, l_distill: float, alpha: float) -> float:
    return float(combined_loss(ad.tensor(l_spk), ad.tensor(l_distill), alpha).data)


class TestCombinedLoss:
    def test_arithmetic(self):
        assert combined(2.0, 3.0, 1.0) == 5.0

    def test_alpha_zero(self):
        assert combined(2.5, 100.0, 0.0) == 2.5

    def test_affine_in_alpha(self):
        a1, a2 = 0.3, 1.9
        l = lambda a: combined(1.7, 2.3, a)
        assert abs(l(a1) + l(a2) - 2 * l((a1 + a2) / 2)) < 1e-12

    def test_negative_alpha_rejected(self):
        with pytest.raises(DataError):
            combined(1.0, 1.0, -0.1)
