import tracemalloc

import numpy as np
import pytest

from speechfeatures import (AbxTriplet, Features, FeaturesCollection,
                            PitchEval, abx_score, dtw_cosine, ger,
                            load_triplets, mae)
from speechfeatures.evaluate import _cosine_cost, _dtw_many

from conftest import error_naming_file


class TestMae:
    def test_identical(self):
        ev = PitchEval([100.0, 200.0], [100.0, 200.0])
        assert mae(ev) == 0.0

    def test_hand_case(self):
        ev = PitchEval([100.0, 200.0], [110.0, 190.0])
        assert mae(ev) == 10.0

    def test_mask_drops_worst_frame(self):
        truth = np.array([100.0, 100.0, 100.0])
        est = np.array([100.0, 101.0, 150.0])
        full = mae(PitchEval(truth, est))
        masked = mae(PitchEval(truth, est, [True, True, False]))
        assert masked < full

    def test_empty_mask_rejected(self):
        ev = PitchEval([100.0], [100.0], [False])
        with pytest.raises(ValueError):
            mae(ev)

    def test_scale_covariant(self):
        rng = np.random.default_rng(0)
        truth = rng.uniform(80, 300, 50)
        est = truth + rng.standard_normal(50)
        assert mae(PitchEval(3 * truth, 3 * est)) == pytest.approx(
            3 * mae(PitchEval(truth, est)))

    def test_permutation_invariant(self):
        truth = np.array([100.0, 150.0, 200.0])
        est = np.array([105.0, 140.0, 210.0])
        perm = [2, 0, 1]
        assert mae(PitchEval(truth[perm], est[perm])) == mae(PitchEval(truth, est))


class TestGer:
    def test_identical(self):
        assert ger(PitchEval([100.0, 200.0], [100.0, 200.0])) == 0.0

    def test_hand_case_strict_inequality(self):
        # first frame errs by 10 > 5; second by exactly 10 = 0.05 * 200
        ev = PitchEval([100.0, 200.0], [110.0, 190.0])
        assert ger(ev) == 50.0

    def test_double_everything(self):
        ev = PitchEval([100.0, 150.0], [200.0, 300.0])
        assert ger(ev) == 100.0

    def test_scale_invariant(self):
        truth = np.array([100.0, 150.0, 250.0])
        est = np.array([104.0, 160.0, 260.0])
        assert ger(PitchEval(7 * truth, 7 * est)) == ger(PitchEval(truth, est))

    def test_masked_truth_must_be_positive(self):
        with pytest.raises(ValueError):
            PitchEval([0.0, 100.0], [90.0, 100.0])
        PitchEval([0.0, 100.0], [90.0, 100.0], [False, True])


def feats(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return Features(matrix, np.arange(matrix.shape[0], dtype=np.float64))


class TestDtwCosine:
    def test_self_distance_zero(self):
        x = feats(np.random.default_rng(0).standard_normal((20, 5)))
        assert dtw_cosine(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_constant_frames(self):
        a = feats(np.tile([1.0, 0.0], (4, 1)))
        b = feats(np.tile([0.0, 1.0], (6, 1)))
        assert dtw_cosine(a, b) == pytest.approx(1.0)

    def test_repetition_absorbed(self):
        x = np.random.default_rng(1).standard_normal((10, 3))
        doubled = np.repeat(x, 2, axis=0)
        assert dtw_cosine(feats(x), feats(doubled)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = feats(rng.standard_normal((rng.integers(2, 12), 4)))
            b = feats(rng.standard_normal((rng.integers(2, 12), 4)))
            assert dtw_cosine(a, b) == pytest.approx(dtw_cosine(b, a), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = feats(rng.standard_normal((5, 3)))
            b = feats(rng.standard_normal((7, 3)))
            assert 0.0 <= dtw_cosine(a, b) <= 2.0

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            dtw_cosine(feats(np.ones((3, 2))), feats(np.ones((3, 3))))

    def test_zero_frames(self):
        zero = feats(np.zeros((3, 2)))
        one = feats(np.tile([1.0, 0.0], (3, 1)))
        assert dtw_cosine(zero, zero) == 0.0
        assert dtw_cosine(zero, one) == pytest.approx(1.0)

    def test_scale_invariance_of_frames(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((9, 3))
        assert dtw_cosine(feats(a), feats(b)) == pytest.approx(
            dtw_cosine(feats(5 * a), feats(0.2 * b)), abs=1e-12)


class TestAbx:
    def test_x_matches_a_exactly(self):
        rng = np.random.default_rng(0)
        a = feats(rng.standard_normal((10, 4)))
        b = feats(rng.standard_normal((10, 4)))
        assert abx_score([AbxTriplet(a, b, a)]) == 0.0

    def test_tie_scores_half(self):
        rng = np.random.default_rng(1)
        a = feats(rng.standard_normal((10, 4)))
        x = feats(rng.standard_normal((10, 4)))
        assert abx_score([AbxTriplet(a, a, x)]) == 50.0

    def test_swap_complements_error(self):
        rng = np.random.default_rng(2)
        triplets = []
        swapped = []
        for _ in range(40):
            a = feats(rng.standard_normal((6, 3)))
            b = feats(rng.standard_normal((6, 3)))
            x = feats(rng.standard_normal((6, 3)))
            triplets.append(AbxTriplet(a, b, x))
            swapped.append(AbxTriplet(b, a, x))
        assert abx_score(triplets) + abx_score(swapped) == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            abx_score([])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            AbxTriplet(feats(np.ones((2, 2))), feats(np.ones((2, 3))),
                       feats(np.ones((2, 2))))


def pairwise_dtw(a, b):
    """Reference DTW: one pair, cell by cell, diagonal then up then left."""
    a = np.atleast_2d(np.asarray(getattr(a, "data", a), dtype=np.float64))
    b = np.atleast_2d(np.asarray(getattr(b, "data", b), dtype=np.float64))
    cost = _cosine_cost(a, b)
    rows, cols = cost.shape
    total = np.empty((rows, cols))
    steps = np.empty((rows, cols), dtype=np.int64)
    total[0, 0] = cost[0, 0]
    steps[0, 0] = 1
    for j in range(1, cols):
        total[0, j] = total[0, j - 1] + cost[0, j]
        steps[0, j] = j + 1
    for i in range(1, rows):
        total[i, 0] = total[i - 1, 0] + cost[i, 0]
        steps[i, 0] = i + 1
        for j in range(1, cols):
            best = total[i - 1, j - 1]
            best_steps = steps[i - 1, j - 1]
            for pi, pj in ((i - 1, j), (i, j - 1)):
                if total[pi, pj] < best or (total[pi, pj] == best
                                            and steps[pi, pj] < best_steps):
                    best = total[pi, pj]
                    best_steps = steps[pi, pj]
            total[i, j] = best + cost[i, j]
            steps[i, j] = best_steps + 1
    return float(total[-1, -1] / steps[-1, -1])


def pairwise_abx(triplets):
    errors = 0.0
    for t in triplets:
        d_ax, d_bx = pairwise_dtw(t.a, t.x), pairwise_dtw(t.b, t.x)
        errors += 1.0 if d_ax > d_bx else 0.5 if d_ax == d_bx else 0.0
    return 100.0 * errors / len(triplets)


def tie_prone(rng, rows, channels=2):
    """Frames drawn from a few small integer vectors, zero frames included."""
    choices = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]], dtype=np.float64)
    frames = choices[rng.integers(0, len(choices), rows)]
    return np.tile(frames, (1, channels // 2))


class TestDtwExact:
    """The batched anti-diagonal sweep equals the per-pair loop bit for bit."""

    def check(self, pairs):
        batched = _dtw_many([(np.atleast_2d(a), np.atleast_2d(b)) for a, b in pairs])
        for (a, b), value in zip(pairs, batched):
            reference = pairwise_dtw(a, b)
            assert value == reference
            assert dtw_cosine(a, b) == reference

    def test_ties_and_zero_frames(self):
        rng = np.random.default_rng(0)
        seqs = [tie_prone(rng, n) for n in (1, 2, 3, 5, 8, 13, 21)]
        self.check([(a, b) for a in seqs for b in seqs])

    def test_all_zero_and_constant(self):
        zero, one = np.zeros((4, 3)), np.ones((6, 3))
        self.check([(zero, zero), (zero, one), (one, zero), (one, one)])

    def test_single_frame_sequences(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal((1, 4))
        seqs = [rng.standard_normal((n, 4)) for n in (1, 7, 30)]
        self.check([(row, s) for s in seqs] + [(s, row) for s in seqs])

    def test_mixed_shapes_in_one_chunk(self):
        rng = np.random.default_rng(2)
        pairs = [(rng.standard_normal((rng.integers(1, 12), 3)),
                  rng.standard_normal((rng.integers(1, 12), 3))) for _ in range(20)]
        self.check(pairs)

    def test_more_pairs_than_one_chunk(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.standard_normal((rng.integers(20, 34), 5)),
                  rng.standard_normal((rng.integers(20, 34), 5))) for _ in range(80)]
        self.check(pairs)

    def test_abx_with_repeated_pairs(self):
        rng = np.random.default_rng(4)
        items = [feats(tie_prone(rng, int(n), 4)) for n in rng.integers(1, 30, 12)]
        items += [feats(rng.standard_normal((int(n), 4)))
                  for n in rng.integers(1, 30, 12)]
        triplets = [AbxTriplet(*(items[i] for i in rng.integers(0, len(items), 3)))
                    for _ in range(150)]
        triplets += triplets[:40]
        assert abx_score(triplets) == pairwise_abx(triplets)

    def test_abx_working_set_bounded(self):
        # 2000 distinct 30-frame (item, x) pairs; one padded sweep of them
        # all would take over 40 MB
        rng = np.random.default_rng(5)
        xs = [feats(rng.standard_normal((30, 13))) for _ in range(40)]
        others = [feats(rng.standard_normal((30, 13))) for _ in range(50)]
        triplets = [AbxTriplet(others[2 * k], others[2 * k + 1], x)
                    for x in xs for k in range(25)]
        tracemalloc.start()
        try:
            abx_score(triplets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestLoadTriplets:
    def test_resolution(self, tmp_path):
        rng = np.random.default_rng(0)
        coll = FeaturesCollection({
            name: feats(rng.standard_normal((5, 2))) for name in "pqr"})
        path = tmp_path / "triplets.txt"
        path.write_text("p q r\nq p r\n")
        triplets = load_triplets(path, coll)
        assert len(triplets) == 2
        assert triplets[0].a is coll["p"]

    def test_unknown_name(self, tmp_path):
        coll = FeaturesCollection({"p": feats(np.ones((2, 2)))})
        path = tmp_path / "triplets.txt"
        path.write_text("p p missing\n")
        with pytest.raises(ValueError, match="missing"):
            load_triplets(path, coll)

    def test_wrong_field_count(self, tmp_path):
        coll = FeaturesCollection({"p": feats(np.ones((2, 2)))})
        path = tmp_path / "triplets.txt"
        path.write_text("p p\n")
        with pytest.raises(ValueError, match="3 names"):
            load_triplets(path, coll)

    @pytest.mark.parametrize("data, expected", [
        (b"p q r\n\xff q r\n", "can't decode byte 0xff"),
        (b"p q r\np q s\n", "line 2: triplet channel counts differ: [2, 3]"),
        (b"\n \n", "no triplets"),
        (b"p p\n", "line 1: expected 3 names"),
        (b"p p missing\n", "line 1: unknown features missing")],
        ids=["not-utf8", "channels", "empty", "field-count", "unknown"])
    def test_errors_name_the_file_once(self, tmp_path, data, expected):
        coll = FeaturesCollection({"p": feats(np.ones((2, 2))),
                                   "q": feats(np.ones((3, 2))),
                                   "r": feats(np.ones((2, 2))),
                                   "s": feats(np.ones((2, 3)))})
        path = tmp_path / "triplets.txt"
        path.write_bytes(data)
        assert expected in error_naming_file(path, load_triplets, path, coll)
