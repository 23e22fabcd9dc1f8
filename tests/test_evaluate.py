import numpy as np
import pytest

from speechfeatures import (AbxTriplet, Features, FeaturesCollection,
                            PitchEval, abx_score, dtw_cosine, ger,
                            load_triplets, mae)


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
