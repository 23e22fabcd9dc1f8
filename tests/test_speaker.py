import copy
import hashlib
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from speechfeatures import (DiagGmm, ExtractionError, Features,
                            FeaturesCollection, UbmOptions,
                            Utterance, Utterances, VtlnOptions, default_config,
                            estimate_warps, load_gmm, load_warps, save_gmm,
                            save_warps, train_ubm)
from speechfeatures import speaker
from speechfeatures.speaker import warp_grid

from conftest import config_error, error_naming_file


def naive_loglike(gmm, frame):
    """Independent oracle: direct (unguarded) mixture density evaluation."""
    total = 0.0
    for w, mu, var in zip(gmm.weights, gmm.means, gmm.variances):
        quad = np.sum((frame - mu) ** 2 / var)
        norm = np.prod(1.0 / np.sqrt(2 * np.pi * var))
        total += w * norm * np.exp(-0.5 * quad)
    return np.log(total)


class TestGmmLoglike:
    def test_single_gaussian_at_mean(self):
        gmm = DiagGmm([1.0], np.zeros((1, 2)), np.ones((1, 2)))
        assert gmm.loglikes(np.zeros(2))[0] == pytest.approx(
            -np.log(2 * np.pi), abs=1e-12)

    def test_duplicate_components_collapse(self):
        single = DiagGmm([1.0], np.ones((1, 3)), np.full((1, 3), 2.0))
        double = DiagGmm([0.5, 0.5], np.ones((2, 3)), np.full((2, 3), 2.0))
        frame = np.array([0.3, -1.2, 2.0])
        assert single.loglikes(frame)[0] == pytest.approx(
            double.loglikes(frame)[0], abs=1e-12)

    def test_decreases_away_from_mean(self):
        gmm = DiagGmm([1.0], np.zeros((1, 1)), np.ones((1, 1)))
        values = [gmm.loglikes(np.array([d]))[0] for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_naive_when_no_underflow(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g, d = 4, 3
            weights = rng.dirichlet(np.ones(g))
            means = rng.standard_normal((g, d))
            variances = rng.uniform(0.5, 2.0, (g, d))
            gmm = DiagGmm(weights, means, variances)
            frame = rng.standard_normal(d)
            assert gmm.loglikes(frame)[0] == pytest.approx(
                naive_loglike(gmm, frame), abs=1e-9)

    def test_no_underflow_far_away(self):
        gmm = DiagGmm([0.5, 0.5], np.array([[0.0], [100.0]]), np.ones((2, 1)))
        value = gmm.loglikes(np.array([1e4]))[0]
        assert np.isfinite(value)

    def test_dimension_mismatch(self):
        gmm = DiagGmm([1.0], np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            gmm.loglikes(np.zeros(3))

    def test_the_plain_formulas_bit_for_bit(self):
        # narrow components far apart: most lanes lie below EXP_UNDERFLOW
        rng = np.random.default_rng(7)
        gmm = DiagGmm(rng.dirichlet(np.ones(64)),
                      10.0 * rng.standard_normal((64, 13)),
                      rng.uniform(0.05, 2.0, (64, 13)))
        frames = 10.0 * rng.standard_normal((354, 13))
        inv_var = 1.0 / gmm.variances
        const = (np.log(gmm.weights)
                 - 0.5 * (np.log(2.0 * np.pi * gmm.variances).sum(axis=1)
                          + (gmm.means ** 2 * inv_var).sum(axis=1)))
        comp = const[None, :] - ((frames ** 2) @ (0.5 * inv_var).T
                                 - frames @ (gmm.means * inv_var).T)
        top = comp.max(axis=1, keepdims=True)
        assert np.mean(comp - top < speaker.EXP_UNDERFLOW) > 0.5
        assert np.array_equal(gmm.component_loglikes(frames), comp)
        assert np.array_equal(gmm.loglikes(frames),
                              top[:, 0] + np.log(np.exp(comp - top).sum(axis=1)))

        # an EM step leaves the plain responsibilities in its scratch
        scratch = np.empty((2, 400, 70))
        speaker._em_step(gmm, frames, 0.0, np.full(13, 1e-3), scratch)
        shifted = np.exp(comp - top)
        resp = scratch.reshape(-1)[:comp.size].reshape(comp.shape)
        assert np.array_equal(resp, shifted / shifted.sum(axis=1, keepdims=True))


class TestExactZeros:
    def test_exp_is_positive_zero_below_the_constant(self):
        edge = speaker.EXP_UNDERFLOW
        below = np.concatenate([
            edge - np.arange(1, 100001) * np.spacing(edge),
            np.linspace(edge, edge - 100.0, 1000001)[1:],
            [-1e4, -1e300, -np.finfo(np.float64).max, -np.inf]])
        # +0.0 is the all-zero bit pattern
        assert not np.any(np.exp(below).view(np.uint64))

    def test_helper_is_exp_bit_for_bit(self):
        rng = np.random.default_rng(3)
        edges = np.array([speaker.EXP_UNDERFLOW, -745.1332191019412, -708.4])
        values = np.concatenate([
            [np.nan, -np.nan, -np.inf, 0.0, -0.0, 1.0, 700.0],
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            rng.uniform(-745.2, -708.4, 4000),   # subnormal results
            rng.uniform(-800.0, -700.0, 4000),
            rng.uniform(-50.0, 0.0, 4000)])
        values = rng.permutation(values)[:12000].reshape(375, 32)
        expected = np.exp(values)
        got = speaker._exp_in_place(values)
        assert got is values
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.any((expected > 0) & (expected < np.finfo(np.float64).tiny))


def numpy_pairwise_sum(lanes, add=lambda a, b: a + b, start=0.0):
    """The lanes summed in the order of numpy's pairwise sum of one
    contiguous row (`pairwise_sum` in numpy's loops_utils.h.src): 8 running
    partial sums over blocks of 8, a balanced tree over them, then the last
    n % 8 lanes one by one; a plain running sum below 8 lanes, and halves
    cut at a multiple of 8 above 128. Any `add` may stand for +."""
    n = len(lanes)
    if n < 8:
        total = start
        for lane in lanes:
            total = add(total, lane)
        return total
    if n <= 128:
        partial = list(lanes[:8])
        end = n - n % 8
        for i in range(8, end, 8):
            partial = [add(p, lane) for p, lane in zip(partial, lanes[i:i + 8])]
        total = add(add(add(partial[0], partial[1]), add(partial[2], partial[3])),
                    add(add(partial[4], partial[5]), add(partial[6], partial[7])))
        for lane in lanes[end:]:
            total = add(total, lane)
        return total
    half = n // 2 - (n // 2) % 8
    return add(numpy_pairwise_sum(lanes[:half], add, start),
               numpy_pairwise_sum(lanes[half:], add, start))


def summation_depth(n):
    """The most additions between a lane and the sum of n lanes."""
    return numpy_pairwise_sum([0] * n, lambda a, b: max(a, b) + 1, 0)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def plain_loglikes(comp):
    """log-sum-exp of each row by the plain formula."""
    top = comp.max(axis=1, keepdims=True)
    return top[:, 0] + np.log(np.exp(comp - top).sum(axis=1))


def adversarial_scores(num_gauss, rng):
    """Component scores whose shifted values sit where the floor acts:
    ladders across -746 ... -673 around SCORE_FLOOR and the subnormal band,
    lanes that put the sum one rounding away from a tie, NaN, +-inf, ties
    and -0.0."""
    g = num_gauss
    ladder = np.concatenate([
        np.linspace(-746.0, -673.0, 40),
        [speaker.SCORE_FLOOR, speaker.EXP_UNDERFLOW, -745.1332191019412, -708.4,
         -708.0, -36.7368005696771]])   # the last: log(2**-53)
    ladder = np.concatenate([ladder, np.nextafter(ladder, -np.inf),
                             np.nextafter(ladder, np.inf)])
    rows = []
    for _ in range(6):
        # one lane at the top, the others on the ladder
        top = rng.uniform(-50.0, 50.0)
        row = top + rng.choice(ladder, g)
        row[rng.integers(g)] = top
        rows.append(row)
    # all below the floor except the top: every partial sum but one differs
    rows.append(np.concatenate([[0.0], rng.uniform(-745.2, -700.5, g - 1)]))
    # half-ulp lanes of 1.0 beside floored ones
    row = np.where(rng.random(g) < 0.5, -36.7368005696771, -720.0)
    row[0] = 0.0
    rows.append(rng.permutation(row))
    rows.append(np.full(g, 3.5))                       # every lane tied
    row = np.full(g, -0.0)
    row[::2] = 0.0
    rows.append(row)                                   # zeros of both signs
    row = rng.uniform(-800.0, 0.0, g)
    row[rng.integers(g)] = np.nan
    rows.append(row)                                   # one NaN
    row = rng.uniform(-800.0, 0.0, g)
    row[rng.integers(g)] = -np.inf
    rows.append(row)                                   # an -inf lane
    row = rng.uniform(-800.0, 0.0, g)
    row[rng.integers(g)] = np.inf
    rows.append(row)                                   # an +inf lane
    rows.append(np.full(g, -np.inf))                   # no finite score
    return np.array(rows)


def scoring_these(gmm, comp, monkeypatch):
    """`gmm` with `comp` as its component scores of any frames."""
    monkeypatch.setattr(gmm, "component_loglikes", lambda frames: comp.copy())
    return gmm


def random_gmm(num_gauss, rng, dim=13):
    return DiagGmm(rng.dirichlet(np.ones(num_gauss)),
                   10.0 * rng.standard_normal((num_gauss, dim)),
                   rng.uniform(0.05, 2.0, (num_gauss, dim)))


def assert_same_bits_or_both_nan(got, expected):
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(got[~nan]), bits(expected[~nan]))


class TestScoreFloor:
    """`DiagGmm.loglikes` raises shifted scores to SCORE_FLOOR for at most
    SCORE_FLOOR_GAUSS components; these tests hold the premises of the
    argument in its docstring."""

    @pytest.mark.parametrize("num_gauss", [*range(1, 87), 87, 128])
    def test_row_sums_follow_numpy_pairwise_order(self, num_gauss):
        rng = np.random.default_rng(num_gauss)
        rows = 2.0 ** rng.uniform(-60.0, 0.0, (300, num_gauss))
        rows[np.arange(300), rng.integers(num_gauss, size=300)] = 1.0
        pairwise = np.array([numpy_pairwise_sum(row.tolist()) for row in rows])
        sequential = np.array([sum(row.tolist(), 0.0) for row in rows])
        differ = pairwise != sequential
        # below 8 lanes the pairwise order is the sequential one
        assert differ.any() == (num_gauss >= 8)
        assert np.array_equal(bits(rows.sum(axis=1)), bits(pairwise))
        assert np.array_equal(bits(rows[differ].sum(axis=1)), bits(pairwise[differ]))

    def test_summation_depth_and_the_floor(self):
        assert all(summation_depth(n) <= 7 for n in range(1, 8))
        assert all(summation_depth(n) == n // 8 + 2 + n % 8 for n in range(8, 129))
        assert max(summation_depth(n)
                   for n in range(1, speaker.SCORE_FLOOR_GAUSS + 1)) == 18
        assert summation_depth(speaker.SCORE_FLOOR_GAUSS + 1) == 19
        # a lane below the floor is under 2**-1009.9; after 17 levels of
        # growth by less than 2**54.01 it is still absorbed by a sum >= 1
        assert speaker.SCORE_FLOOR / np.log(2.0) + 54.01 * 17 < -54.0
        assert -708.0 < speaker.SCORE_FLOOR

    def test_loglikes_is_the_plain_formula_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(25)
        frames = 10.0 * rng.standard_normal((200, 13))
        for num_gauss in range(1, speaker.SCORE_FLOOR_GAUSS + 1):
            gmm = random_gmm(num_gauss, rng)
            comp = gmm.component_loglikes(frames)
            assert np.array_equal(bits(gmm.loglikes(frames)), bits(plain_loglikes(comp)))

            comp = adversarial_scores(num_gauss, rng)
            with np.errstate(invalid="ignore"):
                expected = plain_loglikes(comp)
                got = scoring_these(gmm, comp, monkeypatch).loglikes(frames)
            assert_same_bits_or_both_nan(got, expected)
            assert np.isnan(expected).any() and np.isfinite(expected).any()

    @pytest.mark.parametrize("num_gauss", [87, 128])
    def test_larger_models_go_through_exp_in_place(self, num_gauss, monkeypatch):
        rng = np.random.default_rng(num_gauss)
        gmm = random_gmm(num_gauss, rng)
        frames = 10.0 * rng.standard_normal((200, 13))
        comp = gmm.component_loglikes(frames)
        calls = []
        exp_in_place = speaker._exp_in_place
        monkeypatch.setattr(speaker, "_exp_in_place",
                            lambda values: calls.append(1) or exp_in_place(values))
        assert np.array_equal(bits(gmm.loglikes(frames)), bits(plain_loglikes(comp)))
        comp = adversarial_scores(num_gauss, rng)
        with np.errstate(invalid="ignore"):
            expected = plain_loglikes(comp)
            got = scoring_these(gmm, comp, monkeypatch).loglikes(frames)
        assert_same_bits_or_both_nan(got, expected)
        assert len(calls) == 2

    def test_row_max_is_max(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-800.0, 10.0, (50, 64))
        values[:, 7] = values[:, 3]                         # ties
        values[5] = 0.0
        values[5, ::3] = -0.0                               # zeros of both signs
        values[6] = -0.0
        values[7, 20] = np.nan
        values[8, [2, 9]] = [-np.nan, np.nan]
        values[9] = np.nan
        values[10, 4] = np.inf
        values[11] = -np.inf
        got = speaker._row_max(values)
        assert got.shape == (50, 1)
        assert np.array_equal(got, values.max(axis=1, keepdims=True), equal_nan=True)
        # the first maximal lane, whichever zero max gives
        assert np.signbit(got[5, 0])
        assert not np.signbit(speaker._row_max(values[5:6, 1:])[0, 0])

    def test_stored_models_score_the_same_bits(self):
        rng = np.random.default_rng(8)
        gmm = random_gmm(64, rng)
        frames = 10.0 * rng.standard_normal((354, 13))
        expected = bits(gmm.loglikes(frames))
        for back in (pickle.loads(pickle.dumps(gmm)), copy.deepcopy(gmm)):
            assert np.array_equal(bits(back.loglikes(frames)), expected)


class TestDiagGmm:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiagGmm([0.5, 0.4], np.zeros((2, 1)), np.ones((2, 1)))

    @pytest.mark.parametrize("means, variances", [
        (np.zeros(2), np.ones(2)), (np.zeros((2, 1)), np.ones((2, 2))),
        (np.zeros((2, 1, 1)), np.ones((2, 1, 1)))],
        ids=["vector", "unequal", "3-d"])
    def test_means_and_variances_shape(self, means, variances):
        with pytest.raises(ValueError,
                           match=r"^means and variances must be \[num_gauss, dim\]$"):
            DiagGmm([0.5, 0.5], means, variances)

    @pytest.mark.parametrize("weights", [[1.0], [0.25] * 4, [[0.5, 0.5]]],
                             ids=["short", "long", "matrix"])
    def test_weights_shape(self, weights):
        with pytest.raises(ValueError,
                           match="^weights must be a vector of num_gauss entries$"):
            DiagGmm(weights, np.zeros((2, 1)), np.ones((2, 1)))

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            DiagGmm([1.0], np.zeros((1, 1)), np.zeros((1, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, means, variances", [
        ([np.nan, np.nan], [[0.0], [1.0]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[np.nan], [1.0]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[0.0], [np.inf]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[0.0], [-np.inf]], [[1.0], [1.0]]),
        ([0.5, 0.5], [[0.0], [1.0]], [[1.0], [np.nan]]),
        ([0.5, 0.5], [[0.0], [1.0]], [[np.inf], [1.0]]),
    ], ids=["nan-weights", "nan-mean", "inf-mean", "minus-inf-mean",
            "nan-variance", "inf-variance"])
    def test_non_finite_parameters_rejected(self, weights, means, variances):
        with pytest.raises(ValueError, match="^weights, means and variances "
                                             "must be finite$"):
            DiagGmm(weights, means, variances)

    def test_keeps_read_only_copies_of_writeable_arrays(self):
        weights, means, variances = np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2))
        gmm = DiagGmm(weights, means, variances)
        means[0, 0] = 5.0
        assert gmm.means[0, 0] == 0.0
        for array in gmm.weights, gmm.means, gmm.variances:
            assert not array.flags.writeable


def two_cluster_data(n=10000, centers=(0.0, 5.0), scale=0.5, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    return np.concatenate([
        centers[0] + scale * rng.standard_normal(half),
        centers[1] + scale * rng.standard_normal(n - half)])[:, None]


def record_em_steps(monkeypatch):
    """Wrap speaker._em_step; the list fills with one (total log-likelihood
    before, after) pair per EM step, both on the data that step fits."""
    steps = []
    em_step = speaker._em_step

    def recording(gmm, data, *args):
        new = em_step(gmm, data, *args)
        steps.append((gmm.loglikes(data).sum(), new.loglikes(data).sum()))
        return new

    monkeypatch.setattr(speaker, "_em_step", recording)
    return steps


class TestTrainUbm:
    def test_recovers_two_clusters(self):
        data = two_cluster_data()
        gmm = train_ubm(data, UbmOptions(num_gauss=2, num_iters=6), seed=0)
        recovered = np.sort(gmm.means[:, 0])
        assert abs(recovered[0] - 0.0) < 0.1
        assert abs(recovered[1] - 5.0) < 0.1

    def test_features_source_is_its_data(self):
        data = two_cluster_data(n=400)
        feats = Features(data, np.arange(len(data), dtype=np.float64))
        opts = UbmOptions(num_gauss=2, num_iters=2)
        from_feats = train_ubm(feats, opts, seed=3)
        from_data = train_ubm(data, opts, seed=3)
        for field in ("weights", "means", "variances"):
            assert np.array_equal(getattr(from_feats, field), getattr(from_data, field))

    def test_loglike_history_monotone(self, monkeypatch):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2000, 4)) * [1.0, 2.0, 0.5, 1.5]
        opts = UbmOptions(num_gauss=8)
        steps = record_em_steps(monkeypatch)
        train_ubm(data, opts, seed=3)
        assert len(steps) == opts.num_iters_init + opts.num_iters
        for before, after in steps:
            assert after >= before - 1e-8 * abs(before)

    def test_one_likelihood_pass_per_em_step(self, monkeypatch):
        calls = []
        component_loglikes = speaker._component_loglikes

        def counting(gmm, frames, scratch):
            calls.append(len(frames))
            return component_loglikes(gmm, frames, scratch)

        monkeypatch.setattr(speaker, "_component_loglikes", counting)
        rng = np.random.default_rng(4)
        opts = UbmOptions()
        gmm = train_ubm(rng.standard_normal((1062, 13)), opts, seed=0)
        assert len(calls) == opts.num_iters_init + opts.num_iters
        assert not hasattr(gmm, "history")

    def test_deterministic_given_seed(self):
        data = two_cluster_data(2000)
        a = train_ubm(data, UbmOptions(num_gauss=4), seed=11)
        b = train_ubm(data, UbmOptions(num_gauss=4), seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)

    def test_accepts_features_collection(self):
        rng = np.random.default_rng(0)
        coll = FeaturesCollection({
            "a": Features(rng.standard_normal((50, 3)),
                          np.arange(50, dtype=float)),
            "b": Features(rng.standard_normal((60, 3)),
                          np.arange(60, dtype=float))})
        gmm = train_ubm(coll, UbmOptions(num_gauss=4))
        assert gmm.num_gauss == 4
        assert gmm.dim == 3

    def test_few_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            train_ubm(np.zeros((3, 2)), UbmOptions(num_gauss=8))

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            train_ubm(np.full((100, 2), 1.5), UbmOptions(num_gauss=2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, value):
        data = np.random.default_rng(0).standard_normal((200, 3))
        data[17, 1] = value
        with pytest.raises(ValueError, match="^training frames must be finite$"):
            train_ubm(data, UbmOptions(num_gauss=4))

    def test_one_scratch_per_training(self):
        # EM holds one [2, n, num_gauss] scratch and little else of that size
        data = np.random.default_rng(4).standard_normal((1062, 13))
        tracemalloc.start()
        try:
            train_ubm(data, UbmOptions(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * data.shape[0] * UbmOptions().num_gauss * 8

    def test_subsampling_cap(self):
        data = two_cluster_data(4000)
        gmm = train_ubm(data, UbmOptions(num_gauss=2, num_frames=500), seed=0)
        recovered = np.sort(gmm.means[:, 0])
        assert abs(recovered[0] - 0.0) < 0.2
        assert abs(recovered[1] - 5.0) < 0.2

    def test_reaches_requested_size(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3000, 2))
        gmm = train_ubm(data, UbmOptions(num_gauss=16), seed=5)
        assert gmm.num_gauss == 16
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_remove_low_count_gaussians(self):
        # an aggressive weight floor prunes starved components when asked
        data = two_cluster_data(1000)
        opts = UbmOptions(num_gauss=8, min_gaussian_weight=0.1,
                          remove_low_count_gaussians=True)
        gmm = train_ubm(data, opts, seed=0)
        assert gmm.num_gauss <= 8
        assert np.all(gmm.weights >= 0.1 / 2)  # renormalization headroom
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-10)

        kept = train_ubm(data, UbmOptions(num_gauss=8, min_gaussian_weight=0.1,
                                          remove_low_count_gaussians=False),
                         seed=0)
        assert kept.num_gauss == 8

    @pytest.mark.parametrize("remove", [False, True])
    def test_weight_floor_at_its_bound_still_trains(self, remove):
        # the heaviest of num_gauss components weighs at least 1/num_gauss,
        # so at that floor EM still moves it onto a cluster
        data = two_cluster_data(2000)
        gmm = train_ubm(data, UbmOptions(num_gauss=2, min_gaussian_weight=0.5,
                                         remove_low_count_gaussians=remove),
                        seed=0)
        assert abs(gmm.means[:, 0].max() - 5.0) < 0.2
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-10)
        if not remove:
            assert abs(gmm.means[:, 0].min() - 0.0) < 0.2


class TestOptionChecks:
    @pytest.mark.parametrize("kwargs", [{"max_warp": np.inf},
                                        {"max_warp": np.nan},
                                        {"min_warp": np.nan}])
    def test_non_finite_warp_bounds_rejected(self, kwargs):
        # a config file cannot hold them, but the Python API can
        key, = kwargs
        with pytest.raises(ValueError, match=f"^{key} must be a finite float, got "):
            VtlnOptions(**kwargs)

    def test_warp_grid_of_at_most_128_warps(self):
        # counted as warp_grid counts: 0.3 / (0.3 / 127) steps, plus one
        assert len(warp_grid(VtlnOptions(warp_step=0.3 / 127))) == 128
        with pytest.raises(ValueError, match=re.escape(
                "the warp grid has 129 warps, more than the maximum 128")):
            VtlnOptions(warp_step=0.3 / 128)

    @pytest.mark.parametrize("step, searched", [
        (0.08, [0.85, 0.93, 1.01, 1.09, 1.17]), (0.5, [0.85, 1.35])],
        ids=["past-max-warp", "far-past-max-warp"])
    def test_warp_step_must_divide_the_range(self, step, searched):
        # what warp_grid would search: it rounds the step count
        grid = 0.85 + np.arange(round(0.3 / step) + 1) * step
        assert np.allclose(grid, searched, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match=re.escape(
                f"warp_step {step} does not divide the warp range "
                f"[0.85, 1.15] into whole steps")):
            VtlnOptions(warp_step=step)

    @pytest.mark.parametrize("factor", [1 + 1e-10, 1 - 1e-10])
    def test_warp_step_within_the_tolerance_accepted(self, factor):
        grid = warp_grid(VtlnOptions(warp_step=0.01 * factor))
        assert len(grid) == 31 and abs(grid[-1] - 1.15) < 1e-8
        with pytest.raises(ValueError, match="does not divide"):
            VtlnOptions(warp_step=0.01 * (1 + 1e-8))

    def test_weight_floor_edges_accepted(self):
        UbmOptions(num_gauss=4, min_gaussian_weight=0.0)
        UbmOptions(num_gauss=4, min_gaussian_weight=0.25)
        UbmOptions(num_iters=0)

    @pytest.mark.parametrize("block, edits, message", [
        (("vtln", "ubm"), {"num_gauss": 0}, "num_gauss must be >= 1, got 0"),
        (("vtln", "ubm"), {"initial_gauss_proportion": 0.0},
         "initial_gauss_proportion must be in (0, 1]"),
        (("vtln", "ubm"), {"initial_gauss_proportion": 1.5},
         "initial_gauss_proportion must be in (0, 1]"),
        (("vtln", "ubm"), {"num_iters": -1}, "num_iters must be >= 0, got -1"),
        (("vtln", "ubm"), {"num_iters_init": 0},
         "num_iters_init must be >= 1, got 0"),
        (("vtln", "ubm"), {"num_frames": 0}, "num_frames must be >= 1, got 0"),
        (("vtln", "ubm"), {"min_gaussian_weight": -0.1},
         "min_gaussian_weight must be >= 0, got -0.1"),
        (("vtln", "ubm"), {"min_gaussian_weight": 1.5},
         "min_gaussian_weight must be <= 1/num_gauss = 0.015625, got 1.5"),
        (("vtln", "ubm"), {"num_gauss": 8, "min_gaussian_weight": 0.2},
         "min_gaussian_weight must be <= 1/num_gauss = 0.125, got 0.2"),
        ("vtln", {"min_warp": -0.5}, "min_warp must be in (0, 1), got -0.5"),
        ("vtln", {"min_warp": 0.0}, "min_warp must be in (0, 1), got 0.0"),
        ("vtln", {"min_warp": 1.0}, "min_warp must be in (0, 1), got 1.0"),
        ("vtln", {"max_warp": 0.95}, "max_warp must be > 1, got 0.95"),
        ("vtln", {"warp_step": 0.0}, "warp_step must be > 0, got 0.0"),
        ("vtln", {"norm_type": "bogus"},
         "norm_type must be one of offset, none, diag, got 'bogus'"),
        ("vtln", {"num_iters": 0}, "num_iters must be >= 1, got 0"),
        ("vtln", {"warp_step": 3e-4},
         "the warp grid has 1001 warps, more than the maximum 128"),
        ("vtln", {"warp_step": 0.08},
         "warp_step 0.08 does not divide the warp range [0.85, 1.15] into "
         "whole steps"),
        ("vtln", {"warp_step": 1e-320},
         "the warp grid has inf warps, more than the maximum 128 (min_warp 0.85, "
         "max_warp 1.15, warp_step 1e-320)"),
        ("vtln", {"max_warp": 1e308},
         "the warp grid has inf warps, more than the maximum 128 (min_warp 0.85, "
         "max_warp 1e+308, warp_step 0.01)"),
        ("mfcc", {"frame_length": 65536},
         "frame_length must cover at most 8192 samples, got 65536.0 s at 16000 Hz"),
    ], ids=["num-gauss", "proportion-0", "proportion-over-1", "ubm-num-iters",
            "num-iters-init", "num-frames", "negative-weight-floor",
            "weight-floor-over-1", "weight-floor-over-1-over-num-gauss",
            "negative-min-warp", "zero-min-warp", "min-warp-1", "max-warp-under-1",
            "warp-step", "norm-type", "vtln-num-iters", "warp-grid-too-long",
            "warp-step-not-dividing", "warp-step-1e-320", "max-warp-1e308",
            "vtln-frame-length-65536"])
    def test_config_errors_name_file_block_and_key(self, tmp_path, block,
                                                   edits, message):
        error = config_error(tmp_path, default_config("mfcc", with_vtln=True),
                             block, **edits)
        assert message in error


class SyntheticExtractor:
    """Per-speaker features whose best alignment is a known warp.

    Away from the planted warp the feature spread inflates, so under any
    fitted model the likelihood peaks at the planted warp; a spread signal
    survives mean-offset compensation. One base draw per utterance: warping
    transforms it smoothly, like real warped features derive from one
    underlying signal.
    """

    def __init__(self, best_warps, spread=0.05):
        self.best_warps = best_warps
        self.spread = spread

    def __call__(self, utt, warps):
        rng = np.random.default_rng(hash(utt.name) % 2 ** 32)
        base = rng.standard_normal((50, 2))
        best = self.best_warps[utt.speaker]
        return [self.spread * (1.0 + 50.0 * (warp - best) ** 2) * base
                for warp in warps]


def speakered_utterances(names_speakers):
    return Utterances([Utterance(n, f"{n}.wav", speaker=s)
                       for n, s in names_speakers])


def previous_map_loop(utterances, extractor, opts, seed=0):
    """Oracle: the warp search that stops only when a round repeats the
    map of the round before it, and otherwise runs all opts.num_iters."""
    grid = warp_grid(opts).tolist()
    by_speaker = {
        speaker: sorted(utts, key=lambda u: u.name)
        for speaker, utts in sorted(utterances.by_speaker().items())}
    warps = {speaker: 1.0 for speaker in by_speaker}
    selected = {speaker: np.vstack([extractor(u, [1.0])[0] for u in utts])
                for speaker, utts in by_speaker.items()}
    for _ in range(opts.num_iters):
        train_data = np.vstack(list(selected.values()))
        gmm = speaker.train_ubm(train_data, opts.ubm, seed=seed)
        corpus_mean = train_data.mean(axis=0)
        corpus_std = np.maximum(train_data.std(axis=0), 1e-10)
        new_warps = {}
        for spk, utts in by_speaker.items():
            frames = [np.vstack(per_warp)
                      for per_warp in zip(*(extractor(u, grid) for u in utts))]
            new_warps[spk] = speaker.select_warp(grid, [
                speaker._warp_score(gmm, f, corpus_mean, corpus_std, opts)
                for f in frames])
            selected[spk] = frames[grid.index(new_warps[spk])]
        if new_warps == warps:
            break
        warps = new_warps
    return warps


class ScriptedSearch:
    """Hash-driven stand-ins for train_ubm and _warp_score.

    The "UBM" is a digest of its training data, so it identifies the map
    that selected those frames; a warp's score is a salted digest of that
    UBM and the frames, kept to the allowed warps. Every round is then a
    fixed pseudo-random function of the map before it, over a state space
    small enough that maps repeat, often with a period above one.
    """

    def __init__(self, salt, allowed=(0.95, 1.0, 1.05)):
        self.salt = salt
        self.allowed = allowed
        self.trainings = 0

    def extractor(self, utt, warps):
        speaker_code = float(utt.speaker[1:])
        return [np.array([[warp, speaker_code]]) for warp in warps]

    def train_ubm(self, data, opts, seed=0):
        self.trainings += 1
        return hashlib.sha256(data.tobytes()).digest()

    def warp_score(self, gmm, frames, corpus_mean, corpus_std, opts):
        if not any(np.isclose(frames[0, 0], self.allowed)):
            return -np.inf
        digest = hashlib.sha256(
            bytes([self.salt]) + gmm + frames.tobytes()).digest()
        return float(digest[0])


class TestEstimateWarps:
    def small_opts(self, **kwargs):
        return VtlnOptions(ubm=UbmOptions(num_gauss=2, num_iters=2,
                                          num_iters_init=5), num_iters=3,
                           **kwargs)

    def test_a_round_holds_a_speakers_grid_once(self):
        utts = speakered_utterances([(f"u{i}", f"s{i % 2}") for i in range(6)])
        extractor = SyntheticExtractor({"s0": 0.95, "s1": 1.05})

        def frames(utt, warps):  # 400 frames per utterance and warp
            return [np.repeat(m, 8, axis=0) for m in extractor(utt, warps)]

        opts = self.small_opts()
        estimate_warps(utts, frames, opts)
        tracemalloc.start()
        try:
            estimate_warps(utts, frames, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = 3 * len(warp_grid(opts)) * 400 * 2 * 8  # one speaker's
        assert peak < 1.6 * grid_bytes

    def test_recovers_planted_warps(self):
        utts = speakered_utterances(
            [("u1", "s1"), ("u2", "s1"), ("u3", "s2"), ("u4", "s2")])
        extractor = SyntheticExtractor({"s1": 0.95, "s2": 1.05})
        warps = estimate_warps(utts, extractor, self.small_opts(), seed=0)
        assert warps["s1"] == pytest.approx(0.95, abs=0.011)
        assert warps["s2"] == pytest.approx(1.05, abs=0.011)

    def test_recovers_without_compensation(self):
        utts = speakered_utterances([("u1", "s1"), ("u2", "s2")])
        extractor = SyntheticExtractor({"s1": 0.9, "s2": 1.1})
        warps = estimate_warps(utts, extractor,
                               self.small_opts(norm_type="none"), seed=0)
        assert warps["s1"] == pytest.approx(0.9, abs=0.011)
        assert warps["s2"] == pytest.approx(1.1, abs=0.011)

    def test_offset_score_ignores_speaker_mean(self):
        from speechfeatures.speaker import _warp_score
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((100, 3))
        gmm = DiagGmm([1.0], np.zeros((1, 3)), np.ones((1, 3)))
        opts = VtlnOptions(norm_type="offset")
        corpus_mean = np.array([0.1, -0.2, 0.3])
        corpus_std = np.ones(3)
        base = _warp_score(gmm, frames, corpus_mean, corpus_std, opts)
        shifted = _warp_score(gmm, frames + [5.0, -3.0, 40.0],
                              corpus_mean, corpus_std, opts)
        assert shifted == pytest.approx(base, abs=1e-8)

    def test_diag_score_ignores_affine_channel_changes(self):
        from speechfeatures.speaker import _warp_score
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((100, 3))
        gmm = DiagGmm([1.0], np.zeros((1, 3)), np.ones((1, 3)))
        opts = VtlnOptions(norm_type="diag")  # logdet_scale 0: scale term inert
        corpus_mean = np.zeros(3)
        corpus_std = np.ones(3)
        base = _warp_score(gmm, frames, corpus_mean, corpus_std, opts)
        transformed = _warp_score(gmm, frames * [2.0, 0.5, 3.0] + 7.0,
                                  corpus_mean, corpus_std, opts)
        assert transformed == pytest.approx(base, abs=1e-8)

    def test_warps_on_grid(self):
        utts = speakered_utterances([("u1", "s1"), ("u2", "s2")])
        extractor = SyntheticExtractor({"s1": 0.9, "s2": 1.1})
        opts = self.small_opts()
        warps = estimate_warps(utts, extractor, opts, seed=0)
        grid = np.round(warp_grid(opts), 6)
        for warp in warps.values():
            assert round(warp, 6) in grid

    def test_deterministic(self):
        utts = speakered_utterances([("u1", "s1"), ("u2", "s2")])
        extractor = SyntheticExtractor({"s1": 0.93, "s2": 1.07})
        a = estimate_warps(utts, extractor, self.small_opts(), seed=4)
        b = estimate_warps(utts, extractor, self.small_opts(), seed=4)
        assert a == b

    def test_tie_prefers_warp_closest_to_one(self):
        # constant features: every warp scores identically
        utts = speakered_utterances([("u1", "s1")])

        def flat_extractor(utt, warps):
            return [np.random.default_rng(0).standard_normal((40, 2))] * len(warps)

        warps = estimate_warps(utts, flat_extractor, self.small_opts(), seed=0)
        assert warps["s1"] == pytest.approx(1.0)

    @pytest.mark.parametrize("num_iters", [1, 2, 5])
    def test_one_grid_call_per_utterance_per_round(self, monkeypatch, num_iters):
        from speechfeatures import speaker
        utts = speakered_utterances(
            [("u1", "s1"), ("u2", "s1"), ("u3", "s2"), ("u4", "s2")])
        synthetic = SyntheticExtractor({"s1": 0.95, "s2": 1.05})
        calls = {u.name: [] for u in utts}

        def counting_extractor(utt, warps):
            calls[utt.name].append(list(warps))
            return synthetic(utt, warps)

        rounds = []
        real_train_ubm = speaker.train_ubm

        def counting_train_ubm(*args, **kwargs):
            rounds.append(1)
            return real_train_ubm(*args, **kwargs)

        monkeypatch.setattr(speaker, "train_ubm", counting_train_ubm)
        opts = VtlnOptions(ubm=UbmOptions(num_gauss=2, num_iters=2,
                                          num_iters_init=5), num_iters=num_iters)
        estimate_warps(utts, counting_extractor, opts, seed=0)
        # planted warps away from 1.0 change the map in round 1
        assert min(num_iters, 2) <= len(rounds) <= num_iters
        grid = warp_grid(opts).tolist()
        for name, made in calls.items():
            assert made == [[1.0]] + [grid] * len(rounds), name

    def test_stop_at_first_repeated_map_returns_the_full_run_map(
            self, monkeypatch):
        utts = speakered_utterances(
            [("a1", "s1"), ("a2", "s1"), ("b1", "s2"), ("c1", "s3")])
        opts = VtlnOptions(num_iters=15)
        full_trainings, early_trainings, longer_cycles = 0, 0, 0
        for salt in range(40):
            script = ScriptedSearch(salt)
            monkeypatch.setattr(speaker, "train_ubm", script.train_ubm)
            monkeypatch.setattr(speaker, "_warp_score", script.warp_score)
            expected = previous_map_loop(utts, script.extractor, opts)
            full_trainings += script.trainings
            full_run = script.trainings
            script.trainings = 0
            assert estimate_warps(utts, script.extractor, opts) == expected, salt
            assert script.trainings <= full_run, salt
            early_trainings += script.trainings
            longer_cycles += full_run == opts.num_iters
        # some salts oscillate, so the previous-map rule runs every round
        assert longer_cycles > 0
        assert early_trainings < full_trainings

    @pytest.mark.parametrize("num_iters", [1, 2, 3, 4, 7])
    def test_period_two_cycle_returns_the_map_of_round_num_iters(
            self, monkeypatch, num_iters):
        # s1 alternates 0.95 -> 1.05 -> 0.95 ...: the maps after 1.0 cycle
        utts = speakered_utterances([("a1", "s1")])

        def flip_score(gmm, frames, corpus_mean, corpus_std, opts):
            target = 1.05 if gmm == 0.95 else 0.95
            return -abs(frames[0, 0] - target)

        trainings = []

        def selected_warp(data, opts, seed=0):
            trainings.append(1)
            return float(data[0, 0])

        monkeypatch.setattr(speaker, "train_ubm", selected_warp)
        monkeypatch.setattr(speaker, "_warp_score", flip_score)
        extractor = ScriptedSearch(0).extractor
        opts = VtlnOptions(num_iters=num_iters)
        expected = previous_map_loop(utts, extractor, opts)
        assert len(trainings) == num_iters
        trainings.clear()
        assert estimate_warps(utts, extractor, opts) == expected
        assert len(trainings) == min(num_iters, 3)

    def test_first_pass_names_every_failure_before_training(self, monkeypatch):
        utts = speakered_utterances(
            [("u2", "s2"), ("bad2", "s1"), ("u1", "s1"), ("bad1", "s2")])
        synthetic = SyntheticExtractor({"s1": 1.0, "s2": 1.0})

        def failing_extractor(utt, warps):
            if utt.name.startswith("bad"):
                raise ExtractionError({utt.name: "ValueError: too short"})
            return synthetic(utt, warps)

        def no_training(*args, **kwargs):
            raise AssertionError("UBM trained despite failed utterances")

        monkeypatch.setattr(speaker, "train_ubm", no_training)
        with pytest.raises(ExtractionError) as info:
            estimate_warps(utts, failing_extractor, self.small_opts())
        # every failure, in manifest order
        assert list(info.value.failures) == ["bad2", "bad1"]

    def test_requires_speakers(self):
        utts = Utterances([Utterance("u1", "u1.wav")])
        with pytest.raises(ValueError, match="speaker"):
            estimate_warps(utts, SyntheticExtractor({}), self.small_opts())

    def test_grid_contains_bounds_and_one(self):
        grid = warp_grid(VtlnOptions())
        assert grid[0] == pytest.approx(0.85)
        assert grid[-1] == pytest.approx(1.15)
        assert np.any(np.isclose(grid, 1.0))
        assert len(grid) == 31

    def test_selection_invariant_under_score_shift(self):
        from speechfeatures import select_warp
        rng = np.random.default_rng(5)
        grid = warp_grid(VtlnOptions())
        for _ in range(20):
            scores = rng.standard_normal(len(grid))
            chosen = select_warp(grid, scores)
            assert select_warp(grid, scores + 123.456) == chosen

    def test_selection_tie_break(self):
        from speechfeatures import select_warp
        grid = warp_grid(VtlnOptions())
        flat = np.zeros(len(grid))
        assert select_warp(grid, flat) == pytest.approx(1.0)
        # an exact two-way tie equidistant from 1.0 prefers the smaller warp
        assert select_warp(np.array([0.5, 1.5]), [3.0, 3.0]) == 0.5


class TestSerialization:
    def test_warps_round_trip(self, tmp_path):
        warps = {"alice": 0.97, "bob": 1.08}
        path = tmp_path / "warps.txt"
        save_warps(warps, path)
        assert load_warps(path) == warps
        text = path.read_text()
        assert "alice 0.97" in text

    @pytest.mark.parametrize("line", [
        "carol", "carol 0.9 1.1", "carol x", "alice 1.1", "carol nan",
        "carol inf", "carol 0.0", "carol -0.9"])
    def test_bad_warps_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "warps.txt"
        path.write_text(f"alice 0.97\n\n{line}\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: .*{line}"):
            load_warps(path)

    def test_undecodable_warps_name_file(self, tmp_path):
        path = tmp_path / "warps.txt"
        path.write_bytes(b"alice 0.97\n\xe9ve 1.02\n")
        assert "can't decode" in error_naming_file(path, load_warps, path)

    @pytest.mark.parametrize("speaker", ["", "a b", "a\tb", "a\n", " a"])
    def test_speaker_load_warps_cannot_read_refused(self, tmp_path, speaker):
        path = tmp_path / "warps.txt"
        with pytest.raises(ValueError, match=re.escape(
                f"speaker name must be a non-empty string without "
                f"whitespace, got {speaker!r}")):
            save_warps({"alice": 0.97, speaker: 1.0}, path)
        assert not path.exists()

    @pytest.mark.parametrize("warp", [float("nan"), float("inf"), 0.0, -1.0])
    def test_warp_load_warps_cannot_read_refused(self, tmp_path, warp):
        path = tmp_path / "warps.txt"
        with pytest.raises(ValueError, match=re.escape(
                f"speaker 'bob': warp must be finite and positive, got {warp!r}")):
            save_warps({"alice": 0.97, "bob": warp}, path)
        assert not path.exists()

    def test_numpy_warps_round_trip(self, tmp_path):
        # a numpy scalar is written as the float it holds
        warps = {"alice": np.float64(0.97), "bob": np.float32(1.25), "carol": 1}
        path = tmp_path / "warps.txt"
        save_warps(warps, path)
        assert path.read_text() == "alice 0.97\nbob 1.25\ncarol 1.0\n"
        assert load_warps(path) == warps

    def test_warps_round_trip_any_speaker_without_whitespace(self, tmp_path):
        warps = {"é-1": 0.85, "a/b": 1.15, "#x": 1.0, "0": 0.9999999999999999}
        path = tmp_path / "warps.txt"
        save_warps(warps, path)
        assert load_warps(path) == warps

    def test_extraction_error_pickle_round_trip(self):
        # an ExtractionError pickles with its failures, in order
        error = ExtractionError({"u1": "ValueError: too short", "u2": "x"})
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is ExtractionError
        assert back.failures == error.failures
        assert list(back.failures) == ["u1", "u2"]
        assert str(back) == str(error)

    def test_gmm_round_trip(self, tmp_path):
        data = two_cluster_data(2000)
        gmm = train_ubm(data, UbmOptions(num_gauss=4), seed=0)
        path = tmp_path / "ubm.bin"
        save_gmm(gmm, path)
        back = load_gmm(path)
        assert np.array_equal(back.weights, gmm.weights)
        assert np.array_equal(back.means, gmm.means)
        assert np.array_equal(back.variances, gmm.variances)

    def test_trained_and_loaded_models_are_read_only_alike(self, tmp_path):
        gmm = train_ubm(two_cluster_data(2000), UbmOptions(num_gauss=4), seed=0)
        path = tmp_path / "ubm.bin"
        save_gmm(gmm, path)
        for model in gmm, load_gmm(path):
            for array in model.weights, model.means, model.variances:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.4], "weights must be non-negative and sum to 1"),
        ([1.0], "weights must be a vector of num_gauss entries")],
        ids=["sum", "length"])
    def test_load_gmm_names_the_file_of_a_malformed_model(
            self, tmp_path, weights, message):
        path = tmp_path / "ubm.bin"
        items = {"weights": np.array(weights)[:, None],
                 "means": np.zeros((2, 1)), "variances": np.ones((2, 1))}
        FeaturesCollection({
            name: Features(matrix, np.arange(len(matrix), dtype=float))
            for name, matrix in items.items()}).save(path)
        assert error_naming_file(path, load_gmm, path) == f"{path}: {message}"

    def test_load_gmm_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.bin"
        coll = FeaturesCollection({
            "x": Features(np.zeros((2, 2)), np.arange(2, dtype=float))})
        coll.save(path, format="binary")
        with pytest.raises(ValueError, match="GMM"):
            load_gmm(path)
