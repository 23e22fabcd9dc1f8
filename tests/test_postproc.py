import tracemalloc

import numpy as np
import pytest

from speechfeatures import (CmvnOptions, DeltaOptions, Features,
                            FeaturesCollection, VadOptions, cmvn_apply,
                            default_config, delta, vad)

from conftest import assert_valid_features, config_error


def feats_from(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    times = np.arange(matrix.shape[0]) * 0.01 + 0.0125
    return Features(matrix, times, {"processor": "test"})


def random_collection(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return FeaturesCollection({
        name: feats_from(3.0 * rng.standard_normal(shape) + 1.5)
        for name, shape in shapes.items()})


class TestDelta:
    def test_writes_one_output_without_a_copy(self):
        feats = feats_from(np.random.default_rng(0).standard_normal((100000, 13)))
        tracemalloc.start()
        try:
            out = delta(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.flags.owndata and not out.data.flags.writeable
        # the 3x output, the padded input and one regression term
        assert peak <= 6.5 * feats.data.nbytes

    def test_constant_input_zero_deltas(self):
        feats = feats_from(np.full((30, 4), 3.25))
        out = delta(feats, DeltaOptions(order=2, window=2))
        assert np.allclose(out.data[:, 4:], 0.0)
        assert np.array_equal(out.data[:, :4], feats.data)

    def test_ramp_first_delta_is_one(self):
        ramp = np.arange(30, dtype=np.float64)[:, None]
        out = delta(feats_from(ramp), DeltaOptions(order=1, window=2))
        # interior frames: (1*2 + 2*4) / (2*(1+4)) = 1
        assert np.allclose(out.data[5:-5, 1], 1.0)

    def test_column_count(self):
        feats = feats_from(np.random.default_rng(0).standard_normal((50, 13)))
        out = delta(feats, DeltaOptions(order=2))
        assert out.data.shape == (50, 39)

    def test_times_preserved(self):
        feats = feats_from(np.random.default_rng(0).standard_normal((50, 3)))
        out = delta(feats)
        assert np.array_equal(out.times, feats.times)
        assert_valid_features(out)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            DeltaOptions(order=0)
        with pytest.raises(ValueError):
            DeltaOptions(order=4)

    @pytest.mark.parametrize("edits, message", [
        ({"order": 0}, "order must be in [1, 3], got 0"),
        ({"order": 4}, "order must be in [1, 3], got 4"),
        ({"window": 0}, "window must be >= 1, got 0"),
    ], ids=["order-0", "order-4", "window"])
    def test_config_errors_name_file_block_and_key(self, tmp_path, edits,
                                                   message):
        error = config_error(tmp_path, default_config("mfcc", with_delta=True),
                             "delta", **edits)
        assert message in error


class TestCmvn:
    def test_options_required(self):
        coll = random_collection({"a": (20, 3)})
        with pytest.raises(ValueError, match="^cmvn requires options with a scope$"):
            cmvn_apply(coll)

    def test_utterance_scope_moments(self):
        coll = random_collection({"a": (200, 5), "b": (150, 5)})
        out = cmvn_apply(coll, opts=CmvnOptions(by="utterance"))
        for feats in out.values():
            assert np.all(np.abs(feats.data.mean(axis=0)) < 1e-10)
            assert np.all(np.abs(feats.data.var(axis=0) - 1.0) < 1e-8)

    def test_speaker_scope_pools(self):
        coll = random_collection({"a": (120, 4), "b": (80, 4), "c": (90, 4)})
        speakers = {"a": "s1", "b": "s1", "c": "s2"}
        out = cmvn_apply(coll, speakers, CmvnOptions(by="speaker"))
        pooled = np.vstack([out["a"].data, out["b"].data])
        assert np.all(np.abs(pooled.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(pooled.var(axis=0) - 1.0) < 1e-8)
        # individual utterances of a pooled speaker keep non-zero means
        assert np.any(np.abs(out["a"].data.mean(axis=0)) > 1e-3)
        assert np.all(np.abs(out["c"].data.mean(axis=0)) < 1e-10)

    def test_frame_scope(self):
        coll = random_collection({"a": (40, 8)})
        out = cmvn_apply(coll, opts=CmvnOptions(by="frame"))
        data = out["a"].data
        assert np.all(np.abs(data.mean(axis=1)) < 1e-10)
        assert np.all(np.abs(data.std(axis=1) - 1.0) < 1e-8)
        x = coll["a"].data
        mean, std = x.mean(axis=1, keepdims=True), x.std(axis=1, keepdims=True)
        assert np.array_equal(data, (x - mean) / np.maximum(std, 1e-10))

    def test_idempotent(self):
        coll = random_collection({"a": (100, 3)})
        once = cmvn_apply(coll, opts=CmvnOptions(by="utterance"))
        twice = cmvn_apply(once, opts=CmvnOptions(by="utterance"))
        for name in coll:
            assert np.allclose(once[name].data, twice[name].data, atol=1e-8)

    def test_commutes_with_channel_permutation(self):
        coll = random_collection({"a": (60, 5)})
        perm = np.array([3, 1, 4, 0, 2])
        permuted = FeaturesCollection(
            {"a": feats_from(coll["a"].data[:, perm])})
        out_then_perm = cmvn_apply(coll, opts=CmvnOptions(by="utterance"))["a"].data[:, perm]
        perm_then_out = cmvn_apply(permuted, opts=CmvnOptions(by="utterance"))["a"].data
        assert np.allclose(out_then_perm, perm_then_out, atol=1e-12)

    def test_constant_channel_maps_to_zero(self):
        matrix = np.random.default_rng(0).standard_normal((50, 3))
        matrix[:, 1] = 7.0
        out = cmvn_apply(FeaturesCollection({"a": feats_from(matrix)}),
                         opts=CmvnOptions(by="utterance"))
        assert np.allclose(out["a"].data[:, 1], 0.0)
        assert np.all(np.isfinite(out["a"].data))

    def test_norm_vars_false_keeps_scale(self):
        coll = random_collection({"a": (100, 2)})
        out = cmvn_apply(coll, opts=CmvnOptions(by="utterance", norm_vars=False))
        centered = coll["a"].data - coll["a"].data.mean(axis=0)
        assert np.allclose(out["a"].data, centered)

    def test_utterance_scope_is_one_speaker_per_utterance(self):
        coll = random_collection({"a": (70, 4), "b": (50, 4), "c": (90, 4)})
        for norm_vars in (True, False):
            by_utterance = cmvn_apply(
                coll, opts=CmvnOptions(by="utterance", norm_vars=norm_vars))
            by_speaker = cmvn_apply(
                coll, {name: name for name in coll},
                CmvnOptions(by="speaker", norm_vars=norm_vars))
            assert list(by_utterance) == list(coll)
            for name, feats in coll.items():
                assert np.array_equal(by_utterance[name].data,
                                      by_speaker[name].data)
            data = coll["b"].data
            expected = data - data.mean(axis=0)
            if norm_vars:
                expected = expected / np.maximum(data.std(axis=0), 1e-10)
            assert np.array_equal(by_utterance["b"].data, expected)

    def test_missing_speaker_rejected(self):
        coll = random_collection({"a": (30, 2), "b": (30, 2)})
        with pytest.raises(ValueError, match="no speaker"):
            cmvn_apply(coll, {"a": "s1"}, CmvnOptions(by="speaker"))

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            CmvnOptions(by="corpus")


class TestVad:
    def test_all_equal_energies_unvoiced(self):
        decisions = vad(np.full(50, 3.0), VadOptions())
        assert not decisions.any()

    def test_tone_then_silence(self):
        energy = np.concatenate([np.full(50, 22.0), np.full(50, 2.0)])
        decisions = vad(energy, VadOptions())
        assert decisions[:50].all()
        assert not decisions[50:].any()

    def test_dominated_threshold_all_voiced(self):
        decisions = vad(np.full(20, 5.0),
                        VadOptions(energy_threshold=-1e30, energy_mean_scale=0.0))
        assert decisions.all()

    def test_pure_function(self):
        energy = np.random.default_rng(0).standard_normal(100) + 10
        a = vad(energy)
        b = vad(energy)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vad(np.zeros(0))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            VadOptions(energy_mean_scale=-0.5)
