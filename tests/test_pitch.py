import re
import tracemalloc

import numpy as np
import pytest

from speechfeatures import (Audio, Features, FrameOptions, PitchOptions,
                            PostPitchOptions, default_config, estimate_pitch,
                            nccf_to_pov, num_frames, postprocess_pitch)
from speechfeatures import pitch

from conftest import (assert_valid_features, config_error, make_noise,
                      make_tone)


def two_tone_audio(f1=220.0, f2=330.0, rate=16000):
    t = np.arange(rate) / rate
    sig = np.concatenate([0.5 * np.sin(2 * np.pi * f1 * t),
                          0.5 * np.sin(2 * np.pi * f2 * t)])
    return Audio(sig, rate)


class TestEstimatePitch:
    def test_pure_tone_within_five_percent(self):
        raw = estimate_pitch(make_tone(220, duration=2.0))
        nccf, f0 = raw.data[:, 0], raw.data[:, 1]
        assert np.all(np.abs(f0 - 220) <= 0.05 * 220)
        assert np.all(nccf > 0.9)
        assert_valid_features(raw)

    def test_silence_stays_in_range(self):
        raw = estimate_pitch(make_noise(duration=1.0, amplitude=0.1 / 32768))
        nccf, f0 = raw.data[:, 0], raw.data[:, 1]
        assert np.all(f0 >= 50.0) and np.all(f0 <= 400.0)
        assert np.median(np.abs(nccf)) < 0.3

    def test_two_tone_medians(self):
        raw = estimate_pitch(two_tone_audio())
        f0 = raw.data[:, 1]
        half = len(f0) // 2
        assert abs(np.median(f0[:half]) - 220) <= 0.05 * 220
        assert abs(np.median(f0[half:]) - 330) <= 0.05 * 330

    @pytest.mark.parametrize("gain", [0.1, 10.0])
    def test_amplitude_invariant_path(self, gain):
        base = estimate_pitch(make_tone(220, duration=2.0, amplitude=0.05))
        scaled = estimate_pitch(
            make_tone(220, duration=2.0, amplitude=0.05 * gain))
        assert np.array_equal(base.data[:, 1], scaled.data[:, 1])

    @pytest.mark.parametrize("nsamples", [16000, 16040, 16159, 7993])
    def test_output_length_matches_framing(self, nsamples):
        rng = np.random.default_rng(0)
        audio = Audio(0.1 * rng.standard_normal(nsamples), 16000)
        raw = estimate_pitch(audio)
        expected = num_frames(nsamples, FrameOptions())
        assert raw.data.shape[0] == expected

    def test_times_match_spectral_frames(self):
        from speechfeatures import mfcc
        audio = make_tone(220)
        raw = estimate_pitch(audio)
        ceps = mfcc(audio)
        assert np.array_equal(raw.times, ceps.times)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            estimate_pitch(Audio(np.zeros(100), 16000))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resample"):
            estimate_pitch(make_tone(220, rate=8000))

    def test_lag_beyond_frame_rejected(self):
        with pytest.raises(ValueError, match="frame length"):
            estimate_pitch(make_tone(220), PitchOptions(min_f0=20.0))

    def test_unsnipped_framing_rejected(self):
        with pytest.raises(ValueError, match="snip_edges"):
            estimate_pitch(make_tone(220), framing=FrameOptions(snip_edges=False))

    def test_shift_under_one_pitch_sample_rejected(self):
        # 2 samples at 16 kHz, but 0.4 at the 4 kHz pitch rate
        framing = FrameOptions(frame_shift=0.0001)
        with pytest.raises(ValueError, match="resample_freq"):
            PitchOptions().check_framing(framing)
        with pytest.raises(ValueError, match="frame_shift 0.0001 s"):
            estimate_pitch(make_tone(220, duration=0.1), framing=framing)
        PitchOptions(resample_freq=10000.0).check_framing(framing)

    def test_frames_follow_the_feature_framing(self):
        from speechfeatures import MfccOptions, mfcc
        audio = make_tone(220, rate=8000)
        opts = MfccOptions(sample_rate=8000, frame_shift=0.02, frame_length=0.03)
        raw = estimate_pitch(audio, framing=opts)
        assert np.array_equal(raw.times, mfcc(audio, opts).times)
        assert raw.properties["pitch"]["frame_shift"] == 0.02

    def test_the_caller_framing_is_used_as_is(self, monkeypatch):
        from speechfeatures import MfccOptions
        framing = MfccOptions()
        built = []
        check = FrameOptions.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(FrameOptions, "__post_init__", counting)
        raw = estimate_pitch(make_tone(220), framing=framing)
        assert built == []
        assert {key: raw.properties["pitch"][key] for key in
                ("sample_rate", "frame_shift", "frame_length")} == {
            "sample_rate": 16000, "frame_shift": 0.01, "frame_length": 0.025}

    @pytest.mark.parametrize("kwargs, message", [
        ({"frame_shift": 0.03}, "frame_shift <= frame_length"),
        ({"frame_shift": 0.0}, "frame_shift must be > 0, got 0.0"),
        ({"sample_rate": 0}, "sample_rate"),
    ])
    def test_framing_rejected_at_construction(self, kwargs, message):
        # pitch takes its framing from the FrameOptions of the features
        with pytest.raises(ValueError, match=message):
            FrameOptions(**kwargs)

    def test_fractional_resample_freq_rejected(self):
        with pytest.raises(ValueError, match="resample_freq .*4000.5"):
            PitchOptions(resample_freq=4000.5)

    @pytest.mark.parametrize("kwargs, key", [
        ({"penalty_factor": -1.0}, "penalty_factor"),
        ({"penalty_factor": np.inf}, "penalty_factor"),
        ({"penalty_factor": np.nan}, "penalty_factor"),
        ({"nccf_ballast": -5.0}, "nccf_ballast"),
        ({"nccf_ballast": np.inf}, "nccf_ballast"),
        ({"soft_min_f0": -1.0}, "soft_min_f0"),
        ({"soft_min_f0": 60.0}, "soft_min_f0"),
        ({"soft_min_f0": np.nan}, "soft_min_f0"),
    ], ids=["negative-penalty", "infinite-penalty", "nan-penalty",
            "negative-ballast", "infinite-ballast", "negative-soft-min",
            "soft-min-above-min-f0", "nan-soft-min"])
    def test_meaningless_costs_rejected(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            PitchOptions(**kwargs)

    @pytest.mark.parametrize("block, edits, message", [
        ("pitch", {"min_f0": 0.0}, "min_f0 must be > 0, got 0.0"),
        ("pitch", {"min_f0": 500.0}, "need min_f0 < max_f0, got 500.0 and 400.0"),
        ("pitch", {"lowpass_cutoff": 300.0},
         "need max_f0 < lowpass_cutoff <= resample_freq/2, got 400.0, 300.0"),
        ("pitch", {"lowpass_cutoff": 2500.0},
         "need max_f0 < lowpass_cutoff <= resample_freq/2, got 400.0, 2500.0"),
        ("pitch", {"delta_pitch": 0.0}, "delta_pitch must be > 0, got 0.0"),
        ("pitch", {"delta_pitch": 0.0001},
         "the lag grid has 20797 states, more than the maximum 4096"),
        ("pitch_postprocessing", {"delta_window": 0},
         "delta_window must be >= 1, got 0"),
        ("pitch_postprocessing", {"delta_pitch_noise_stddev": -0.1},
         "delta_pitch_noise_stddev must be >= 0"),
        ("pitch", {"delta_pitch": 1e-320},
         "the lag grid has inf states, more than the maximum 4096 (min_f0 50.0, "
         "max_f0 400.0, delta_pitch 1e-320)"),
    ], ids=["min-f0-zero", "min-f0-above-max", "cutoff-under-max-f0",
            "cutoff-above-half-rate", "delta-pitch", "lag-grid-size",
            "delta-window", "noise-stddev", "delta-pitch-1e-320"])
    def test_config_errors_name_file_block_and_key(self, tmp_path, block,
                                                   edits, message):
        error = config_error(tmp_path, default_config("mfcc", with_pitch=True),
                             block, **edits)
        assert message in error

    def test_cost_range_edges_accepted(self):
        PitchOptions(penalty_factor=0.0, nccf_ballast=0.0, soft_min_f0=0.0)
        PitchOptions(soft_min_f0=50.0)

    def test_f0_bounds_invariant(self):
        opts = PitchOptions()
        for seed in range(3):
            audio = make_noise(duration=0.5, amplitude=0.3, seed=seed)
            f0 = estimate_pitch(audio, opts).data[:, 1]
            assert np.all(f0 >= opts.min_f0) and np.all(f0 <= opts.max_f0)

    def test_deterministic(self):
        audio = make_noise(duration=0.5, amplitude=0.3, seed=7)
        a = estimate_pitch(audio)
        b = estimate_pitch(audio)
        assert np.array_equal(a.data, b.data)


def columnwise_viterbi(local, transition):
    """Reference Viterbi: each state's best predecessor down a column."""
    m, n = local.shape
    back = np.zeros((m, n), dtype=np.int64)
    forward = local[0]
    for f in range(1, m):
        total = forward[:, None] + transition
        back[f] = np.argmin(total, axis=0)
        forward = local[f] + np.min(total, axis=0)
    path = np.empty(m, dtype=np.int64)
    path[-1] = int(np.argmin(forward))
    for f in range(m - 1, 0, -1):
        path[f - 1] = back[f, path[f]]
    return path


class TestViterbiExact:
    """The row-wise Viterbi picks the column-wise path, ties included."""

    @pytest.mark.parametrize("audio", [
        make_tone(220, duration=1.0),
        Audio(make_tone(180, duration=1.0).samples
              + make_noise(duration=1.0, amplitude=0.3, seed=3).samples, 16000),
        Audio(np.full(8000, 0.25), 16000),
        Audio(np.zeros(8000), 16000),
    ], ids=["clean", "noisy", "constant", "silent"])
    def test_estimate_pitch_path(self, audio, monkeypatch):
        calls = []
        viterbi = pitch._viterbi

        def recording(local, transition):
            path = viterbi(local, transition)
            calls.append((local, transition, path))
            return path

        monkeypatch.setattr(pitch, "_viterbi", recording)
        estimate_pitch(audio)
        (local, transition, path), = calls
        assert np.array_equal(transition, transition.T)
        assert np.array_equal(path, columnwise_viterbi(local, transition))

    def test_integer_costs_with_many_ties(self):
        rng = np.random.default_rng(0)
        states = np.arange(12)
        transition = np.abs(states[:, None] - states[None, :]).astype(np.float64)
        for _ in range(20):
            local = rng.integers(0, 3, (15, 12)).astype(np.float64)
            assert np.array_equal(pitch._viterbi(local, transition),
                                  columnwise_viterbi(local, transition))


INTERPOLATION_OPTIONS = [
    PitchOptions(),
    PitchOptions(min_f0=60.0, max_f0=500.0, delta_pitch=0.01),
    PitchOptions(lowpass_cutoff=2000.0, resample_freq=8000.0),
]
INTERPOLATION_IDS = ["default", "narrow", "8k"]


def recorded_viterbi_inputs(audio, opts, monkeypatch):
    """The (local, transition) pair estimate_pitch hands to the Viterbi."""
    calls = []
    viterbi = pitch._viterbi

    def recording(local, transition):
        calls.append((local, transition))
        return viterbi(local, transition)

    monkeypatch.setattr(pitch, "_viterbi", recording)
    estimate_pitch(audio, opts)
    (inputs,) = calls
    return inputs


def squared_log_lag_transition(lags, penalty=0.1):
    log_lags = np.log(lags)
    return penalty * (log_lags[None, :] - log_lags[:, None]) ** 2


class TestMonotoneGuard:
    """The check that lets the Viterbi sweep bounded column ranges."""

    @pytest.mark.parametrize("opts", INTERPOLATION_OPTIONS,
                             ids=INTERPOLATION_IDS)
    def test_accepts_the_tracker_costs(self, opts, monkeypatch):
        local, transition = recorded_viterbi_inputs(make_tone(220), opts,
                                                    monkeypatch)
        assert pitch._monotone_argmins(local, transition)

    def test_refuses_zero_penalty(self, monkeypatch):
        local, transition = recorded_viterbi_inputs(
            make_tone(220), PitchOptions(penalty_factor=0.0), monkeypatch)
        assert not transition.any()
        assert not pitch._monotone_argmins(local, transition)

    def test_refuses_repeated_lags(self):
        lags = pitch._lag_grid(PitchOptions())
        lags = np.insert(lags, 100, lags[100])
        local = np.random.default_rng(0).random((5, len(lags)))
        assert not pitch._monotone_argmins(
            local, squared_log_lag_transition(lags))

    def test_refuses_absolute_difference(self):
        states = np.arange(100)
        transition = np.abs(states[:, None] - states[None, :]).astype(np.float64)
        local = np.random.default_rng(0).random((5, 100))
        assert not pitch._monotone_argmins(local, transition)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_costs(self, bad):
        lags = pitch._lag_grid(PitchOptions())
        local = np.random.default_rng(0).random((5, len(lags)))
        local[3, 7] = bad
        assert not pitch._monotone_argmins(
            local, squared_log_lag_transition(lags))

    def test_refuses_costs_beyond_the_margin(self):
        # the same transition passes under costs of order one
        transition = squared_log_lag_transition(
            pitch._lag_grid(PitchOptions()))
        local = np.ones((5, transition.shape[0]))
        assert pitch._monotone_argmins(local, transition)
        assert not pitch._monotone_argmins(1e12 * local, transition)

    def test_full_rows_give_the_same_path(self, monkeypatch):
        audio = Audio(make_tone(180, duration=1.0).samples
                      + make_noise(duration=1.0, amplitude=0.3, seed=3).samples,
                      16000)
        local, transition = recorded_viterbi_inputs(audio, None, monkeypatch)
        bounded = pitch._viterbi(local, transition)
        monkeypatch.setattr(pitch, "_monotone_argmins", lambda *args: False)
        assert np.array_equal(pitch._viterbi(local, transition), bounded)


def random_viterbi_cases(rng):
    """(local, transition) pairs around the block size, ties included."""
    block = pitch._VITERBI_BLOCK
    for n in (1, 2, block - 1, block, block + 1, 2 * block, 3 * block + 5):
        lags = np.exp(np.arange(n) * np.log1p(rng.uniform(0.002, 0.05))) / 400
        yield rng.random((int(rng.integers(1, 30)), n)), \
            squared_log_lag_transition(lags)
        states = np.arange(n, dtype=np.float64)
        ties = rng.integers(0, 3, (int(rng.integers(2, 30)), n))
        yield ties.astype(np.float64), (states[:, None] - states[None, :]) ** 2
        yield ties.astype(np.float64), np.abs(states[:, None] - states[None, :])
    for opts in INTERPOLATION_OPTIONS + [PitchOptions(delta_pitch=0.05),
                                         PitchOptions(penalty_factor=2.0)]:
        lags = pitch._lag_grid(opts)
        transition = squared_log_lag_transition(lags, opts.penalty_factor)
        m = int(rng.integers(1, 25))
        yield rng.integers(0, 2, (m, len(lags))).astype(np.float64), transition
        yield 1e6 * rng.standard_normal((m, len(lags))), transition
        yield 1.0 - rng.random((m, len(lags))) * (1.0 - 10.0 * lags), \
            transition


class TestViterbiRandomized:
    """The block sweep picks the column-wise path on random costs."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_columnwise(self, seed):
        cases = list(random_viterbi_cases(np.random.default_rng(seed)))
        for local, transition in cases:
            assert np.array_equal(pitch._viterbi(local, transition),
                                  columnwise_viterbi(local, transition))
        # both the bounded and the full-row sweep are exercised
        bounded = sum(pitch._monotone_argmins(*case) for case in cases)
        assert 20 <= bounded < len(cases)

    def test_single_frame_and_single_state(self):
        assert pitch._viterbi(np.array([[3.0, 1.0, 1.0]]), np.zeros((3, 3))) \
            .tolist() == [1]
        assert pitch._viterbi(np.zeros((4, 1)), np.zeros((1, 1))) \
            .tolist() == [0, 0, 0, 0]


class TestLagGrid:
    @pytest.mark.parametrize("opts", [
        PitchOptions(), PitchOptions(delta_pitch=0.05),
        PitchOptions(min_f0=60.0, max_f0=500.0, delta_pitch=0.01),
        PitchOptions(min_f0=20.0, max_f0=990.0, delta_pitch=0.00097),
        PitchOptions(delta_pitch=0.000508), PitchOptions(delta_pitch=1.0),
        PitchOptions(min_f0=200.0, max_f0=201.0, delta_pitch=0.5),
    ])
    def test_count_is_the_grid_length(self, opts):
        assert pitch._lag_count(opts) == len(pitch._lag_grid(opts))

    def test_more_states_than_the_cap_rejected(self):
        with pytest.raises(ValueError, match="^" + re.escape(
                "the lag grid has 20797 states, more than the maximum 4096 "
                "(min_f0 50.0, max_f0 400.0, delta_pitch 0.0001)") + "$"):
            PitchOptions(delta_pitch=1e-4)

    def test_the_cap_itself_accepted(self):
        opts = PitchOptions(delta_pitch=0.000508)
        assert len(pitch._lag_grid(opts)) == pitch.MAX_LAG_STATES
        with pytest.raises(ValueError, match="has 4098 states"):
            PitchOptions(delta_pitch=0.0005077)


class TestWorkingMemory:
    """Bytes the tracker holds per frame and lag state."""

    def test_estimate_pitch_peak_per_frame_and_state(self):
        audio = make_tone(150, duration=30.0, amplitude=0.3)
        cells = (num_frames(audio.nsamples, FrameOptions())
                 * len(pitch._lag_grid(PitchOptions())))
        tracemalloc.start()
        try:
            estimate_pitch(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the local costs and the int16 back pointers (10 bytes), plus the
        # NCCF windows at integer lags
        assert peak <= 20 * cells

    def test_frame_nccf_holds_the_windows_about_three_times(self, monkeypatch):
        calls = []
        frame_nccf = pitch._frame_nccf

        def recording(*args):
            calls.append(args)
            return frame_nccf(*args)

        monkeypatch.setattr(pitch, "_frame_nccf", recording)
        estimate_pitch(make_tone(150, duration=30.0, amplitude=0.3))
        (signal, frame_starts, window_size, int_lags, ballast), = calls
        windows = 8 * len(frame_starts) * (window_size + int(int_lags[-1]))
        tracemalloc.start()
        try:
            frame_nccf(signal, frame_starts, window_size, int_lags, ballast)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the windows, their cumulative energies and the lag energies (2.87
        # times the windows); with the windows' squares, their cumulative
        # sum and a padded copy of it alive together it read 4.44
        assert peak <= 3.25 * windows

    def test_viterbi_back_pointers_are_int16(self):
        lags = pitch._lag_grid(PitchOptions())
        local = np.random.default_rng(0).random((3000, len(lags)))
        transition = squared_log_lag_transition(lags)
        tracemalloc.start()
        try:
            pitch._viterbi(local, transition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two bytes per frame and state, plus block-sized buffers
        assert 2 * local.size < peak < 3 * local.size


def full_grid_interpolation_matrix(grid_samples, int_lags, width):
    """Reference lag interpolation: the kernel over the whole grid x lags."""
    delta = grid_samples[:, None] - int_lags[None, :]
    weights = np.where(
        np.abs(delta) <= width,
        np.sinc(delta) * (0.5 + 0.5 * np.cos(np.pi * delta / width)),
        0.0)
    return weights / weights.sum(axis=1, keepdims=True)


class TestInterpolationExact:
    """The lag interpolation takes the resampler's kernel, bit for bit."""

    @pytest.mark.parametrize("opts", INTERPOLATION_OPTIONS,
                             ids=INTERPOLATION_IDS)
    def test_matches_full_grid_formula(self, opts, monkeypatch):
        calls = []
        interpolation = pitch._interpolation_matrix

        def recording(grid_samples, int_lags):
            weights = interpolation(grid_samples, int_lags)
            calls.append((grid_samples, int_lags, weights))
            return weights

        monkeypatch.setattr(pitch, "_interpolation_matrix", recording)
        estimate_pitch(make_tone(220, duration=0.2), opts)
        (grid_samples, int_lags, weights), = calls
        assert np.array_equal(weights, full_grid_interpolation_matrix(
            grid_samples, int_lags, pitch._INTERP_WIDTH))


class TestNccfToPov:
    def test_perfect_correlation(self):
        # logistic argument at |c|=1 is about 9.2
        assert nccf_to_pov(1.0) == pytest.approx(1.0 / (1.0 + np.exp(-9.2)),
                                                 abs=1e-3)
        assert nccf_to_pov(1.0) > 0.999

    def test_zero_correlation(self):
        assert nccf_to_pov(0.0) == pytest.approx(7.5e-4, rel=0.01)

    def test_monotone_in_magnitude(self):
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        values = nccf_to_pov(grid)
        assert np.all(np.diff(values) >= 0)
        assert nccf_to_pov(0.9) > nccf_to_pov(0.5) > nccf_to_pov(0.1)

    def test_symmetric_and_clamped(self):
        assert nccf_to_pov(-0.7) == nccf_to_pov(0.7)
        assert nccf_to_pov(1.5) == nccf_to_pov(1.0)

    def test_output_is_probability(self):
        values = nccf_to_pov(np.linspace(-1, 1, 101))
        assert np.all((values > 0) & (values < 1))


def constant_raw_pitch(m=200, f0=220.0, nccf=0.95):
    from speechfeatures import Features
    times = np.arange(m) * 0.01 + 0.0125
    data = np.column_stack([np.full(m, nccf), np.full(m, f0)])
    return Features(data, times, {"processor": "pitch"})


class TestPostprocessPitch:
    @pytest.mark.parametrize("f0", [0.0, -100.0])
    def test_non_positive_f0_rejected(self, f0):
        raw = constant_raw_pitch()
        data = raw.data.copy()
        data[17, 1] = f0
        with pytest.raises(ValueError,
                           match="^raw pitch f0 values must be positive$"):
            postprocess_pitch(Features(data, raw.times))

    def test_three_columns(self):
        out = postprocess_pitch(constant_raw_pitch())
        assert out.data.shape == (200, 3)
        assert_valid_features(out)

    def test_constant_f0_zero_noise_columns_vanish(self):
        opts = PostPitchOptions(delta_pitch_noise_stddev=0.0)
        out = postprocess_pitch(constant_raw_pitch(), opts)
        assert np.allclose(out.data[:, 1], 0.0, atol=1e-12)
        assert np.allclose(out.data[:, 2], 0.0, atol=1e-12)

    def test_pov_column_matches_formula(self):
        opts = PostPitchOptions(delta_pitch_noise_stddev=0.0)
        raw = constant_raw_pitch(nccf=0.8)
        out = postprocess_pitch(raw, opts)
        pov = nccf_to_pov(0.8)
        expected = 2.0 * (2.0 * (1.0001 - pov) ** 0.15 - 1.0)
        assert np.allclose(out.data[:, 0], expected)

    def test_delay_shifts_later(self):
        opts = PostPitchOptions(delta_pitch_noise_stddev=0.0, delay=2)
        raw = estimate_pitch(two_tone_audio())
        plain = postprocess_pitch(raw, PostPitchOptions(delta_pitch_noise_stddev=0.0))
        delayed = postprocess_pitch(raw, opts)
        assert np.array_equal(delayed.data[2:], plain.data[:-2])
        assert np.array_equal(delayed.data[0], plain.data[0])

    def test_zero_noise_deterministic(self):
        opts = PostPitchOptions(delta_pitch_noise_stddev=0.0)
        raw = constant_raw_pitch()
        a = postprocess_pitch(raw, opts, seed=1)
        b = postprocess_pitch(raw, opts, seed=2)
        assert np.array_equal(a.data, b.data)

    def test_noise_seeded(self):
        raw = constant_raw_pitch()
        a = postprocess_pitch(raw, seed=1)
        b = postprocess_pitch(raw, seed=1)
        c = postprocess_pitch(raw, seed=2)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_normalization_tracks_mean(self):
        raw = estimate_pitch(make_tone(220, duration=2.0))
        opts = PostPitchOptions(delta_pitch_noise_stddev=0.0)
        out = postprocess_pitch(raw, opts)
        # constant pitch: normalized log pitch vanishes
        assert np.allclose(out.data[:, 1], 0.0, atol=1e-6)

    def test_wrong_channel_count(self):
        from speechfeatures import Features
        bad = Features(np.ones((5, 3)), np.arange(5, dtype=float))
        with pytest.raises(ValueError, match="2 channels"):
            postprocess_pitch(bad)


def reference_frame_nccf(signal, frame_starts, window_size, int_lags, ballast):
    """_frame_nccf with the cumulative energies of a padded cumsum."""
    span = window_size + int(int_lags[-1])
    padded = np.pad(signal, (0, max(0, frame_starts[-1] + span - len(signal))))
    windows = padded[frame_starts[:, None] + np.arange(span)[None, :]]
    squares = np.concatenate(
        [np.zeros((windows.shape[0], 1)), np.cumsum(windows ** 2, axis=1)], axis=1)
    e1 = squares[:, window_size] - squares[:, 0]
    e2 = squares[:, int_lags + window_size] - squares[:, int_lags]
    inner = np.stack([np.einsum("mt,mt->m", windows[:, :window_size],
                                windows[:, lag:lag + window_size])
                      for lag in int_lags], axis=1)

    def normalize(extra):
        denom = np.sqrt((e1[:, None] + extra) * (e2 + extra))
        out = np.zeros_like(inner)
        np.divide(inner, denom, out=out, where=denom > 0)
        return out

    return normalize(0.0), normalize(ballast)


@pytest.mark.parametrize("nsamples, step", [(4000, 40), (3999, 37), (250, 50)],
                         ids=["even", "ragged", "past-the-end"])
def test_frame_nccf_matches_the_padded_cumsum_bit_for_bit(nsamples, step):
    signal = np.random.default_rng(nsamples).standard_normal(nsamples)
    # a silent stretch: zero energies take the zero branch of the division
    signal[1000:1400] = 0.0
    frame_starts = np.arange(0, nsamples - 60, step)
    int_lags = np.arange(12, 81)
    got = pitch._frame_nccf(signal, frame_starts, 100, int_lags, 1e-3)
    expected = reference_frame_nccf(signal, frame_starts, 100, int_lags, 1e-3)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
