import numpy as np
import pytest

from speechfeatures import (Audio, FrameOptions, default_config, extract_frames,
                            num_frames, window_function)
from speechfeatures.framing import TINY, WINDOW_TYPES, frame_times

from conftest import config_error, make_tone


def enumerate_frames_snip(num_samples, size, shift):
    """Oracle: count frame start positions 0, shift, ... fully inside."""
    count = 0
    start = 0
    while start + size <= num_samples:
        count += 1
        start += shift
    return count


def enumerate_frames_centered(num_samples, shift):
    """Oracle: count frames whose center shift*i + shift/2 is in the signal."""
    count = 0
    i = 0
    while i * shift + shift / 2 <= num_samples:
        count += 1
        i += 1
    return count


def frame_indices(m, num_samples, opts):
    """Reference sample index matrix [m, window_size], mirrored in a loop."""
    size, shift = opts.window_size, opts.window_shift
    starts = np.arange(m) * shift
    if not opts.snip_edges:
        starts = starts + shift // 2 - size // 2
    idx = starts[:, None] + np.arange(size)[None, :]
    # reflect around the edges until all indices are in range
    while idx.min() < 0 or idx.max() >= num_samples:
        idx = np.where(idx < 0, -idx - 1, idx)
        idx = np.where(idx >= num_samples, 2 * num_samples - 1 - idx, idx)
    return idx


def indexed_extract_frames(audio, opts, seed=0):
    """Reference front end: indexed frames, a new array at every step."""
    m = num_frames(audio.nsamples, opts)
    size = opts.window_size
    if m == 0:
        return (np.zeros((0, size)), np.zeros(0), np.zeros(0))
    frames = audio.samples[frame_indices(m, audio.nsamples, opts)] * 32768.0
    if opts.dither > 0:
        rng = np.random.default_rng(seed)
        frames = frames + opts.dither * rng.standard_normal(frames.shape)
    if opts.remove_dc_offset:
        frames = frames - frames.mean(axis=1, keepdims=True)
    raw_energy = np.log(np.maximum((frames ** 2).sum(axis=1), TINY))
    if opts.preemph_coeff != 0:
        emphasized = np.empty_like(frames)
        emphasized[:, 0] = frames[:, 0] - opts.preemph_coeff * frames[:, 0]
        emphasized[:, 1:] = frames[:, 1:] - opts.preemph_coeff * frames[:, :-1]
        frames = emphasized
    frames = frames * window_function(opts.window_type, size)[None, :]
    return frames, raw_energy, frame_times(m, opts)


def assert_same_bytes(audio, opts, seed):
    got = extract_frames(audio, opts, seed=seed)
    expected = indexed_extract_frames(audio, opts, seed=seed)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFramingOracle:
    @pytest.mark.parametrize("rate, length, shift", [
        (16000, 0.025, 0.01), (8000, 0.02, 0.02), (22050, 0.025, 0.01),
        (100, 0.07, 0.03)])
    @pytest.mark.parametrize("snip", [True, False])
    def test_option_grid_is_bit_identical(self, rate, length, shift, snip):
        rng = np.random.default_rng(rate)
        size = int(round(length * rate))
        for nsamples in (1, 3, size - 1, size, size + 1, 5 * size + 3, rate):
            audio = Audio(rng.uniform(-0.5, 0.5, nsamples), rate)
            for dither in (0.0, 0.1, 1.0):
                for dc in (True, False):
                    for preemph in (0.0, 0.97, 1.0):
                        for window in WINDOW_TYPES:
                            opts = FrameOptions(
                                sample_rate=rate, frame_shift=shift,
                                frame_length=length, dither=dither,
                                preemph_coeff=preemph, remove_dc_offset=dc,
                                window_type=window, snip_edges=snip)
                            assert_same_bytes(audio, opts, seed=nsamples)

    @pytest.mark.parametrize("snip", [True, False])
    def test_every_length_is_bit_identical(self, snip):
        # frames of 7 samples every 3 samples: the shortest signals need
        # several mirror passes at both edges
        opts = FrameOptions(sample_rate=100, frame_shift=0.03, frame_length=0.07,
                            snip_edges=snip)
        rng = np.random.default_rng(1)
        for nsamples in range(1, 301):
            assert_same_bytes(Audio(rng.standard_normal(nsamples), 100), opts,
                              seed=nsamples)

    def test_centered_frames_mirror_the_edges(self):
        opts = FrameOptions(sample_rate=100, frame_shift=0.03, frame_length=0.07,
                            dither=0.0, preemph_coeff=0.0,
                            remove_dc_offset=False, window_type="rectangular",
                            snip_edges=False)
        frames, _, _ = extract_frames(Audio(np.array([1.0, 2.0]) / 32768, 100), opts)
        # one frame starting 2 samples before the signal: 2 1 | 1 2 | 2 1 1
        assert frames.tolist() == [[2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]]


class TestNumFrames:
    def test_one_second_snip(self):
        assert num_frames(16000, FrameOptions()) == 98

    def test_too_short(self):
        assert num_frames(399, FrameOptions()) == 0

    def test_one_second_no_snip(self):
        assert num_frames(16000, FrameOptions(snip_edges=False)) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            num_frames(-1, FrameOptions())

    @pytest.mark.parametrize("snip", [True, False])
    def test_exhaustive_small_instances(self, snip):
        opts = FrameOptions(snip_edges=snip)
        size, shift = opts.window_size, opts.window_shift
        for n in range(0, 2001):
            expected = (enumerate_frames_snip(n, size, shift) if snip
                        else enumerate_frames_centered(n, shift))
            assert num_frames(n, opts) == expected, f"n={n}"


class TestWindowFunction:
    def test_povey_endpoints(self):
        win = window_function("povey", 401)
        assert win[0] == 0.0
        assert win[200] == pytest.approx(1.0, abs=1e-12)

    def test_rectangular(self):
        assert np.array_equal(window_function("rectangular", 64), np.ones(64))

    def test_hanning(self):
        win = window_function("hanning", 101)
        assert win[0] == 0.0
        assert win[50] == pytest.approx(1.0)

    def test_hamming(self):
        win = window_function("hamming", 101)
        assert win[0] == pytest.approx(0.08)
        assert win[50] == pytest.approx(1.0)

    def test_blackman(self):
        win = window_function("blackman", 101)
        assert win[50] == pytest.approx(1.0)
        assert abs(win[0]) < 1e-12

    def test_povey_is_hanning_pow(self):
        hann = window_function("hanning", 101)
        povey = window_function("povey", 101)
        assert np.allclose(povey, hann ** 0.85)

    def test_too_short(self):
        with pytest.raises(ValueError):
            window_function("povey", 1)

    def test_unknown(self):
        with pytest.raises(ValueError):
            FrameOptions(window_type="kaiser")

    def test_unknown_name_named(self):
        with pytest.raises(ValueError, match="unknown window_type 'bogus'"):
            window_function("bogus", 8)


class TestExtractFrames:
    def test_constant_signal_zeroed_by_dc_removal(self):
        audio = Audio(np.full(16000, 0.25), 16000)
        opts = FrameOptions(dither=0.0)
        frames, _, _ = extract_frames(audio, opts)
        assert np.allclose(frames, 0.0)

    def test_identity_path(self):
        audio = make_tone(100)
        opts = FrameOptions(dither=0.0, preemph_coeff=0.0,
                            remove_dc_offset=False, window_type="rectangular")
        frames, _, _ = extract_frames(audio, opts)
        for i in (0, 7, 97):
            start = i * opts.window_shift
            expected = audio.samples[start:start + opts.window_size] * 32768.0
            assert np.array_equal(frames[i], expected)

    def test_same_seed_bit_identical(self):
        audio = make_tone(220)
        opts = FrameOptions()
        a, ea, _ = extract_frames(audio, opts, seed=42)
        b, eb, _ = extract_frames(audio, opts, seed=42)
        assert np.array_equal(a, b)
        assert np.array_equal(ea, eb)

    def test_different_seed_differs(self):
        audio = make_tone(220)
        a, _, _ = extract_frames(audio, FrameOptions(), seed=1)
        b, _, _ = extract_frames(audio, FrameOptions(), seed=2)
        assert not np.array_equal(a, b)

    def test_zero_dither_ignores_seed(self):
        audio = make_tone(220)
        opts = FrameOptions(dither=0.0)
        a, _, _ = extract_frames(audio, opts, seed=1)
        b, _, _ = extract_frames(audio, opts, seed=2)
        assert np.array_equal(a, b)

    def test_energy_scales_quadratically(self):
        samples = make_tone(220).samples
        opts = FrameOptions(dither=0.0)
        _, energy_full, _ = extract_frames(Audio(samples, 16000), opts)
        _, energy_half, _ = extract_frames(Audio(0.5 * samples, 16000), opts)
        assert np.allclose(energy_half, energy_full + 2 * np.log(0.5), atol=1e-9)

    def test_sample_rate_mismatch(self):
        with pytest.raises(ValueError, match="resample"):
            extract_frames(make_tone(220, rate=8000), FrameOptions())

    def test_times_are_frame_centers(self):
        audio = make_tone(220)
        _, _, times = extract_frames(audio, FrameOptions(dither=0.0))
        assert times[0] == pytest.approx(0.0125)
        assert times[1] == pytest.approx(0.0225)
        assert len(times) == 98

    def test_no_snip_covers_whole_signal(self):
        audio = make_tone(220, duration=1.0)
        opts = FrameOptions(dither=0.0, snip_edges=False)
        frames, _, times = extract_frames(audio, opts)
        assert frames.shape == (100, 400)
        assert times[0] == pytest.approx(0.005)

    def test_frame_starts_match_num_frames(self):
        # frame i covers [i*shift, i*shift + size) for every valid length
        opts = FrameOptions(sample_rate=100, frame_shift=0.03, frame_length=0.07,
                            dither=0.0, preemph_coeff=0.0,
                            remove_dc_offset=False, window_type="rectangular")
        size, shift = opts.window_size, opts.window_shift
        rng = np.random.default_rng(0)
        for n in range(size, 300):
            samples = rng.standard_normal(n)
            frames, _, _ = extract_frames(Audio(samples, 100), opts)
            assert frames.shape[0] == num_frames(n, opts)
            for i in range(frames.shape[0]):
                expected = samples[i * shift:i * shift + size] * 32768.0
                assert np.array_equal(frames[i], expected)


class TestFrameOptions:
    def test_shift_must_not_exceed_length(self):
        with pytest.raises(ValueError):
            FrameOptions(frame_shift=0.05, frame_length=0.025)

    @pytest.mark.parametrize("rate, shift", [(16000, 0.00003), (100, 0.004)])
    def test_shift_under_one_sample_rejected(self, rate, shift):
        with pytest.raises(ValueError, match="frame_shift must cover at least 1 sample"):
            FrameOptions(sample_rate=rate, frame_shift=shift)

    def test_negative_dither(self):
        with pytest.raises(ValueError):
            FrameOptions(dither=-1.0)

    @pytest.mark.parametrize("edits, message", [
        # 9e-05 s at 16 kHz: a 1-sample frame shifted by 1 sample
        ({"frame_shift": 9e-05, "frame_length": 9e-05},
         "frame_length must cover at least 2 samples"),
        ({"frame_shift": 0.05}, "need frame_shift <= frame_length, got 0.05 and 0.025"),
        ({"frame_shift": 3e-05}, "frame_shift must cover at least 1 sample"),
        ({"sample_rate": 0}, "sample_rate must be > 0, got 0"),
        ({"dither": -1.0}, "dither must be >= 0, got -1.0"),
        ({"preemph_coeff": 1.5}, "preemph_coeff must be in [0, 1], got 1.5"),
        ({"window_type": "kaiser"}, "window_type must be one of hamming, hanning, "
         "povey, rectangular, blackman, got 'kaiser'"),
        ({"frame_length": 1e308},
         "frame_length must cover at most 8192 samples, got 1e+308 s at 16000 Hz"),
    ], ids=["frame-under-2-samples", "shift-over-length", "shift-under-1-sample",
            "sample-rate", "dither", "preemph", "window-type", "frame-length-1e308"])
    def test_config_errors_name_file_block_and_key(self, tmp_path, edits,
                                                   message):
        error = config_error(tmp_path, default_config("mfcc"), "mfcc", **edits)
        assert message in error

    @pytest.mark.parametrize("rate, length, size", [
        (16000, 0.51203, 8192), (16000, 0.512, 8192), (44100, 8192 / 44100, 8192),
        (44100, 8192.4 / 44100, 8192)])
    def test_window_rounding_to_the_cap_accepted(self, rate, length, size):
        assert FrameOptions(sample_rate=rate, frame_length=length).window_size == size

    @pytest.mark.parametrize("rate, length", [
        (16000, 0.5121), (44100, 8193 / 44100), (10 ** 400, 0.025), (10 ** 400, 1e-320)])
    def test_window_over_the_cap_rejected(self, rate, length):
        with pytest.raises(ValueError, match="^frame_length must cover at most 8192 "
                           f"samples, got {length} s at {rate} Hz$"):
            FrameOptions(sample_rate=rate, frame_length=length, frame_shift=length)

    def test_window_size(self):
        opts = FrameOptions()
        assert opts.window_size == 400
        assert opts.window_shift == 160
