import math
import re
import tracemalloc

import numpy as np
import pytest

from speechfeatures import (Audio, FilterbankOptions, MelOptions, MfccOptions,
                            PlpOptions, SpectrogramOptions, compute_mel_banks,
                            default_config, filterbank, inverse_mel, mel, mfcc,
                            plp, spectrogram, vtln_warp_freq)
from speechfeatures import spectral
from speechfeatures.framing import TINY, extract_frames
from speechfeatures.speaker import MAX_WARPS, VtlnOptions, warp_grid
from speechfeatures.spectral import (equal_loudness, levinson, lifter_coeffs,
                                     lpc_to_cepstrum, rasta_filter)

from conftest import (assert_valid_features, config_error, make_tone,
                      make_voweled)


def naive_dct_ortho(row, num_ceps):
    """Independent DCT-II oracle, direct double-loop evaluation."""
    n = len(row)
    out = np.zeros(num_ceps)
    for k in range(num_ceps):
        acc = 0.0
        for j in range(n):
            acc += row[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def bin_loop_mel_banks(opts, vtln_warp=1.0):
    """Oracle: the mel banks built one bin at a time, each edge warped alone.

    Returns (center_freqs, matrix) as compute_mel_banks did before it warped
    all edges in one array call.
    """
    nfft = opts.fft_size
    mel_low = mel(opts.low_freq)
    mel_high = mel(opts.effective_high_freq)
    mel_delta = (mel_high - mel_low) / (opts.num_bins + 1)
    fft_mels = mel(np.arange(nfft // 2 + 1) * (opts.sample_rate / nfft))

    def warp_mel(m):
        if vtln_warp == 1.0:
            return m
        return mel(vtln_warp_freq(
            inverse_mel(m), vtln_warp, opts.low_freq, opts.effective_high_freq,
            opts.effective_vtln_low, opts.effective_vtln_high))

    centers = np.empty(opts.num_bins)
    matrix = np.zeros((opts.num_bins, nfft // 2 + 1))
    for b in range(opts.num_bins):
        left = warp_mel(mel_low + b * mel_delta)
        center = warp_mel(mel_low + (b + 1) * mel_delta)
        right = warp_mel(mel_low + (b + 2) * mel_delta)
        up = (fft_mels - left) / (center - left)
        down = (right - fft_mels) / (right - center)
        weights = np.clip(np.minimum(up, down), 0.0, None)
        if not weights.any():
            raise ValueError(
                f"mel bin {b} has no FFT bin support (nfft {nfft} too small)")
        centers[b] = inverse_mel(center)
        matrix[b] = weights
    return centers, matrix


def rasta_oracle(x):
    """Independent scalar recursion for the band-pass filter."""
    b = [0.2, 0.1, 0.0, -0.1, -0.2]
    y = np.zeros_like(x)
    for t in range(len(x)):
        if t < 4:
            y[t] = 0.0
            continue
        fir = sum(b[j] * (x[t - j] if t - j >= 0 else 0.0) for j in range(5))
        y[t] = fir + 0.94 * y[t - 1]
    return y


class TestMelScale:
    def test_zero(self):
        assert mel(0) == 0.0

    def test_1000(self):
        assert mel(1000) == pytest.approx(999.99, abs=0.01)

    def test_inverse(self):
        freqs = np.linspace(0, 8000, 100)
        back = inverse_mel(mel(freqs))
        assert np.allclose(back, freqs, rtol=1e-9, atol=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mel(-1.0)


class TestVtlnWarp:
    LOW, HIGH, VLOW, VHIGH = 20.0, 8000.0, 100.0, 7500.0

    def warp(self, f, w):
        return vtln_warp_freq(f, w, self.LOW, self.HIGH, self.VLOW, self.VHIGH)

    def test_identity_at_warp_one(self):
        freqs = np.linspace(self.LOW, self.HIGH, 200)
        assert np.allclose(self.warp(freqs, 1.0), freqs)

    @pytest.mark.parametrize("warp", np.round(np.arange(0.85, 1.151, 0.01), 2))
    def test_strictly_increasing(self, warp):
        freqs = np.linspace(self.LOW, self.HIGH, 500)
        out = self.warp(freqs, warp)
        assert np.all(np.diff(out) > 0)

    @pytest.mark.parametrize("warp", [0.85, 0.9, 1.0, 1.1, 1.15])
    def test_endpoints_fixed(self, warp):
        assert self.warp(self.LOW, warp) == pytest.approx(self.LOW)
        assert self.warp(self.HIGH, warp) == pytest.approx(self.HIGH)

    @pytest.mark.parametrize("warp", [0.85, 0.95, 1.05, 1.15])
    def test_continuity_at_inflections(self, warp):
        for knot in (self.VLOW * max(1, warp), self.VHIGH * min(1, warp)):
            below = self.warp(knot - 1e-6, warp)
            above = self.warp(knot + 1e-6, warp)
            assert abs(above - below) < 1e-3

    def test_middle_segment_scales(self):
        assert self.warp(1000.0, 0.9) == pytest.approx(1000.0 / 0.9)

    def test_crossed_inflections_rejected(self):
        with pytest.raises(ValueError):
            vtln_warp_freq(500.0, 1.0, 20.0, 8000.0, 7000.0, 7000.0)

    @pytest.mark.parametrize("vtln_low, vtln_high, message", [
        (20.0, 7500.0, "vtln_low 20.0 must be above low_freq 20.0"),
        (100.0, 8000.0, "vtln_high 8000.0 must be below high_freq 8000.0"),
    ])
    @pytest.mark.parametrize("warp", [0.86, 1.0, 1.1])
    def test_cutoffs_inside_the_band(self, vtln_low, vtln_high, message, warp):
        # checked on the cutoffs, not on the warp-scaled inflection points
        with pytest.raises(ValueError, match=f"^{message}$"):
            vtln_warp_freq(1000.0, warp, self.LOW, self.HIGH, vtln_low,
                           vtln_high)

    @pytest.mark.parametrize("warp", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_warp_rejected_naming_it(self, warp):
        with pytest.raises(ValueError, match=f"finite and positive, got {warp}"):
            self.warp(1000.0, warp)


class TestMelBanks:
    @pytest.mark.parametrize("warp", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_warp_rejected_naming_it(self, warp):
        cached = spectral._mel_banks.cache_info().currsize
        with pytest.raises(ValueError, match=f"finite and positive, got {warp}"):
            compute_mel_banks(MelOptions(), warp)
        assert spectral._mel_banks.cache_info().currsize == cached

    def test_centers_equally_spaced_in_mel(self):
        opts = MelOptions()
        banks = compute_mel_banks(opts)
        gaps = np.diff(mel(banks.center_freqs))
        assert np.allclose(gaps, gaps[0], atol=1e-9)

    def test_weights_bounded_and_positive_sum(self):
        banks = compute_mel_banks(MelOptions())
        assert banks.matrix.shape == (23, 257)
        for weights in banks.matrix:
            assert np.all(weights >= 0) and np.all(weights <= 1)
            assert weights.sum() > 0

    def test_weights_unimodal(self):
        banks = compute_mel_banks(MelOptions())
        for weights in banks.matrix:
            peak = int(np.argmax(weights))
            assert np.all(np.diff(weights[:peak + 1]) >= 0)
            assert np.all(np.diff(weights[peak:]) <= 0)

    def test_warp_moves_centers_up(self):
        plain = compute_mel_banks(MelOptions(), 1.0)
        warped = compute_mel_banks(MelOptions(), 0.9)
        # in the linear-scaling region centers move to f / 0.9 > f
        middle = slice(3, 18)
        assert np.all(warped.center_freqs[middle] >= plain.center_freqs[middle])

    def test_cache_returns_same_object(self):
        a = compute_mel_banks(MelOptions(), 1.0)
        b = compute_mel_banks(MelOptions(), 1.0)
        assert a is b

    def test_every_call_form_is_one_cache_entry(self):
        opts = MelOptions(num_bins=24)
        calls = [((), {}), ((1.0,), {}), ((), {"vtln_warp": 1.0}), ((1,), {}),
                 ((np.float64(1.0),), {})]
        banks = [compute_mel_banks(opts, *args, **kwargs) for args, kwargs in calls]
        assert all(b is banks[0] for b in banks)
        spectral._mel_banks.cache_clear()
        for args, kwargs in calls:
            compute_mel_banks(opts, *args, **kwargs)
        assert spectral._mel_banks.cache_info().currsize == 1

    def test_cache_holds_one_configuration_at_most(self):
        # options no other test builds, so every warp adds an entry
        opts = MelOptions(num_bins=21)
        bound = 2 * MAX_WARPS + 1
        warps = 0.9 + np.arange(bound + 1) * 1e-4
        first = compute_mel_banks(opts, warps[0])
        for warp in warps[1:]:
            compute_mel_banks(opts, warp)
        # the least recently used bank went first
        assert compute_mel_banks(opts, warps[0]) is not first
        assert spectral._mel_banks.cache_info().currsize == bound

    def test_result_is_read_only(self):
        banks = compute_mel_banks(MfccOptions(), 1.0)
        with pytest.raises(ValueError, match="read-only"):
            banks.matrix[:] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            banks.center_freqs[0] = 0.0

    def test_high_freq_relative_to_nyquist(self):
        opts = MelOptions(high_freq=-100.0)
        assert opts.effective_high_freq == 7900.0
        with pytest.raises(ValueError):
            MelOptions(low_freq=500.0, high_freq=100.0)


ORACLE_OPTIONS = [
    MelOptions(),
    MelOptions(sample_rate=8000),
    MelOptions(sample_rate=22050, num_bins=40),
    MelOptions(low_freq=60.0, high_freq=-400.0),
    MelOptions(vtln_low=200.0, vtln_high=6000.0),
    MfccOptions(frame_length=0.02, num_bins=30),
]


class TestMelBanksMatchBinLoop:
    @pytest.mark.parametrize("opts", ORACLE_OPTIONS)
    def test_bytes_equal_at_every_warp(self, opts):
        warps = warp_grid(VtlnOptions()).tolist() + [0.5, 0.7, 1.3]
        for warp in warps:
            try:
                centers, matrix = bin_loop_mel_banks(opts, warp)
            except ValueError as err:
                # 0.5 leaves a top bin of the 60 Hz to 7.6 kHz bank empty
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    compute_mel_banks(opts, warp)
                continue
            banks = compute_mel_banks(opts, warp)
            assert banks.matrix.tobytes() == matrix.tobytes(), warp
            assert banks.center_freqs.tobytes() == centers.tobytes(), warp

    @pytest.mark.parametrize("opts, warp", [
        # 5 ms at 8 kHz: 33 FFT bins cannot support 40 narrow low bins
        (MelOptions(sample_rate=8000, frame_length=0.005, frame_shift=0.005,
                    num_bins=40), 1.0),
        (MelOptions(sample_rate=8000, frame_length=0.005, frame_shift=0.005,
                    num_bins=40), 0.9),
        # inflection points cross: 3200 * 1.15 >= 3500
        (MelOptions(vtln_low=3200.0, vtln_high=3500.0), 1.15),
        # vtln_high beyond high_freq
        (MelOptions(high_freq=7000.0, vtln_high=7500.0), 1.1),
        # vtln_low below low_freq
        (MelOptions(low_freq=150.0), 0.9),
        (MelOptions(), float("nan")),
        # vtln_high at high_freq, though the scaled point 0.86 * 8000 is inside
        (MelOptions(vtln_high=0.0), 0.86),
    ])
    def test_same_errors(self, opts, warp):
        with pytest.raises(ValueError) as expected:
            bin_loop_mel_banks(opts, warp)
        with pytest.raises(ValueError) as got:
            compute_mel_banks(opts, warp)
        assert str(got.value) == str(expected.value)


class TestSpectrogram:
    def test_shape(self):
        feats = spectrogram(make_tone(440))
        assert feats.data.shape == (98, 257)
        assert_valid_features(feats)

    def test_tone_peak_bin(self):
        feats = spectrogram(make_tone(1000), SpectrogramOptions(dither=0.0))
        # column j > 0 holds FFT bin j; 1000 Hz falls on bin 1000*512/16000 = 32
        peak = np.argmax(feats.data[:, 1:], axis=1) + 1
        assert np.all(peak == 32)

    def test_silence_energy_floor(self):
        audio = Audio(np.zeros(16000), 16000)
        opts = SpectrogramOptions(dither=0.0, energy_floor=1.0)
        feats = spectrogram(audio, opts)
        assert np.allclose(feats.data[:, 0], np.log(1.0))

    def test_too_short(self):
        with pytest.raises(ValueError, match="short"):
            spectrogram(Audio(np.zeros(100), 16000))

    @pytest.mark.parametrize("raw_energy, expected", [
        # DC removed: [-1.5, 0.5, -0.5, 1.5]
        (True, math.log(5.0)),
        # pre-emphasis 0.5 gives [-0.75, 1.25, -0.75, 1.75]; the 4-point
        # hamming window is [0.08, 0.77, 0.77, 0.08]
        (False, math.log(0.06 ** 2 + 0.9625 ** 2 + 0.5775 ** 2 + 0.14 ** 2)),
    ], ids=["raw", "windowed"])
    def test_energy_hand_computed(self, raw_energy, expected):
        audio = Audio(np.array([1.0, 3.0, 2.0, 4.0]) / 32768, 4000)
        opts = SpectrogramOptions(
            sample_rate=4000, frame_length=0.001, frame_shift=0.001,
            dither=0.0, preemph_coeff=0.5, window_type="hamming",
            raw_energy=raw_energy)
        feats = spectrogram(audio, opts)
        assert feats.data.shape == (1, 3)
        assert feats.data[0, 0] == pytest.approx(expected, rel=1e-12)


class TestFilterbank:
    def test_shape(self):
        feats = filterbank(make_tone(440))
        assert feats.data.shape == (98, 23)
        assert_valid_features(feats)

    def test_use_energy_adds_column(self):
        feats = filterbank(make_tone(440), FilterbankOptions(use_energy=True))
        assert feats.data.shape == (98, 24)

    def test_linear_power_scales_quadratically(self):
        opts = FilterbankOptions(dither=0.0, use_log_fbank=False, use_power=True)
        base = filterbank(make_tone(440, amplitude=0.25), opts)
        doubled = filterbank(make_tone(440, amplitude=0.5), opts)
        assert np.allclose(doubled.data, 4.0 * base.data, rtol=1e-9)

    def test_log_is_log_of_linear(self):
        linear = filterbank(make_tone(440), FilterbankOptions(
            dither=0.0, use_log_fbank=False))
        logged = filterbank(make_tone(440), FilterbankOptions(dither=0.0))
        tiny = np.finfo(np.float64).tiny
        assert np.allclose(logged.data, np.log(np.maximum(linear.data, tiny)))

    @pytest.mark.parametrize("freq", [300.0, 1000.0, 3000.0])
    def test_tone_lands_in_nearest_mel_bin(self, freq):
        opts = FilterbankOptions(dither=0.0)
        feats = filterbank(make_tone(freq), opts)
        banks = compute_mel_banks(opts)
        hottest = np.argmax(feats.data, axis=1)
        nearest = int(np.argmin(np.abs(banks.center_freqs - freq)))
        assert np.all(np.abs(hottest - nearest) <= 1)


class TestFrameSpectra:
    @pytest.mark.parametrize("seconds", [0.025, 0.66, 0.665, 0.67, 2.0])
    @pytest.mark.parametrize("raw_energy", [True, False])
    def test_row_blocks_give_the_bits_of_one_transform(self, seconds,
                                                       raw_energy):
        # 1, 64, 65, 66 and 198 frames: one short block, one full block,
        # and full blocks followed by a short one
        audio = make_voweled(120, [700, 1200, 2600], duration=seconds)
        opts = SpectrogramOptions(raw_energy=raw_energy)
        power, energy, _ = spectral._frame_spectra(audio, opts, seed=3)
        frames, raw, _ = extract_frames(audio, opts, seed=3)
        spectrum = np.fft.rfft(frames, n=512)
        expected = spectrum.real ** 2 + spectrum.imag ** 2
        assert power.tobytes() == expected.tobytes()
        if not raw_energy:
            raw = np.log(np.maximum((frames ** 2).sum(axis=1), TINY))
        assert energy.tobytes() == raw.tobytes()

    def test_mfcc_peak_on_a_long_utterance(self):
        audio = make_tone(440, duration=30.0)
        tracemalloc.start()
        try:
            mfcc(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the frames and one temporary of their size (18.3 MiB), then the
        # power and the spectra of one block of frames
        assert peak <= 20 * 2 ** 20


class TestMfcc:
    def test_shape(self):
        feats = mfcc(make_tone(440))
        assert feats.data.shape == (98, 13)
        assert_valid_features(feats)

    def test_matches_naive_dct(self):
        opts = MfccOptions(dither=0.0, cepstral_lifter=0.0)
        ceps = mfcc(make_tone(440), opts)
        log_mel = filterbank(make_tone(440), FilterbankOptions(dither=0.0))
        for row in (0, 42, 97):
            expected = naive_dct_ortho(log_mel.data[row], 13)
            assert np.allclose(ceps.data[row], expected, atol=1e-10, rtol=0)

    def test_lifter_roundtrip_identity(self):
        lifted = mfcc(make_tone(440), MfccOptions(dither=0.0))
        plain = mfcc(make_tone(440), MfccOptions(dither=0.0, cepstral_lifter=0.0))
        coeffs = lifter_coeffs(13, 22.0)
        assert np.allclose(lifted.data / coeffs[None, :], plain.data, rtol=1e-12)

    def test_identical_frames_identical_rows(self):
        # 400 Hz divides the frame shift so all frames see the same signal
        audio = make_tone(400)
        opts = MfccOptions(dither=0.0)
        feats = mfcc(audio, opts)
        assert np.allclose(feats.data[10], feats.data[50], atol=1e-8)

    def test_use_energy_replaces_c0(self):
        opts = MfccOptions(dither=0.0, use_energy=True)
        feats = mfcc(make_tone(440), opts)
        from speechfeatures import FrameOptions, extract_frames
        _, energy, _ = extract_frames(make_tone(440), FrameOptions(dither=0.0))
        assert np.allclose(feats.data[:, 0], energy)

    def test_num_ceps_bounded(self):
        with pytest.raises(ValueError):
            MfccOptions(num_ceps=24, num_bins=23)


def copying_levinson(autocorr, order):
    """Reference recursion: a fresh predictor array at every order."""
    autocorr = np.atleast_2d(np.asarray(autocorr, dtype=np.float64))
    m = autocorr.shape[0]
    coeffs = np.zeros((m, order))
    error = autocorr[:, 0].copy()
    if np.any(error <= 0):
        frame = int(np.nonzero(error <= 0)[0][0])
        raise ValueError(f"non-positive zero-lag autocorrelation at frame {frame}")
    for i in range(1, order + 1):
        acc = autocorr[:, i].copy()
        if i > 1:
            acc -= np.einsum("mj,mj->m", coeffs[:, :i - 1], autocorr[:, i - 1:0:-1])
        reflection = acc / error
        updated = coeffs.copy()
        updated[:, i - 1] = reflection
        if i > 1:
            updated[:, :i - 1] = (coeffs[:, :i - 1]
                                  - reflection[:, None] * coeffs[:, i - 2::-1])
        coeffs = updated
        error = error * (1.0 - reflection ** 2)
        if np.any(error <= 0):
            frame = int(np.nonzero(error <= 0)[0][0])
            raise ValueError(f"non-positive prediction error at frame {frame}")
    return coeffs, error


def raise_message(func, *args):
    """The message of the ValueError func(*args) raises, or None."""
    try:
        func(*args)
    except ValueError as err:
        return str(err)
    return None


class TestLevinsonOracle:
    @pytest.mark.parametrize("order", range(1, 25))
    def test_bit_identical_to_copying_recursion(self, order):
        rng = np.random.default_rng(order)
        for frames in (1, 7, 40):
            x = rng.standard_normal((frames, 64))
            r = np.stack([np.correlate(row, row, "full")[63:64 + order]
                          for row in x])
            coeffs, error = levinson(r, order)
            old_coeffs, old_error = copying_levinson(r, order)
            assert coeffs.tobytes() == old_coeffs.tobytes()
            assert error.tobytes() == old_error.tobytes()

    @pytest.mark.parametrize("rows", [
        [[0.0, 0.1]], [[1.0, 0.5], [-1.0, 0.0]], [[1.0, 0.5], [1.0, 2.0]],
        [[1.0, 1.0, 0.3]], [[1.0, 0.5, 0.25], [1.0, 0.9, -0.9]]])
    def test_same_failure_as_copying_recursion(self, rows):
        r = np.array(rows)
        order = r.shape[1] - 1
        message = raise_message(levinson, r, order)
        assert message is not None
        assert message == raise_message(copying_levinson, r, order)


class TestPlpInternals:
    def test_levinson_hand_case(self):
        coeffs, error = levinson(np.array([[1.0, 0.5]]), 1)
        assert coeffs[0, 0] == pytest.approx(0.5)
        assert error[0] == pytest.approx(0.75)

    def test_levinson_ar1_recovery(self):
        # autocorrelation of AR(1) x[t] = a x[t-1] + e: r[k] proportional a^k
        a = 0.8
        r = np.array([[a ** k for k in range(4)]])
        coeffs, _ = levinson(r, 3)
        assert coeffs[0] == pytest.approx([a, 0.0, 0.0], abs=1e-12)

    def test_levinson_instability_names_frame(self):
        bad = np.array([[1.0, 0.5], [1.0, 2.0]])
        with pytest.raises(ValueError, match="frame 1"):
            levinson(bad, 1)

    def test_lpc_to_cepstrum_ar1(self):
        a = 0.6
        coeffs = np.array([[a, 0.0, 0.0]])
        ceps = lpc_to_cepstrum(coeffs, 3)
        expected = [a, a ** 2 / 2, a ** 3 / 3]
        assert np.allclose(ceps[0], expected, atol=1e-12)

    def test_rasta_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 1))
        ours = rasta_filter(x)
        expected = rasta_oracle(x[:, 0])
        assert np.allclose(ours[:, 0], expected, atol=1e-12)

    def test_rasta_rejects_dc(self):
        x = np.full((120, 3), 2.5)
        out = rasta_filter(x)
        assert np.all(np.abs(out[100:]) <= 1e-6)

    def test_equal_loudness_shape(self):
        # the weighting emphasizes mid frequencies over extremes
        values = equal_loudness(np.array([100.0, 1000.0, 3000.0]))
        assert values[1] > values[0]
        assert values[1] > 0.1


class TestPlp:
    def test_shape(self):
        feats = plp(make_voweled(120, [700, 1200, 2600]))
        assert feats.data.shape == (98, 13)
        assert_valid_features(feats)

    def test_rasta_shape(self):
        feats = plp(make_voweled(120, [700, 1200, 2600]), PlpOptions(rasta=True))
        assert feats.data.shape == (98, 13)
        assert_valid_features(feats)

    def test_cepstral_scale(self):
        audio = make_voweled(110, [600, 1400])
        base = plp(audio, PlpOptions(dither=0.0))
        scaled = plp(audio, PlpOptions(dither=0.0, cepstral_scale=2.0))
        assert np.allclose(scaled.data, 2.0 * base.data)

    def test_num_ceps_bounded_by_order(self):
        with pytest.raises(ValueError):
            PlpOptions(lpc_order=5, num_ceps=8)

    def test_silence_without_dither_is_unstable(self):
        # all-zero frames have a zero autocorrelation at lag 0
        with pytest.raises(ValueError, match="^plp: unstable LPC analysis: "
                           "non-positive zero-lag autocorrelation at frame 0"):
            plp(Audio(np.zeros(4000), 16000), PlpOptions(dither=0.0))

    def test_use_energy_replaces_c0(self):
        audio = make_voweled(120, [700, 1200, 2600])
        plain = plp(audio, PlpOptions(dither=0.0))
        feats = plp(audio, PlpOptions(dither=0.0, use_energy=True))
        assert np.array_equal(feats.data[:, 1:], plain.data[:, 1:])
        # log energy of each DC-free 400-sample frame, in 16-bit scale
        frames = np.lib.stride_tricks.sliding_window_view(
            audio.samples * 32768, 400)[::160]
        frames = frames - frames.mean(axis=1, keepdims=True)
        assert np.allclose(feats.data[:, 0], np.log((frames ** 2).sum(axis=1)),
                           rtol=1e-12, atol=0)
        assert not np.allclose(feats.data[:, 0], plain.data[:, 0])


@pytest.mark.parametrize("features, edits, message", [
    ("mfcc", {"num_bins": 2}, "num_bins must be >= 3, got 2"),
    ("filterbank", {"low_freq": 9000.0},
     "need low_freq < high_freq <= nyquist, got 9000.0 and 8000.0"),
    ("filterbank", {"vtln_low": 4000.0, "vtln_high": 3000.0},
     "need vtln_low < vtln_high, got 4000.0 and 3000.0"),
    # vtln_high -500 is relative to the 8 kHz Nyquist frequency
    ("mfcc", {"vtln_low": 7600.0}, "need vtln_low < vtln_high, got 7600.0 and 7500.0"),
    ("mfcc", {"num_ceps": 24}, "need num_ceps <= num_bins, got 24 and 23"),
    ("plp", {"lpc_order": 0}, "lpc_order must be >= 1, got 0"),
    ("plp", {"num_ceps": 14}, "need num_ceps <= lpc_order + 1, got 14"),
    ("plp", {"num_bins": 65536},
     "num_bins must be <= 514, twice the FFT bins of a 400-sample frame, got 65536"),
    # within that bound, but the bank extraction needs cannot be built
    ("filterbank", {"num_bins": 200},
     "filterbank: mel bin 2 has no FFT bin support (nfft 512 too small)"),
    ("mfcc", {"num_bins": 200},
     "mfcc: mel bin 2 has no FFT bin support (nfft 512 too small)"),
    ("plp", {"num_bins": 200},
     "plp: mel bin 2 has no FFT bin support (nfft 512 too small)"),
], ids=["num-bins", "low-freq", "vtln-low-above-high", "vtln-low-above-relative-high",
        "mfcc-num-ceps", "lpc-order", "plp-num-ceps", "plp-num-bins-65536",
        "filterbank-bank", "mfcc-bank", "plp-bank"])
def test_config_errors_name_file_block_and_key(tmp_path, features, edits,
                                               message):
    error = config_error(tmp_path, default_config(features), features, **edits)
    assert message in error


class TestSharedTimes:
    def test_all_processors_share_times(self):
        audio = make_voweled(120, [700, 1200, 2600])
        feats = [spectrogram(audio),
                 filterbank(audio),
                 mfcc(audio),
                 plp(audio)]
        for other in feats[1:]:
            assert np.array_equal(feats[0].times, other.times)
