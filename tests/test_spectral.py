import math

import numpy as np
import pytest

from speechfeatures import (Audio, FilterbankOptions, MelOptions, MfccOptions,
                            PlpOptions, SpectrogramOptions, compute_mel_banks,
                            filterbank, inverse_mel, mel, mfcc, plp,
                            spectrogram, vtln_warp_freq)
from speechfeatures.spectral import (equal_loudness, levinson, lifter_coeffs,
                                     lpc_to_cepstrum, rasta_filter)

from conftest import assert_valid_features, make_tone, make_voweled


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


class TestMelBanks:
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

    def test_high_freq_relative_to_nyquist(self):
        opts = MelOptions(high_freq=-100.0)
        assert opts.effective_high_freq == 7900.0
        with pytest.raises(ValueError):
            MelOptions(low_freq=500.0, high_freq=100.0)


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


class TestSharedTimes:
    def test_all_processors_share_times(self):
        audio = make_voweled(120, [700, 1200, 2600])
        feats = [spectrogram(audio),
                 filterbank(audio),
                 mfcc(audio),
                 plp(audio)]
        for other in feats[1:]:
            assert np.array_equal(feats[0].times, other.times)
