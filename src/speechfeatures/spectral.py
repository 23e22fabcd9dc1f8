"""Spectrogram, mel filterbank, MFCC and PLP (with RASTA) computation.

All processors share the framing front end and return Features with one row
per frame and frame-center times. The mel scale is 1127 * ln(1 + f/700).
Speaker normalization enters through an optional frequency warp applied to
the mel filter edges (vtln_warp); the spectrogram ignores warping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from .features import Features, frame_matrix, frozen, rule
from .framing import FrameOptions, extract_frames, TINY

__all__ = [
    "MelOptions", "MelBanks", "SpectrogramOptions", "FilterbankOptions",
    "MfccOptions", "PlpOptions", "mel", "inverse_mel", "vtln_warp_freq",
    "compute_mel_banks", "spectrogram", "filterbank", "mfcc", "plp",
]


def mel(freq):
    """Hz to mel: 1127 * ln(1 + f/700)."""
    freq = np.asarray(freq, dtype=np.float64)
    if np.any(freq < 0):
        raise ValueError("frequency must be >= 0")
    out = 1127.0 * np.log1p(freq / 700.0)
    return float(out) if out.ndim == 0 else out


def inverse_mel(mels):
    """Mel to Hz, exact inverse of mel()."""
    mels = np.asarray(mels, dtype=np.float64)
    out = 700.0 * np.expm1(mels / 1127.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpectrogramOptions(FrameOptions):
    """Framing plus the log frame energy options of every feature type."""
    energy_floor: float = 0.0
    raw_energy: bool = True

    @property
    def fft_size(self):
        """The FFT length: the power of two at or above window_size."""
        return 1 << (self.window_size - 1).bit_length()


@dataclass(frozen=True)
class MelOptions(SpectrogramOptions):
    """Mel filterbank placement parameters, and whether to emit the energy.

    Frequencies <= 0 for high_freq and vtln_high (and vtln_low) are relative
    to the Nyquist frequency.
    """
    use_energy: bool = False
    num_bins: int = rule(23, low=3)
    low_freq: float = rule(20.0, low=0)
    high_freq: float = 0.0
    vtln_low: float = 100.0
    vtln_high: float = -500.0

    def __post_init__(self):
        super().__post_init__()
        # a mel bin needs an FFT bin inside its triangle, and an FFT bin lies
        # inside at most two triangles
        most = 2 * (self.fft_size // 2 + 1)
        if self.num_bins > most:
            raise ValueError(f"num_bins must be <= {most}, twice the FFT bins of "
                             f"a {self.window_size}-sample frame, got {self.num_bins}")
        nyquist = 0.5 * self.sample_rate
        if not self.low_freq < self.effective_high_freq <= nyquist:
            raise ValueError(
                f"need low_freq < high_freq <= nyquist, got "
                f"{self.low_freq} and {self.effective_high_freq}")
        if self.effective_vtln_low >= self.effective_vtln_high:
            raise ValueError(
                f"need vtln_low < vtln_high, got {self.effective_vtln_low} "
                f"and {self.effective_vtln_high}")

    @property
    def effective_high_freq(self):
        return self.high_freq if self.high_freq > 0 else 0.5 * self.sample_rate + self.high_freq

    @property
    def effective_vtln_low(self):
        return self.vtln_low if self.vtln_low > 0 else 0.5 * self.sample_rate + self.vtln_low

    @property
    def effective_vtln_high(self):
        return self.vtln_high if self.vtln_high > 0 else 0.5 * self.sample_rate + self.vtln_high


@dataclass(frozen=True)
class FilterbankOptions(MelOptions):
    use_log_fbank: bool = True
    use_power: bool = True


@dataclass(frozen=True)
class MfccOptions(MelOptions):
    num_ceps: int = rule(13, low=1)
    cepstral_lifter: float = 22.0

    def __post_init__(self):
        super().__post_init__()
        if self.num_ceps > self.num_bins:
            raise ValueError(f"need num_ceps <= num_bins, got {self.num_ceps} "
                             f"and {self.num_bins}")


@dataclass(frozen=True)
class PlpOptions(MelOptions):
    rasta: bool = False
    lpc_order: int = rule(12, low=1)
    num_ceps: int = rule(13, low=1)
    compress_factor: float = 1.0 / 3.0
    cepstral_lifter: float = 22.0
    cepstral_scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.num_ceps > self.lpc_order + 1:
            raise ValueError(
                f"need num_ceps <= lpc_order + 1, got {self.num_ceps} "
                f"and lpc_order {self.lpc_order}")


def vtln_warp_freq(freq, warp, low_freq, high_freq, vtln_low, vtln_high):
    """Piecewise-linear frequency warp used for speaker normalization.

    The middle segment maps f to f/warp between the inflection points
    l = vtln_low * max(1, warp) and h = vtln_high * min(1, warp); the outer
    segments are linear and keep low_freq and high_freq fixed, so the warp
    is continuous and strictly increasing on [low_freq, high_freq].
    Frequencies outside that range pass through unchanged. Raises
    ValueError unless warp is finite and positive, and, as in Kaldi, unless
    low_freq < vtln_low and vtln_high < high_freq, which keeps both
    inflection points strictly inside [low_freq, high_freq].
    """
    if not (math.isfinite(warp) and warp > 0):
        raise ValueError(f"vtln warp must be finite and positive, got {warp}")
    if not low_freq < vtln_low:
        raise ValueError(f"vtln_low {vtln_low} must be above low_freq {low_freq}")
    if not vtln_high < high_freq:
        raise ValueError(
            f"vtln_high {vtln_high} must be below high_freq {high_freq}")
    low = vtln_low * max(1.0, warp)
    high = vtln_high * min(1.0, warp)
    if low >= high:
        raise ValueError(
            f"vtln inflection points cross for warp {warp}: {low} >= {high}")
    scale = 1.0 / warp
    out_low = scale * low
    out_high = scale * high
    scale_left = (out_low - low_freq) / (low - low_freq)
    scale_right = (high_freq - out_high) / (high_freq - high)

    freq = np.asarray(freq, dtype=np.float64)
    out = np.where(
        freq < low,
        low_freq + scale_left * (freq - low_freq),
        np.where(freq < high,
                 scale * freq,
                 high_freq + scale_right * (freq - high_freq)))
    out = np.where((freq < low_freq) | (freq > high_freq), freq, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MelBanks:
    """Triangular mel filters over FFT bins.

    Row b of matrix holds the weights of filter b on every FFT bin;
    center_freqs holds the (possibly warped) triangle centers in Hz.
    """
    center_freqs: np.ndarray
    matrix: np.ndarray  # [num_bins, nfft//2 + 1]

    def apply(self, spectrum):
        """Weighted sums of a [m, nfft//2+1] spectrum, one column per bin."""
        return spectrum @ self.matrix.T


@functools.lru_cache(maxsize=None)
def compute_mel_banks(opts, vtln_warp=1.0):
    """Mel filterbank for the given options and frequency warp.

    The FFT size is the one the front end uses, opts.fft_size. The
    num_bins + 2 band edges are equally spaced in mel and warped together;
    bin b is the triangle over edges b, b+1 and b+2.
    Banks are cached per (opts, vtln_warp) and returned read-only. Raises
    ValueError unless vtln_warp is finite and positive.
    """
    nfft = opts.fft_size
    mel_low = mel(opts.low_freq)
    mel_delta = (mel(opts.effective_high_freq) - mel_low) / (opts.num_bins + 1)
    edges = mel_low + np.arange(opts.num_bins + 2) * mel_delta
    if vtln_warp != 1.0:
        edges = mel(vtln_warp_freq(
            inverse_mel(edges), vtln_warp, opts.low_freq,
            opts.effective_high_freq, opts.effective_vtln_low,
            opts.effective_vtln_high))
    fft_mels = mel(np.arange(nfft // 2 + 1) * (opts.sample_rate / nfft))

    centers = inverse_mel(edges[1:-1])
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    # filled in place, one scratch block allocated after the kept matrix:
    # more temporaries raised the peak RSS of a whole MFCC run
    matrix = np.subtract(fft_mels, left)
    matrix /= center - left
    down = np.subtract(right, fft_mels)
    down /= right - center
    np.minimum(matrix, down, out=matrix)
    np.clip(matrix, 0.0, None, out=matrix)
    empty = np.flatnonzero(~matrix.any(axis=1))
    if empty.size:
        raise ValueError(f"mel bin {empty[0]} has no FFT bin support "
                         f"(nfft {nfft} too small)")
    return MelBanks(frozen(centers), frozen(matrix))


# most frames per FFT call: the complex spectra of one block are the only
# temporary the size of the frames
_FFT_BLOCK = 64


def _frame_spectra(audio, opts, seed):
    """Shared front end: (power spectrum [m, nfft//2+1], log energy [m], times)."""
    frames, raw_energy, times = extract_frames(audio, opts, seed)
    if frames.shape[0] == 0:
        raise ValueError(
            f"audio too short: {audio.nsamples} samples yield no frame")
    power = np.empty((frames.shape[0], opts.fft_size // 2 + 1))
    # rows are transformed independently, so blocks give the same bits
    for s in range(0, frames.shape[0], _FFT_BLOCK):
        spectrum = np.fft.rfft(frames[s:s + _FFT_BLOCK], n=opts.fft_size)
        block = np.square(spectrum.real, out=power[s:s + _FFT_BLOCK])
        imag = spectrum.imag
        block += np.square(imag, out=imag)
    if opts.raw_energy:
        energy = raw_energy
    else:
        energy = np.log(np.maximum(np.square(frames, out=frames).sum(axis=1), TINY))
    if opts.energy_floor > 0:
        energy = np.maximum(energy, np.log(opts.energy_floor))
    return power, energy, times


def _properties(name, opts, **extra):
    params = asdict(opts)
    params.update(extra)
    return {"processor": name, name: params}


def spectrogram(audio, opts=None, seed=0):
    """Log power spectrum features with the signal energy in column 0.

    Output has nfft/2 + 1 columns: the log energy then the log power of FFT
    bins 1..nfft/2.
    """
    opts = opts or SpectrogramOptions()
    power, energy, times = _frame_spectra(audio, opts, seed)
    logpow = np.log(np.maximum(power[:, 1:], TINY))
    return Features(np.hstack([energy[:, None], logpow]), times,
                    _properties("spectrogram", opts))


def filterbank(audio, opts=None, vtln_warp=1.0, seed=0):
    """Mel filterbank features, optionally log-compressed, power or magnitude."""
    opts = opts or FilterbankOptions()
    power, energy, times = _frame_spectra(audio, opts, seed)
    banks = compute_mel_banks(opts, vtln_warp)
    spectrum = power if opts.use_power else np.sqrt(power)
    mel_energies = banks.apply(spectrum)
    if opts.use_log_fbank:
        mel_energies = np.log(np.maximum(mel_energies, TINY))
    if opts.use_energy:
        mel_energies = np.hstack([energy[:, None], mel_energies])
    return Features(mel_energies, times,
                    _properties("filterbank", opts, vtln_warp=vtln_warp))


@functools.lru_cache(maxsize=None)
def dct_matrix(num_rows, num_cols):
    """Orthonormal DCT-II [num_rows, num_cols] matrix (cached, read-only)."""
    k = np.arange(num_rows)[:, None]
    n = np.arange(num_cols)[None, :]
    mat = np.sqrt(2.0 / num_cols) * np.cos(np.pi * k * (2 * n + 1) / (2 * num_cols))
    mat[0] *= 1.0 / np.sqrt(2.0)
    return frozen(mat)


@functools.lru_cache(maxsize=None)
def lifter_coeffs(num_ceps, q):
    """Sinusoidal liftering coefficients 1 + (Q/2) sin(pi i / Q) (cached, read-only)."""
    return frozen(1.0 + 0.5 * q * np.sin(np.pi * np.arange(num_ceps) / q))


def mfcc(audio, opts=None, vtln_warp=1.0, seed=0):
    """Mel-frequency cepstral coefficients.

    DCT-II (orthonormal) of the log mel energies, truncated to num_ceps
    coefficients, then liftered. With use_energy the first coefficient is
    replaced by the log frame energy.
    """
    opts = opts or MfccOptions()
    power, energy, times = _frame_spectra(audio, opts, seed)
    return Features(_mfcc_stage(power, energy, opts, vtln_warp), times,
                    _properties("mfcc", opts, vtln_warp=vtln_warp))


def _mfcc_stage(power, energy, opts, vtln_warp):
    """mfcc()'s [m, num_ceps] matrix from _frame_spectra's power and energy."""
    banks = compute_mel_banks(opts, vtln_warp)
    log_mel = np.log(np.maximum(banks.apply(power), TINY))
    ceps = log_mel @ dct_matrix(opts.num_ceps, opts.num_bins).T
    if opts.cepstral_lifter != 0:
        ceps = ceps * lifter_coeffs(opts.num_ceps, opts.cepstral_lifter)[None, :]
    if opts.use_energy:
        ceps[:, 0] = energy
    return ceps


def equal_loudness(freqs):
    """Equal-loudness weighting E(f) applied to the auditory spectrum."""
    fsq = np.asarray(freqs, dtype=np.float64) ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * (fsq + 1.44e6) / (fsq + 9.61e6)


def rasta_filter(log_spectrum):
    """Band-pass filtering of a log spectrum along time, per channel.

    Transfer function 0.1 * (2 + z^-1 - z^-3 - 2 z^-4) / (1 - 0.94 z^-1).
    The first four frames warm the FIR delay line up and output zero, then
    the pole recursion starts; a constant input is rejected exactly.
    """
    numer = 0.1 * np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    pole = 0.94
    m = log_spectrum.shape[0]
    padded = np.vstack([np.zeros((4, log_spectrum.shape[1])), log_spectrum])
    fir = sum(numer[j] * padded[4 - j:4 - j + m] for j in range(5))
    out = np.zeros_like(log_spectrum)
    for t in range(4, m):
        out[t] = fir[t] + pole * out[t - 1]
    return out


def _idft_matrix(n_lags, dimension):
    """Cosine transform back to autocorrelations, one row per lag."""
    i = np.arange(n_lags)[:, None]
    j = np.arange(dimension)[None, :]
    mat = 2.0 * np.cos(np.pi * i * j / (dimension - 1))
    mat[:, 0] = 1.0
    mat[:, -1] = (-1.0) ** i[:, 0]
    return mat / (2.0 * (dimension - 1))


def levinson(autocorr, order):
    """Levinson-Durbin recursion over a block of autocorrelation rows.

    Returns (coeffs [m, order], error [m]) where coeffs are the forward
    predictor coefficients (x[t] ~ sum_k a_k x[t-k]) and error the final
    prediction error power. Raises on non-positive prediction error.
    """
    autocorr = frame_matrix(autocorr)
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
        if i > 1:
            coeffs[:, :i - 1] -= reflection[:, None] * coeffs[:, i - 2::-1]
        coeffs[:, i - 1] = reflection
        error = error * (1.0 - reflection ** 2)
        if np.any(error <= 0):
            frame = int(np.nonzero(error <= 0)[0][0])
            raise ValueError(f"non-positive prediction error at frame {frame}")
    return coeffs, error


def lpc_to_cepstrum(coeffs, n_coeffs):
    """Cepstral coefficients c_1..c_n of an all-pole model.

    Standard recursion c_m = a_m + sum_{k<m} (k/m) c_k a_{m-k}, valid for
    n_coeffs <= lpc order, as PlpOptions ensures for plp.
    """
    m = coeffs.shape[0]
    ceps = np.zeros((m, n_coeffs))
    for i in range(1, n_coeffs + 1):
        acc = coeffs[:, i - 1].copy()
        for k in range(1, i):
            acc += (k / i) * ceps[:, k - 1] * coeffs[:, i - k - 1]
        ceps[:, i - 1] = acc
    return ceps


def plp(audio, opts=None, vtln_warp=1.0, seed=0):
    """Perceptual linear prediction cepstra, optionally RASTA-filtered.

    Mel energies are padded by duplicating the edge bins, weighted by the
    equal-loudness curve, (with rasta) band-pass filtered in the log domain,
    compressed, turned into autocorrelations and fitted by an all-pole model
    whose cepstrum is returned. Coefficient 0 is the log prediction error,
    or the log frame energy with use_energy.
    """
    opts = opts or PlpOptions()
    power, energy, times = _frame_spectra(audio, opts, seed)
    banks = compute_mel_banks(opts, vtln_warp)
    mel_energies = banks.apply(power)

    padded = np.hstack([mel_energies[:, :1], mel_energies, mel_energies[:, -1:]])
    eql = equal_loudness(
        np.concatenate([banks.center_freqs[:1], banks.center_freqs,
                        banks.center_freqs[-1:]]))
    auditory = padded * eql[None, :]
    if opts.rasta:
        auditory = np.exp(rasta_filter(np.log(np.maximum(auditory, TINY))))
    auditory = auditory ** opts.compress_factor

    autocorr = auditory @ _idft_matrix(opts.lpc_order + 1, auditory.shape[1]).T
    try:
        coeffs, error = levinson(autocorr, opts.lpc_order)
    except ValueError as err:
        raise ValueError(f"plp: unstable LPC analysis: {err}") from err

    feats = np.empty((coeffs.shape[0], opts.num_ceps))
    feats[:, 0] = np.log(error)
    if opts.num_ceps > 1:
        feats[:, 1:] = lpc_to_cepstrum(coeffs, opts.num_ceps - 1)
    if opts.cepstral_lifter != 0:
        feats = feats * lifter_coeffs(opts.num_ceps, opts.cepstral_lifter)[None, :]
    if opts.cepstral_scale != 1.0:
        feats = feats * opts.cepstral_scale
    if opts.use_energy:
        feats[:, 0] = energy
    return Features(feats, times, _properties("plp", opts, vtln_warp=vtln_warp))
