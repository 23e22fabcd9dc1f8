"""Pitch estimation from normalized cross-correlation with Viterbi smoothing.

The tracker low-passes and downsamples the signal, measures the normalized
cross-correlation function (NCCF) of each frame over the candidate lag
range, and selects a continuous lag path by dynamic programming over a
log-spaced lag grid. Every frame receives an estimate: there is no hard
voiced/unvoiced decision, the NCCF value itself carries the voicing
evidence. A ballast term added to the correlation denominators makes quiet
frames uninformative so the path stays continuous through unvoiced regions,
and scales with the signal energy so the selected path does not depend on
the overall signal amplitude.

Post-processing turns the raw [nccf, f0] channels into the three features
used downstream: a warped probability-of-voicing value, the mean-normalized
log pitch and the log pitch derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .audio import sinc_resample, windowed_sinc
from .features import Features
from .framing import FrameOptions, check_sample_rate, frame_times, num_frames
from .postproc import delta_filter

__all__ = ["PitchOptions", "PostPitchOptions", "estimate_pitch",
           "nccf_to_pov", "postprocess_pitch"]

# half-width, in integer lags, of the windowed-sinc interpolation used to
# evaluate the NCCF on the log-spaced lag grid
_INTERP_WIDTH = 4

# centered window length of the log-pitch moving average, in frames
_NORMALIZATION_WINDOW = 151


@dataclass(frozen=True)
class PitchOptions:
    """Pitch tracker parameters (Hz); the framing is the features' own."""
    min_f0: float = 50.0
    max_f0: float = 400.0
    soft_min_f0: float = 10.0
    penalty_factor: float = 0.1
    lowpass_cutoff: float = 1000.0
    resample_freq: float = 4000.0
    delta_pitch: float = 0.005
    nccf_ballast: float = 7000.0

    def __post_init__(self):
        if not 0 < self.min_f0 < self.max_f0:
            raise ValueError(
                f"need 0 < min_f0 < max_f0, got {self.min_f0} and {self.max_f0}")
        if not self.max_f0 < self.lowpass_cutoff <= self.resample_freq / 2:
            raise ValueError(
                f"need max_f0 < lowpass_cutoff <= resample_freq/2, got "
                f"{self.max_f0}, {self.lowpass_cutoff}, {self.resample_freq}")
        if self.delta_pitch <= 0:
            raise ValueError(f"delta_pitch must be > 0, got {self.delta_pitch}")

    def check_framing(self, framing):
        """Raise ValueError unless `framing` snips edges and spans 1/min_f0."""
        if not framing.snip_edges:
            raise ValueError("pitch needs snip_edges: true")
        if 1.0 / self.min_f0 > framing.frame_length:
            raise ValueError(
                f"min_f0 {self.min_f0} Hz implies lags beyond the "
                f"{framing.frame_length} s frame length")


@dataclass(frozen=True)
class PostPitchOptions:
    """Parameters of the pitch post-processor."""
    pitch_scale: float = 2.0
    pov_scale: float = 2.0
    delta_pitch_scale: float = 10.0
    delta_pitch_noise_stddev: float = 0.005
    delta_window: int = 2
    delay: int = 0

    def __post_init__(self):
        if self.delta_window < 1:
            raise ValueError(f"delta_window must be >= 1, got {self.delta_window}")
        if self.delta_pitch_noise_stddev < 0:
            raise ValueError("delta_pitch_noise_stddev must be >= 0")


def _lag_grid(opts):
    """Log-spaced candidate lags in seconds, from 1/max_f0 up to 1/min_f0."""
    lags = [1.0 / opts.max_f0]
    top = 1.0 / opts.min_f0
    while lags[-1] < top:
        lags.append(lags[-1] * (1.0 + opts.delta_pitch))
    lags[-1] = top
    return np.array(lags)


def _interpolation_matrix(grid_samples, int_lags):
    """Windowed-sinc weights mapping integer-lag NCCF onto the lag grid."""
    weights = windowed_sinc(grid_samples[:, None] - int_lags[None, :],
                            0.5, _INTERP_WIDTH)
    return weights / weights.sum(axis=1, keepdims=True)


def _frame_nccf(signal, frame_starts, window_size, int_lags, ballast):
    """NCCF of each frame at each integer lag, plain and ballasted.

    The correlation window covers `window_size` samples from each frame
    start; samples beyond the signal end count as zero.
    """
    last_lag = int(int_lags[-1])
    span = window_size + last_lag
    padded = np.pad(signal, (0, max(0, frame_starts[-1] + span - len(signal))))
    windows = padded[frame_starts[:, None] + np.arange(span)[None, :]]

    squares = np.concatenate(
        [np.zeros((windows.shape[0], 1)), np.cumsum(windows ** 2, axis=1)], axis=1)
    e1 = squares[:, window_size] - squares[:, 0]
    e2 = squares[:, int_lags + window_size] - squares[:, int_lags]

    inner = np.empty((windows.shape[0], len(int_lags)))
    head = windows[:, :window_size]
    for j, lag in enumerate(int_lags):
        inner[:, j] = np.einsum("mt,mt->m", head, windows[:, lag:lag + window_size])

    def normalize(extra):
        denom = np.sqrt((e1[:, None] + extra) * (e2 + extra))
        out = np.zeros_like(inner)
        np.divide(inner, denom, out=out, where=denom > 0)
        return out

    return normalize(0.0), normalize(ballast)


def _viterbi(local, transition):
    """Least-cost state path for [frames, states] local costs.

    `transition` must be exactly symmetric: row j then holds the costs of
    reaching state j from every state, so each state's best predecessor is
    found along a contiguous row. Ties go to the lowest state index.
    """
    m, n = local.shape
    states = np.arange(n)
    back = np.zeros((m, n), dtype=np.int64)
    forward = local[0]
    for f in range(1, m):
        total = transition + forward[None, :]
        back[f] = np.argmin(total, axis=1)
        forward = local[f] + total[states, back[f]]

    path = np.empty(m, dtype=np.int64)
    path[-1] = int(np.argmin(forward))
    for f in range(m - 1, 0, -1):
        path[f - 1] = back[f, path[f]]
    return path


def estimate_pitch(audio, opts=None, framing=None):
    """Track pitch over an Audio, one estimate per frame.

    Returns Features with two columns, the plain NCCF at the selected lag
    (in [-1, 1]) and the f0 estimate in Hz (within [min_f0, max_f0]), and
    the frame-center times of features framed by `framing` (FrameOptions,
    default FrameOptions()).
    """
    opts = opts or PitchOptions()
    framing = framing or FrameOptions()
    opts.check_framing(framing)
    check_sample_rate(audio, framing)
    m = num_frames(audio.nsamples, framing)
    if m == 0:
        raise ValueError(
            f"audio too short for pitch tracking: {audio.nsamples} samples")

    # low-pass at the configured cutoff while downsampling; the kernel width
    # follows 2 * resample_freq / lowpass_cutoff, rounded up to odd
    zeros = int(2 * opts.resample_freq / opts.lowpass_cutoff)
    zeros += 1 - zeros % 2
    signal = sinc_resample(audio.samples, audio.sample_rate, opts.resample_freq,
                           cutoff=opts.lowpass_cutoff, zeros=zeros)

    window_size = int(round(framing.frame_length * opts.resample_freq))
    shift = int(round(framing.frame_shift * opts.resample_freq))
    frame_starts = np.arange(m) * shift

    lags = _lag_grid(opts)
    grid_samples = lags * opts.resample_freq
    lag_lo = max(1, int(np.floor(grid_samples[0])) - _INTERP_WIDTH)
    lag_hi = int(np.ceil(grid_samples[-1])) + _INTERP_WIDTH
    int_lags = np.arange(lag_lo, lag_hi + 1)

    mean_square = float(np.mean(signal ** 2)) if len(signal) else 0.0
    ballast = opts.nccf_ballast * mean_square
    plain, ballasted = _frame_nccf(signal, frame_starts, window_size,
                                   int_lags, ballast)

    interp = _interpolation_matrix(grid_samples, int_lags)
    plain_grid = plain @ interp.T
    ballasted_grid = ballasted @ interp.T

    # Viterbi over lag states: local cost rewards correlation at short lags,
    # the transition cost penalizes squared log-lag jumps
    local = 1.0 - ballasted_grid * (1.0 - opts.soft_min_f0 * lags[None, :])
    log_lags = np.log(lags)
    transition = opts.penalty_factor * (log_lags[None, :] - log_lags[:, None]) ** 2
    path = _viterbi(local, transition)

    rows = np.arange(m)
    nccf = np.clip(plain_grid[rows, path], -1.0, 1.0)
    f0 = 1.0 / lags[path]
    data = np.column_stack([nccf, f0])
    params = {"sample_rate": framing.sample_rate,
              "frame_shift": framing.frame_shift,
              "frame_length": framing.frame_length, **asdict(opts)}
    return Features(data, frame_times(m, framing),
                    {"processor": "pitch", "pitch": params})


def nccf_to_pov(nccf):
    """Probability of voicing from an NCCF value, monotone in |nccf|.

    The logistic argument is a fitted nonlinearity of the absolute
    correlation; input is clamped to [-1, 1].
    """
    c = np.minimum(np.abs(np.asarray(nccf, dtype=np.float64)), 1.0)
    logit = (-5.2 + 5.4 * np.exp(7.5 * (c - 1.0)) + 4.8 * c
             - 2.0 * np.exp(-10.0 * c) + 4.2 * np.exp(20.0 * (c - 1.0)))
    pov = 1.0 / (1.0 + np.exp(-logit))
    return float(pov) if pov.ndim == 0 else pov


def _sliding_weighted_mean(values, weights, half):
    """Weighted moving average over a centered window, truncated at edges."""
    m = len(values)
    num = np.concatenate([[0.0], np.cumsum(weights * values)])
    den = np.concatenate([[0.0], np.cumsum(weights)])
    lo = np.maximum(np.arange(m) - half, 0)
    hi = np.minimum(np.arange(m) + half + 1, m)
    return (num[hi] - num[lo]) / (den[hi] - den[lo])


def postprocess_pitch(raw, opts=None, seed=0):
    """Turn raw [nccf, f0] pitch into the three downstream channels.

    Column 0: pov_scale * (2 * (1.0001 - pov)**0.15 - 1), a warped
    probability of voicing (decreasing in the voicing probability).
    Column 1: pitch_scale * (log f0 minus its moving average weighted by the
    squared probability of voicing over a 151-frame centered window).
    Column 2: delta_pitch_scale * (log f0 derivative) plus seeded Gaussian
    noise of standard deviation delta_pitch_noise_stddev.
    A positive `delay` shifts all columns later in time, replicating edges.
    """
    opts = opts or PostPitchOptions()
    if raw.nchannels != 2:
        raise ValueError(f"raw pitch must have 2 channels, got {raw.nchannels}")
    nccf = raw.data[:, 0]
    f0 = raw.data[:, 1]
    if np.any(f0 <= 0):
        raise ValueError("raw pitch f0 values must be positive")

    pov = nccf_to_pov(nccf)
    pov_feature = opts.pov_scale * (2.0 * (1.0001 - pov) ** 0.15 - 1.0)

    log_f0 = np.log(f0)
    mean_log_f0 = _sliding_weighted_mean(log_f0, pov ** 2,
                                         _NORMALIZATION_WINDOW // 2)
    normalized = opts.pitch_scale * (log_f0 - mean_log_f0)

    delta = delta_filter(log_f0[:, None], opts.delta_window)[:, 0]
    delta = opts.delta_pitch_scale * delta
    if opts.delta_pitch_noise_stddev > 0:
        rng = np.random.default_rng(seed)
        delta = delta + opts.delta_pitch_noise_stddev * rng.standard_normal(len(delta))

    data = np.column_stack([pov_feature, normalized, delta])
    if opts.delay != 0:
        rows = np.clip(np.arange(len(data)) - opts.delay, 0, len(data) - 1)
        data = data[rows]

    properties = {"processor": "pitch_postprocessing",
                  "pitch_postprocessing": asdict(opts)}
    if "pitch" in raw.properties:
        properties["pitch"] = raw.properties["pitch"]
    return Features(data, raw.times, properties)
