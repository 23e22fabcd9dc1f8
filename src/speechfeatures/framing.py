"""Framing of audio into windowed frames with dithering and pre-emphasis.

This is the shared front end of every spectro-temporal processor. Frames are
computed in 16-bit integer sample scale (loaded samples times 32768) so that
the dithering amplitude and energy values behave like in integer-domain
implementations. Per frame, in order: dithering, DC offset removal, raw
energy, pre-emphasis, windowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FrameOptions", "num_frames", "window_function", "extract_frames",
           "frame_times", "check_sample_rate"]

WINDOW_TYPES = ("hamming", "hanning", "povey", "rectangular", "blackman")

# floor under x**2 sums before log, so log energies stay finite
TINY = np.finfo(np.float64).tiny

INT16_SCALE = 32768.0


@dataclass(frozen=True)
class FrameOptions:
    """Framing parameters (times in seconds, dither in 16-bit sample scale)."""
    sample_rate: int = 16000
    frame_shift: float = 0.01
    frame_length: float = 0.025
    dither: float = 0.1
    preemph_coeff: float = 0.97
    remove_dc_offset: bool = True
    window_type: str = "povey"
    snip_edges: bool = True

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.frame_shift <= self.frame_length:
            raise ValueError(
                f"need 0 < frame_shift <= frame_length, got "
                f"{self.frame_shift} and {self.frame_length}")
        if self.window_size < 2:
            raise ValueError("frame_length must cover at least 2 samples")
        if self.dither < 0:
            raise ValueError(f"dither must be >= 0, got {self.dither}")
        if not 0 <= self.preemph_coeff <= 1:
            raise ValueError(f"preemph_coeff must be in [0, 1], got {self.preemph_coeff}")
        if self.window_type not in WINDOW_TYPES:
            raise ValueError(
                f"unknown window_type {self.window_type!r}, expected one of "
                f"{', '.join(WINDOW_TYPES)}")

    @property
    def window_size(self):
        """Frame length in samples."""
        return int(round(self.frame_length * self.sample_rate))

    @property
    def window_shift(self):
        """Frame shift in samples."""
        return int(round(self.frame_shift * self.sample_rate))


def check_sample_rate(audio, opts):
    """Raise ValueError unless an Audio is at the sample rate of `opts`."""
    if audio.sample_rate != opts.sample_rate:
        raise ValueError(
            f"audio at {audio.sample_rate} Hz but options expect "
            f"{opts.sample_rate} Hz; resample first")


def num_frames(num_samples, opts):
    """Number of frames extracted from a signal of `num_samples` samples.

    With snip_edges, only frames lying entirely inside the signal are kept;
    otherwise a frame is kept whenever its center falls within the signal
    (edges are padded by mirroring).
    """
    if num_samples < 0:
        raise ValueError(f"num_samples must be >= 0, got {num_samples}")
    size, shift = opts.window_size, opts.window_shift
    if opts.snip_edges:
        if num_samples < size:
            return 0
        return 1 + (num_samples - size) // shift
    return (2 * num_samples + shift) // (2 * shift)


def window_function(window_type, length):
    """Analysis window of the given type and length.

    The povey window is hanning**0.85; all windows use the N-1 denominator.
    """
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    n = np.arange(length)
    arg = 2 * np.pi * n / (length - 1)
    if window_type == "hamming":
        return 0.54 - 0.46 * np.cos(arg)
    if window_type == "hanning":
        return 0.5 - 0.5 * np.cos(arg)
    if window_type == "povey":
        return (0.5 - 0.5 * np.cos(arg)) ** 0.85
    if window_type == "rectangular":
        return np.ones(length)
    if window_type == "blackman":
        return 0.42 - 0.5 * np.cos(arg) + 0.08 * np.cos(2 * arg)
    raise ValueError(f"unknown window_type {window_type!r}")


def frame_times(m, opts):
    """Center time of each of `m` frames, in seconds."""
    size, shift = opts.window_size, opts.window_shift
    starts = np.arange(m) * shift
    if opts.snip_edges:
        return (starts + 0.5 * size) / opts.sample_rate
    return (starts + 0.5 * shift) / opts.sample_rate


def _frame_indices(m, num_samples, opts):
    """Sample index matrix [m, window_size], edges mirrored when not snipped."""
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


def extract_frames(audio, opts, seed=0):
    """Cut an Audio into processed frames.

    Returns (frames, raw_energy, times) where frames is [m, window_size]
    after dithering, DC removal, pre-emphasis and windowing, raw_energy[i]
    is the log energy measured before pre-emphasis and windowing, and times
    holds the frame centers in seconds.

    With dither > 0 the noise is Gaussian from a generator seeded with
    `seed`; with dither == 0 the output does not depend on the seed.
    """
    check_sample_rate(audio, opts)
    m = num_frames(audio.nsamples, opts)
    size = opts.window_size
    if m == 0:
        return (np.zeros((0, size)), np.zeros(0), np.zeros(0))

    idx = _frame_indices(m, audio.nsamples, opts)
    frames = audio.samples[idx] * INT16_SCALE

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
