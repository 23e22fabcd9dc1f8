"""Framing of audio into windowed frames with dithering and pre-emphasis.

This is the shared front end of every spectro-temporal processor. Frames are
computed in 16-bit integer sample scale (loaded samples times 32768) so that
the dithering amplitude and energy values behave like in integer-domain
implementations. Per frame, in order: dithering, DC offset removal, raw
energy, pre-emphasis, windowing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import Options, rule

__all__ = ["FrameOptions", "num_frames", "window_function", "extract_frames",
           "frame_times", "check_sample_rate"]

WINDOW_TYPES = ("hamming", "hanning", "povey", "rectangular", "blackman")

# floor under x**2 sums before log, so log energies stay finite
TINY = np.finfo(np.float64).tiny

INT16_SCALE = 32768.0

# the most samples a frame may span; it bounds fft_size, and so the mel banks
# read_config builds, one weight per mel bin and FFT bin
MAX_WINDOW = 8192


@dataclass(frozen=True)
class FrameOptions(Options):
    """Framing parameters (times in seconds, dither in 16-bit sample scale)."""
    sample_rate: int = rule(16000, above=0)
    frame_shift: float = rule(0.01, above=0)
    frame_length: float = 0.025
    dither: float = rule(0.1, low=0)
    preemph_coeff: float = rule(0.97, low=0, high=1)
    remove_dc_offset: bool = True
    window_type: str = rule("povey", choices=WINDOW_TYPES)
    snip_edges: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.frame_shift > self.frame_length:
            raise ValueError(f"need frame_shift <= frame_length, got "
                             f"{self.frame_shift} and {self.frame_length}")
        # window_size's product (round(8192.5) is 8192), at a rate float() holds
        if not (self.sample_rate <= sys.float_info.max and self.frame_length
                * self.sample_rate <= MAX_WINDOW + 0.5):
            raise ValueError(f"frame_length must cover at most {MAX_WINDOW} samples, "
                             f"got {self.frame_length} s at {self.sample_rate} Hz")
        if self.window_size < 2:
            raise ValueError("frame_length must cover at least 2 samples")
        if self.window_shift < 1:
            raise ValueError(f"frame_shift must cover at least 1 sample, got "
                             f"{self.frame_shift} s at {self.sample_rate} Hz")

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


def _frame_view(samples, m, opts):
    """Read-only [m, window_size] view of the frames, unsnipped edges mirrored."""
    size, shift = opts.window_size, opts.window_shift
    # one window of mirrored samples on each side covers every centred frame
    padded = np.pad(samples, size, mode="symmetric")
    first = size if opts.snip_edges else size + shift // 2 - size // 2
    return sliding_window_view(padded, size)[first::shift][:m]


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

    frames = _frame_view(audio.samples, m, opts) * INT16_SCALE

    # at most one frame-sized temporary at a time: the noise, then the
    # squares, whose array then takes the pre-emphasis products (holding
    # one array from the dither on raised the peak RSS of short segments)
    if opts.dither > 0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(frames.shape)
        noise *= opts.dither
        frames += noise
        del noise
    if opts.remove_dc_offset:
        frames -= frames.mean(axis=1, keepdims=True)

    scratch = np.square(frames)
    raw_energy = np.log(np.maximum(scratch.sum(axis=1), TINY))

    if opts.preemph_coeff != 0:
        # every product first, so each sample still sees its predecessor
        products = scratch[:, 1:]
        np.multiply(frames[:, :-1], opts.preemph_coeff, out=products)
        frames[:, 1:] -= products
        frames[:, 0] -= opts.preemph_coeff * frames[:, 0]
    del scratch

    frames *= window_function(opts.window_type, size)
    return frames, raw_energy, frame_times(m, opts)
