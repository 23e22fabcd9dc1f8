"""Audio loading, resampling, segmentation and utterance manifests.

Audio is kept as mono float64 samples normalized to [-1, 1], together with
the sampling rate. WAV is the only supported file format (RIFF little-endian,
PCM integer 8/16/32 bit or 32 bit float, single channel).
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import ReadOnlyArrays, frozen, frozen_in_place, read_text

__all__ = [
    "Audio", "Utterance", "Utterances",
    "WavFormatError", "WavChannelError", "WavEncodingError",
    "load_wav", "write_wav", "resample", "segment", "parse_utterances",
]


class WavFormatError(ValueError):
    """Raised on a missing or malformed RIFF/WAVE header."""


class WavChannelError(WavFormatError):
    """Raised when a WAV file has more than one channel."""


class WavEncodingError(WavFormatError):
    """Raised on a sample encoding other than PCM 8/16/32 int or 32 float."""


class Audio(ReadOnlyArrays):
    """A mono audio signal: samples in [-1, 1] plus the sampling rate in Hz."""

    def __init__(self, samples, sample_rate):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"audio must be mono, got {samples.ndim} dimensions")
        if not isinstance(sample_rate, (int, np.integer)) or sample_rate <= 0:
            raise ValueError(f"sample rate must be a positive integer, got {sample_rate!r}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("audio samples must be finite")
        self.samples = frozen(samples)
        self.sample_rate = int(sample_rate)

    @property
    def nsamples(self):
        return self.samples.shape[0]

    @property
    def duration(self):
        """Signal duration in seconds."""
        return self.nsamples / self.sample_rate

    def __eq__(self, other):
        if not isinstance(other, Audio):
            return NotImplemented
        return (self.sample_rate == other.sample_rate
                and np.array_equal(self.samples, other.samples))

    def __repr__(self):
        return f"Audio({self.nsamples} samples @ {self.sample_rate} Hz)"


def _read_exactly(fp, size, path):
    """The next `size` bytes of `fp`, or WavFormatError if the file ends first."""
    data = fp.read(size)
    if len(data) < size:  # the file shrank after its chunks were checked
        raise WavFormatError(f"{path}: file changed while reading")
    return data


def _read_chunks(fp, path):
    """Yield (chunk id, payload offset, payload size) of an open RIFF file,
    each with `fp` at the start of the payload.

    Only the 8-byte chunk headers are read, and pad bytes are skipped. A
    chunk whose payload runs past the end of the file raises WavFormatError.
    """
    end = fp.seek(0, os.SEEK_END)
    pos = 12
    while pos + 8 <= end:
        fp.seek(pos)
        cid, size = struct.unpack("<4sI", _read_exactly(fp, 8, path))
        if pos + 8 + size > end:
            raise WavFormatError(f"{path}: truncated chunk {cid!r}")
        yield cid, pos + 8, size
        pos += 8 + size + (size & 1)


# the largest value of a WAV header's 32-bit size and rate fields
U32_MAX = 2**32 - 1

# (format code, bits) -> (stored dtype, offset, scale): samples are (stored - offset) / scale
_ENCODINGS = {(1, 8): ("u1", 128, 128), (1, 16): ("<i2", 0, 32768),
              (1, 32): ("<i4", 0, 2**31), (3, 32): ("<f4", 0, 1)}

# samples decoded per read of the data chunk: load_wav's only scratch
_DECODE_BLOCK = 1 << 16


def load_wav(path):
    """Load a mono WAV file into an Audio.

    Integer samples are scaled to [-1, 1] by the type's maximum magnitude
    (e.g. 2**15 for 16-bit); 32-bit float samples are taken as stored.
    The data chunk is read block by block into the one float64 array the
    Audio keeps, so the load holds the samples about once.

    Raises FileNotFoundError, WavFormatError, WavChannelError or
    WavEncodingError.
    """
    with open(path, "rb") as fp:
        head = fp.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = data = None
        for cid, start, size in _read_chunks(fp, path):
            if cid == b"fmt " and fmt is None:
                if size < 16:
                    raise WavFormatError(f"{path}: fmt chunk too short")
                fmt = struct.unpack("<HHIIHH", _read_exactly(fp, 16, path))
            elif cid == b"data" and data is None:
                data = start, size
        if fmt is None or data is None:
            raise WavFormatError(f"{path}: missing fmt or data chunk")

        code, channels, rate, _byte_rate, _block_align, bits = fmt
        if channels != 1:
            raise WavChannelError(f"{path}: expected mono, got {channels} channels")
        if rate <= 0:
            raise WavFormatError(f"{path}: invalid sample rate {rate}")

        if (code, bits) not in _ENCODINGS:
            raise WavEncodingError(f"{path}: unsupported encoding (format {code}, {bits} bit)")
        dtype, offset, scale = _ENCODINGS[code, bits]
        itemsize = np.dtype(dtype).itemsize
        # (stored - offset) / scale, one block at a time in the output itself
        samples = np.empty(data[1] // itemsize)
        fp.seek(data[0])
        for lo in range(0, samples.size, _DECODE_BLOCK):
            block = samples[lo:lo + _DECODE_BLOCK]
            block[:] = np.frombuffer(_read_exactly(fp, block.size * itemsize, path), dtype)
            if offset:
                block -= offset
            block /= scale
    return Audio(frozen_in_place(samples), int(rate))


def write_wav(path, audio):
    """Write an Audio as 16-bit PCM WAV.

    Samples are quantized with round(x * 32768) clipped to the int16 range,
    the exact inverse of the load_wav scaling: a file loaded then written
    back is bit-identical. A rate or a length that the header's 32-bit
    fields cannot hold raises a ValueError before the file is opened.
    """
    rate = audio.sample_rate
    if 2 * rate > U32_MAX or 36 + 2 * audio.nsamples > U32_MAX:
        raise ValueError(f"a WAV header cannot hold {audio.nsamples} samples "
                         f"at {rate} Hz: the byte rate and the data size "
                         f"must fit in 32 bits")
    # one float64 scratch, then the int16 payload; nothing else is copied
    scaled = np.multiply(audio.samples, 32768.0)
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    ints = scaled.astype("<i2")
    del scaled
    header = b"RIFF" + struct.pack("<I", 36 + ints.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", ints.nbytes)
    with open(path, "wb") as fp:
        fp.write(header)
        fp.write(ints)


def windowed_sinc(u, fc, half):
    """Hann-windowed sinc at float offsets `u` (samples), zero where |u| > half.

    `fc` is the low-pass cutoff in cycles per sample.
    """
    k = np.zeros_like(u)
    inside = np.abs(u) <= half
    ui = u[inside]
    k[inside] = 2.0 * fc * np.sinc(2.0 * fc * ui) * (0.5 + 0.5 * np.cos(np.pi * ui / half))
    return k


def _whole_hz(rate, name):
    """`rate` as an int, or ValueError unless it is a positive whole number."""
    if not (rate > 0 and float(rate).is_integer()):
        raise ValueError(f"{name} must be a positive whole number of Hz, got {rate!r}")
    return int(rate)


@functools.lru_cache(maxsize=8)
def _phase_table(rate_in, rate_out, cutoff, zeros, rows):
    """Base offsets and kernel weights of the first `rows` output phases.

    With g = gcd(rate_in, rate_out), p = rate_out // g and q = rate_in // g,
    output sample j + m * p sits at input position base[j] + m * q plus the
    exact phase ((j * q) % p) / p, so p phases cover every output. Row j of
    the read-only [rows, taps] table holds windowed_sinc at that phase minus
    each tap offset -hw .. hw + 1.
    """
    g = math.gcd(rate_in, rate_out)
    p, q = rate_out // g, rate_in // g
    fc = cutoff / rate_in  # cycles per input sample, <= 0.5
    half = zeros / (2.0 * fc)  # kernel half-width in input samples
    hw = int(math.ceil(half))
    j = np.arange(rows)
    base = j * q // p
    phases = (j * q % p) / p
    table = windowed_sinc(phases[:, None] - np.arange(-hw, hw + 2), fc, half)
    return frozen(base), frozen(table)


def sinc_resample(x, rate_in, rate_out, cutoff=None, zeros=64):
    """Windowed-sinc resampling of a raw sample vector, as Kaldi's LinearResample.

    The kernel is a Hann-windowed sinc with `zeros` zero crossings per side,
    low-passed at `cutoff` Hz (defaults to the smaller Nyquist frequency).
    Samples beyond the signal edges are taken as zero. Output length is
    round(n * rate_out / rate_in). Both rates must be whole numbers of Hz.

    The output phases are exact: with g = gcd(rate_in, rate_out) there are
    rate_out // g of them, and each rate pair's weight table is computed
    once and cached (see _phase_table). Each phase is then one matrix
    product of its strided input windows with its table row. Integer ratios
    give the same bits as evaluating the kernel tap by tap per output
    sample; other ratios differ from that float-positioned sum by at most
    1e-12 of the largest output magnitude.
    """
    x = np.asarray(x, dtype=np.float64)
    rate_in = _whole_hz(rate_in, "rate_in")
    rate_out = _whole_hz(rate_out, "rate_out")
    if cutoff is None:
        cutoff = 0.5 * min(rate_in, rate_out)
    if rate_in == rate_out and cutoff >= 0.5 * rate_in:
        return x.copy()
    n_out = int(round(x.shape[0] * rate_out / rate_in))
    if n_out == 0:
        return np.zeros(0)
    g = math.gcd(rate_in, rate_out)
    p, q = rate_out // g, rate_in // g
    base, table = _phase_table(rate_in, rate_out, cutoff, zeros, min(p, n_out))
    taps = table.shape[1]
    # hw + 2 zeros per side: output windows start at base + 2 in the padding
    windows = sliding_window_view(np.pad(x, taps // 2 + 1), taps)
    out = np.empty(n_out)
    for j, start in enumerate(base):
        count = len(range(j, n_out, p))
        out[j::p] = windows[start + 2::q][:count] @ table[j]
    return out


def resample(audio, target_rate):
    """Band-limited resampling of an Audio to `target_rate` Hz.

    Returns `audio` itself when the rates already match. Output length is
    round(n * target / source). The target must be a whole number of Hz.
    """
    target_rate = _whole_hz(target_rate, "target rate")
    if target_rate == audio.sample_rate:
        return audio
    # sinc_resample's output is new, so the Audio keeps it without a copy
    return Audio(frozen_in_place(
        sinc_resample(audio.samples, audio.sample_rate, target_rate)), target_rate)


def segment(audio, onset, offset):
    """Extract samples in [floor(onset*rate), floor(offset*rate))."""
    if not 0 <= onset < offset <= audio.duration:
        raise ValueError(
            f"invalid segment [{onset}, {offset}] for {audio.duration:.3f} s audio")
    lo = int(math.floor(onset * audio.sample_rate))
    hi = int(math.floor(offset * audio.sample_rate))
    # the Audio copies the slice, so a segment does not pin its recording
    return Audio(audio.samples[lo:hi], audio.sample_rate)


@dataclass(frozen=True)
class Utterance:
    """A named audio fragment with optional speaker and time bounds."""
    name: str
    audio_path: str
    speaker: str | None = None
    onset: float | None = None
    offset: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("utterance name must be non-empty")
        if (self.onset is None) != (self.offset is None):
            raise ValueError(f"{self.name}: onset and offset must be given together")
        if self.onset is not None and not 0 <= self.onset < self.offset < math.inf:
            raise ValueError(
                f"{self.name}: need 0 <= onset < offset, got [{self.onset}, {self.offset}]")


class Utterances:
    """An ordered collection of utterances with pairwise distinct names.

    Either all utterances carry a speaker or none do; mixed collections are
    rejected so that per-speaker processing is always well defined.
    """

    def __init__(self, items):
        items = tuple(items)
        names = [u.name for u in items]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate utterance names: {', '.join(dup)}")
        with_speaker = [u for u in items if u.speaker is not None]
        if with_speaker and len(with_speaker) != len(items):
            raise ValueError("either all utterances must have a speaker or none")
        self.items = items

    @property
    def has_speakers(self):
        return bool(self.items) and self.items[0].speaker is not None

    @property
    def speakers(self):
        """Map from utterance name to speaker (empty if no speakers)."""
        if not self.has_speakers:
            return {}
        return {u.name: u.speaker for u in self.items}

    def by_speaker(self):
        """Map from speaker to the list of that speaker's utterances."""
        if not self.has_speakers:
            raise ValueError("utterances have no speaker information")
        out = {}
        for u in self.items:
            out.setdefault(u.speaker, []).append(u)
        return out

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __eq__(self, other):
        if not isinstance(other, Utterances):
            return NotImplemented
        return self.items == other.items


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_utterances(path):
    """Parse a plain-text utterance manifest into an Utterances.

    Each non-blank line holds whitespace-separated fields in one of four
    shapes, the same shape for every line of the file:

        <name> <wav>
        <name> <wav> <speaker>
        <name> <wav> <onset> <offset>
        <name> <wav> <speaker> <onset> <offset>

    A third field that parses as a number selects the onset/offset shape.
    """
    return read_text(path, _utterances_from_lines)


def _utterances_from_lines(lines):
    items = []
    shape = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        n = len(tokens)
        if n == 2:
            this_shape = "name-wav"
            utt = Utterance(tokens[0], tokens[1])
        elif n == 3 and not _is_number(tokens[2]):
            this_shape = "name-wav-speaker"
            utt = Utterance(tokens[0], tokens[1], speaker=tokens[2])
        elif n == 4 and _is_number(tokens[2]) and _is_number(tokens[3]):
            this_shape = "name-wav-onset-offset"
            utt = Utterance(tokens[0], tokens[1],
                            onset=float(tokens[2]), offset=float(tokens[3]))
        elif n == 5 and _is_number(tokens[3]) and _is_number(tokens[4]):
            this_shape = "name-wav-speaker-onset-offset"
            utt = Utterance(tokens[0], tokens[1], speaker=tokens[2],
                            onset=float(tokens[3]), offset=float(tokens[4]))
        else:
            raise ValueError(f"line {lineno}: unparsable utterance line: {line!r}")
        if shape is None:
            shape = this_shape
        elif this_shape != shape:
            raise ValueError(f"line {lineno}: shape {this_shape} differs from {shape}")
        items.append(utt)
    if not items:
        raise ValueError("no utterances")
    return Utterances(items)
