"""Audio loading, resampling, segmentation and utterance manifests.

Audio is kept as mono float64 samples normalized to [-1, 1], together with
the sampling rate. WAV is the only supported file format (RIFF little-endian,
PCM integer 8/16/32 bit or 32 bit float, single channel).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

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


class Audio:
    """A mono audio signal: samples in [-1, 1] plus the sampling rate in Hz."""

    def __init__(self, samples, sample_rate):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"audio must be mono, got {samples.ndim} dimensions")
        if not isinstance(sample_rate, (int, np.integer)) or sample_rate <= 0:
            raise ValueError(f"sample rate must be a positive integer, got {sample_rate!r}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("audio samples must be finite")
        samples = samples.copy()
        samples.flags.writeable = False
        self.samples = samples
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


def _read_chunks(data, path):
    """Yield (chunk id, payload) pairs of a RIFF stream, skipping pad bytes."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        size, = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise WavFormatError(f"{path}: truncated chunk {cid!r}")
        yield cid, payload
        pos += 8 + size + (size & 1)


def load_wav(path):
    """Load a mono WAV file into an Audio.

    Integer samples are scaled to [-1, 1] by the type's maximum magnitude
    (e.g. 2**15 for 16-bit); 32-bit float samples are taken as stored.

    Raises FileNotFoundError, WavFormatError, WavChannelError or
    WavEncodingError.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    for cid, chunk in _read_chunks(data, path):
        if cid == b"fmt " and fmt is None:
            if len(chunk) < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", chunk, 0)
        elif cid == b"data" and payload is None:
            payload = chunk
    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")

    code, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise WavChannelError(f"{path}: expected mono, got {channels} channels")
    if rate <= 0:
        raise WavFormatError(f"{path}: invalid sample rate {rate}")

    if code == 1 and bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8)
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    elif code == 1 and bits == 16:
        raw = np.frombuffer(payload[:len(payload) // 2 * 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif code == 1 and bits == 32:
        raw = np.frombuffer(payload[:len(payload) // 4 * 4], dtype="<i4")
        samples = raw.astype(np.float64) / 2147483648.0
    elif code == 3 and bits == 32:
        raw = np.frombuffer(payload[:len(payload) // 4 * 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise WavEncodingError(f"{path}: unsupported encoding (format {code}, {bits} bit)")
    return Audio(samples, int(rate))


def write_wav(path, audio):
    """Write an Audio as 16-bit PCM WAV.

    Samples are quantized with round(x * 32768) clipped to the int16 range,
    the exact inverse of the load_wav scaling: a file loaded then written
    back is bit-identical.
    """
    ints = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    rate = audio.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fp:
        fp.write(header + payload)


def windowed_sinc(u, fc, half):
    """Hann-windowed sinc at float offsets `u` (samples), zero where |u| > half.

    `fc` is the low-pass cutoff in cycles per sample.
    """
    k = np.zeros_like(u)
    inside = np.abs(u) <= half
    ui = u[inside]
    k[inside] = 2.0 * fc * np.sinc(2.0 * fc * ui) * (0.5 + 0.5 * np.cos(np.pi * ui / half))
    return k


def sinc_resample(x, rate_in, rate_out, cutoff=None, zeros=64):
    """Windowed-sinc resampling of a raw sample vector.

    The kernel is a Hann-windowed sinc with `zeros` zero crossings per side,
    low-passed at `cutoff` Hz (defaults to the smaller Nyquist frequency).
    Samples beyond the signal edges are taken as zero. Output length is
    round(n * rate_out / rate_in).

    Output sample i sits at input position i * rate_in / rate_out; its
    fractional part (the phase) alone sets the kernel weights, so each tap's
    kernel is evaluated once per distinct phase and gathered for every
    output sample, as in Kaldi's LinearResample. Taps are accumulated one at
    a time in a fixed order.
    """
    x = np.asarray(x, dtype=np.float64)
    if cutoff is None:
        cutoff = 0.5 * min(rate_in, rate_out)
    if rate_in == rate_out and cutoff >= 0.5 * rate_in:
        return x.copy()
    n_out = int(round(x.shape[0] * rate_out / rate_in))
    if n_out == 0:
        return np.zeros(0)
    fc = cutoff / rate_in  # cycles per input sample, <= 0.5
    half = zeros / (2.0 * fc)  # kernel half-width in input samples
    hw = int(math.ceil(half))
    pos = np.arange(n_out) * (rate_in / rate_out)
    base = np.floor(pos).astype(np.int64)
    phases, phase_of = np.unique(pos - base, return_inverse=True)
    xp = np.pad(x, hw + 2)
    out = np.zeros(n_out)
    for d in range(-hw, hw + 2):
        k = windowed_sinc(phases - d, fc, half)  # output position minus tap
        out += xp[base + d + hw + 2] * k[phase_of]
    return out


def resample(audio, target_rate):
    """Band-limited resampling of an Audio to `target_rate` Hz.

    Returns `audio` itself when the rates already match. Output length is
    round(n * target / source).
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if target_rate == audio.sample_rate:
        return audio
    return Audio(sinc_resample(audio.samples, audio.sample_rate, target_rate),
                 int(target_rate))


def segment(audio, onset, offset):
    """Extract samples in [floor(onset*rate), floor(offset*rate))."""
    if not 0 <= onset < offset <= audio.duration:
        raise ValueError(
            f"invalid segment [{onset}, {offset}] for {audio.duration:.3f} s audio")
    lo = int(math.floor(onset * audio.sample_rate))
    hi = int(math.floor(offset * audio.sample_rate))
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
        if self.onset is not None and not 0 <= self.onset < self.offset:
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
    with open(path, "r", encoding="utf-8") as fp:
        lines = [(i + 1, line.strip()) for i, line in enumerate(fp)]

    items = []
    shape = None
    for lineno, line in lines:
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
            raise ValueError(f"{path}:{lineno}: unparsable utterance line: {line!r}")
        if shape is None:
            shape = this_shape
        elif this_shape != shape:
            raise ValueError(
                f"{path}:{lineno}: line shape {this_shape} differs from {shape}")
        items.append(utt)
    return Utterances(items)
