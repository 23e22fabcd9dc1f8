import math
import struct

import numpy as np
import pytest

from speechfeatures import (Audio, Utterance, Utterances, WavChannelError,
                            WavEncodingError, WavFormatError, load_wav,
                            parse_utterances, resample, segment, write_wav)
from speechfeatures.audio import sinc_resample

from conftest import make_tone


def wav_bytes(payload, channels=1, rate=16000, bits=16, code=1):
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, code, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


class TestLoadWav:
    def test_16bit_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(np.array([0, 16384, -32768], "<i2").tobytes()))
        audio = load_wav(path)
        assert np.array_equal(audio.samples, [0.0, 0.5, -1.0])

    def test_header_contract(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(np.zeros(16000, "<i2").tobytes()))
        audio = load_wav(path)
        assert audio.nsamples == 16000
        assert audio.sample_rate == 16000
        assert audio.duration == 1.0

    def test_8bit_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(bytes([128, 255, 0]), bits=8))
        audio = load_wav(path)
        assert np.allclose(audio.samples, [0.0, 127 / 128, -1.0])

    def test_32bit_int(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = np.array([2 ** 30, -2 ** 31], "<i4").tobytes()
        path.write_bytes(wav_bytes(payload, bits=32))
        audio = load_wav(path)
        assert np.array_equal(audio.samples, [0.5, -1.0])

    def test_float32(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = np.array([0.25, -0.5], "<f4").tobytes()
        path.write_bytes(wav_bytes(payload, bits=32, code=3))
        audio = load_wav(path)
        assert np.array_equal(audio.samples, [0.25, -0.5])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(np.zeros(64, "<i2").tobytes(), channels=2))
        with pytest.raises(WavChannelError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"NOT A WAVE FILE AT ALL")
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(b"\x00" * 64, bits=24))
        with pytest.raises(WavEncodingError):
            load_wav(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ints = rng.integers(-32768, 32768, size=2000).astype("<i2")
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(ints.tobytes()))
        audio = load_wav(path)
        out = tmp_path / "y.wav"
        write_wav(out, audio)
        assert path.read_bytes() == out.read_bytes()


class TestAudio:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Audio([0.0, np.nan], 16000)

    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            Audio(np.zeros((10, 2)), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Audio(np.zeros(10), 0)

    def test_immutable(self):
        audio = Audio(np.zeros(4), 8000)
        with pytest.raises(ValueError):
            audio.samples[0] = 1.0


def dominant_frequency(audio):
    spectrum = np.abs(np.fft.rfft(audio.samples))
    return np.argmax(spectrum) * audio.sample_rate / audio.nsamples


class TestResample:
    def test_identity(self):
        audio = make_tone(440)
        assert resample(audio, 16000) is audio

    def test_downsample_keeps_tone(self):
        audio = make_tone(440, duration=1.0, rate=48000)
        out = resample(audio, 16000)
        assert out.sample_rate == 16000
        bin_width = 16000 / out.nsamples
        assert abs(dominant_frequency(out) - 440) <= bin_width

    def test_length_ratio(self):
        audio = Audio(np.zeros(16000), 16000)
        assert resample(audio, 8000).nsamples == 8000

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample(make_tone(440), 0)

    def test_round_trip_peak(self):
        audio = make_tone(1000, duration=0.5, rate=16000)
        back = resample(resample(audio, 8000), 16000)
        bin_width = 16000 / back.nsamples
        assert abs(dominant_frequency(back) - 1000) <= bin_width

    def test_upsample(self):
        audio = make_tone(440, duration=0.5, rate=16000)
        out = resample(audio, 48000)
        assert out.nsamples == 24000
        bin_width = 48000 / out.nsamples
        assert abs(dominant_frequency(out) - 440) <= bin_width

    def test_custom_cutoff_removes_band(self):
        # tone above the cutoff must disappear even at unchanged rate;
        # the onset/offset transients are broadband, so measure the interior
        audio = make_tone(3000, duration=0.5, rate=16000)
        filtered = sinc_resample(audio.samples, 16000, 16000, cutoff=1000)
        assert np.abs(filtered[600:-600]).max() < 1e-6 * np.abs(audio.samples).max()


def tap_loop_resample(x, rate_in, rate_out, cutoff=None, zeros=64):
    """Reference resampler: the kernel evaluated for every tap and sample."""
    x = np.asarray(x, dtype=np.float64)
    if cutoff is None:
        cutoff = 0.5 * min(rate_in, rate_out)
    n_out = int(round(x.shape[0] * rate_out / rate_in))
    if n_out == 0:
        return np.zeros(0)
    fc = cutoff / rate_in
    half = zeros / (2.0 * fc)
    hw = int(math.ceil(half))
    pos = np.arange(n_out) * (rate_in / rate_out)
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    xp = np.pad(x, hw + 2)
    out = np.zeros(n_out)
    for d in range(-hw, hw + 2):
        u = frac - d
        k = np.zeros_like(u)
        m = np.abs(u) <= half
        um = u[m]
        k[m] = 2.0 * fc * np.sinc(2.0 * fc * um) * (0.5 + 0.5 * np.cos(np.pi * um / half))
        out += xp[base + d + hw + 2] * k
    return out


class TestSincResampleExact:
    """The per-phase kernel equals the per-sample tap loop bit for bit."""

    @pytest.mark.parametrize("rate_in, rate_out, kwargs", [
        (22050, 16000, {}),
        (16000, 4000, {"cutoff": 1000, "zeros": 9}),
        (16000, 16001, {}),
        (8000, 16000, {}),
        (44100, 16000, {}),
        (16000, 16000, {"cutoff": 1000}),
    ])
    def test_matches_tap_loop(self, rate_in, rate_out, kwargs):
        x = np.random.default_rng(rate_in + rate_out).standard_normal(rate_in // 5)
        out = sinc_resample(x, rate_in, rate_out, **kwargs)
        assert np.array_equal(out, tap_loop_resample(x, rate_in, rate_out, **kwargs))

    @pytest.mark.parametrize("nsamples, expected", [(1, 0), (2, 1), (3, 1)])
    def test_tiny_inputs(self, nsamples, expected):
        x = np.arange(1.0, nsamples + 1.0)
        out = sinc_resample(x, 44100, 16000)
        assert out.shape == (expected,)
        assert np.array_equal(out, tap_loop_resample(x, 44100, 16000))


class TestSegment:
    def test_full(self):
        audio = make_tone(440)
        out = segment(audio, 0.0, 1.0)
        assert np.array_equal(out.samples, audio.samples)

    def test_quarter(self):
        audio = make_tone(440)
        out = segment(audio, 0.25, 0.5)
        assert out.nsamples == 4000
        assert np.array_equal(out.samples, audio.samples[4000:8000])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            segment(make_tone(440), 0.5, 1.5)

    def test_inverted(self):
        with pytest.raises(ValueError):
            segment(make_tone(440), 0.5, 0.25)


class TestParseUtterances:
    def parse(self, tmp_path, text):
        path = tmp_path / "utts.txt"
        path.write_text(text, encoding="utf-8")
        return parse_utterances(path)

    def test_name_wav_speaker(self, tmp_path):
        utts = self.parse(tmp_path, "u1 a.wav spk1\nu2 b.wav spk2\n")
        first = utts.items[0]
        assert first.name == "u1"
        assert first.audio_path == "a.wav"
        assert first.speaker == "spk1"
        assert first.onset is None

    def test_name_wav(self, tmp_path):
        utts = self.parse(tmp_path, "u1 a.wav\n")
        assert utts.items[0].speaker is None

    def test_onset_offset(self, tmp_path):
        utts = self.parse(tmp_path, "u1 a.wav 0.5 2.0\n")
        utt = utts.items[0]
        assert utt.speaker is None
        assert utt.onset == 0.5
        assert utt.offset == 2.0

    def test_speaker_onset_offset(self, tmp_path):
        utts = self.parse(tmp_path, "u1 a.wav spk1 0.5 2.0\n")
        utt = utts.items[0]
        assert utt.speaker == "spk1"
        assert (utt.onset, utt.offset) == (0.5, 2.0)

    def test_duplicate_names(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            self.parse(tmp_path, "u1 a.wav\nu1 b.wav\n")

    def test_inconsistent_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            self.parse(tmp_path, "u1 a.wav spk1\nu2 b.wav\n")

    def test_unparsable(self, tmp_path):
        with pytest.raises(ValueError, match="unparsable"):
            self.parse(tmp_path, "u1\n")

    def test_numeric_third_field_needs_offset(self, tmp_path):
        with pytest.raises(ValueError, match="unparsable"):
            self.parse(tmp_path, "u1 a.wav 0.5\n")

    def test_blank_lines_skipped(self, tmp_path):
        utts = self.parse(tmp_path, "\nu1 a.wav\n\nu2 b.wav\n")
        assert len(utts) == 2


class TestUtterances:
    def test_mixed_speakers_rejected(self):
        with pytest.raises(ValueError):
            Utterances([Utterance("a", "a.wav", speaker="s"),
                        Utterance("b", "b.wav")])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Utterance("a", "a.wav", onset=2.0, offset=1.0)
        with pytest.raises(ValueError):
            Utterance("a", "a.wav", onset=1.0)

    def test_by_speaker(self):
        utts = Utterances([Utterance("a", "a.wav", speaker="s1"),
                           Utterance("b", "b.wav", speaker="s2"),
                           Utterance("c", "c.wav", speaker="s1")])
        groups = utts.by_speaker()
        assert sorted(groups) == ["s1", "s2"]
        assert [u.name for u in groups["s1"]] == ["a", "c"]
        assert utts.speakers == {"a": "s1", "b": "s2", "c": "s1"}
