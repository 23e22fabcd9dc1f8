import io
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from speechfeatures import (Audio, Utterance, Utterances, WavChannelError,
                            WavEncodingError, WavFormatError, load_wav,
                            parse_utterances, resample, segment, write_wav)
from speechfeatures import audio as audio_module
from speechfeatures.audio import _phase_table, sinc_resample, windowed_sinc

from conftest import error_naming_file, make_tone


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

    @pytest.mark.parametrize("data, message", [
        # the data chunk declares 16 bytes and holds 12
        (wav_bytes(np.zeros(8, "<i2").tobytes())[:-4], "truncated chunk b'data'"),
        (b"RIFF" + struct.pack("<I", 28) + b"WAVE"
         + b"fmt " + struct.pack("<IHHI", 8, 1, 1, 16000)
         + b"data" + struct.pack("<I", 0), "fmt chunk too short"),
        (wav_bytes(b"")[:-8], "missing fmt or data chunk"),
        (wav_bytes(b"")[:12] + wav_bytes(b"")[-8:], "missing fmt or data chunk"),
        (wav_bytes(np.zeros(4, "<i2").tobytes(), rate=0), "invalid sample rate 0"),
    ], ids=["truncated-chunk", "short-fmt", "no-data", "no-fmt", "zero-rate"])
    def test_format_errors_name_the_file(self, tmp_path, data, message):
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        with pytest.raises(WavFormatError) as info:
            load_wav(path)
        assert str(info.value) == f"{path}: {message}"

    def test_load_holds_the_samples_about_twice(self, tmp_path):
        # a loose bound; the next test holds a load to 1.5 times the samples
        n = 200000
        ints = int16_noise(n, seed=3)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(ints.astype("<i2").tobytes()))
        tracemalloc.start()
        try:
            audio = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(audio.samples, ints / 32768.0)
        assert peak < 2.4 * 8 * n

    @pytest.mark.parametrize("dtype, bits, code, offset, scale", [
        ("u1", 8, 1, 128, 128), ("<i2", 16, 1, 0, 32768),
        ("<i4", 32, 1, 0, 2**31), ("<f4", 32, 3, 0, 1)])
    def test_decodes_into_the_samples_it_keeps(self, tmp_path, dtype, bits,
                                               code, offset, scale):
        # more than one read block (2**16 samples), the last one partial
        n = 200000
        rng = np.random.default_rng(bits + code)
        if dtype == "<f4":
            stored = rng.uniform(-1, 1, n).astype(dtype)
        else:
            info = np.iinfo(dtype)
            stored = rng.integers(info.min, info.max, n, endpoint=True).astype(dtype)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(stored.tobytes(), bits=bits, code=code))
        tracemalloc.start()
        try:
            audio = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = (stored.astype(np.float64) - offset) / scale
        assert audio.samples.tobytes() == expected.tobytes()
        # the samples and one read block (1.13-1.17); the decode that kept
        # the file's bytes and scaled into new arrays read 2.13-2.50
        assert peak <= 1.5 * 8 * n
        assert audio.samples.flags.owndata and not audio.samples.flags.writeable

    def test_a_partial_last_sample_is_dropped(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = np.array([2 ** 30, -2 ** 31], "<i4").tobytes() + b"\x01\x02"
        path.write_bytes(wav_bytes(payload, bits=32))
        assert np.array_equal(load_wav(path).samples, [0.5, -1.0])

    def test_a_read_cut_short_names_the_file(self):
        # a file that shrinks after its chunks were checked
        with pytest.raises(WavFormatError) as info:
            audio_module._read_exactly(io.BytesIO(b"abc"), 4, "x.wav")
        assert str(info.value) == "x.wav: file changed while reading"

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ints = rng.integers(-32768, 32768, size=2000).astype("<i2")
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(ints.tobytes()))
        audio = load_wav(path)
        out = tmp_path / "y.wav"
        write_wav(out, audio)
        assert path.read_bytes() == out.read_bytes()


def test_write_wav_holds_the_samples_about_once(tmp_path):
    # one float64 scratch and the int16 payload: 5 times the payload
    n = 200000
    ints = int16_noise(n, seed=4)
    audio = Audio(ints / 32768.0, 16000)
    path = tmp_path / "x.wav"
    tracemalloc.start()
    try:
        write_wav(path, audio)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == wav_bytes(ints.astype("<i2").tobytes())
    assert peak <= 5.5 * 2 * n


def test_write_wav_refuses_a_rate_the_header_cannot_hold(tmp_path):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=re.escape(
            f"a WAV header cannot hold 4 samples at {2**31} Hz")):
        write_wav(path, Audio(np.zeros(4), 2**31))
    assert not path.exists()


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

    def test_equality_and_repr(self):
        audio = Audio([0.0, 0.5, -0.5], 8000)
        assert audio == Audio(np.array([0.0, 0.5, -0.5]), 8000)
        assert audio != Audio([0.0, 0.5, -0.5], 16000)
        assert audio != Audio([0.0, 0.5, 0.5], 8000)
        assert audio != "Audio(3 samples @ 8000 Hz)"
        assert repr(audio) == "Audio(3 samples @ 8000 Hz)"


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

    def test_keeps_the_resampled_array_without_a_copy(self, monkeypatch):
        made = []

        def recording(*args, **kwargs):
            made.append(sinc_resample(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(audio_module, "sinc_resample", recording)
        out = resample(make_tone(440, duration=0.1), 8000)
        assert out.samples is made[0] and not out.samples.flags.writeable

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


def int16_noise(nsamples, seed):
    """Uniform noise on the int16 sample scale, as integer-valued floats."""
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(-32768, 32767, nsamples))


class TestSincResampleEqualRates:
    def test_equal_rates_give_an_exact_copy(self):
        x = np.random.default_rng(3).uniform(-1, 1, 500)
        out = sinc_resample(x, 16000, 16000)
        assert np.array_equal(out, x)
        assert not np.shares_memory(out, x)


class TestSincResampleExact:
    """The cached per-phase tables against the per-sample tap loop.

    Integer ratios have the same phases in both and agree bit for bit. At
    other ratios the tap loop rounds its float positions while the tables
    take the exact gcd phases, so the two agree to a stated tolerance of
    1e-12 of the largest output magnitude.
    """

    CASES = [
        (22050, 16000, {}),
        (16000, 4000, {"cutoff": 1000, "zeros": 9}),
        (16000, 16001, {}),
        (8000, 16000, {}),
        (44100, 16000, {}),
        (16000, 16000, {"cutoff": 1000}),
    ]

    @pytest.mark.parametrize("rate_in, rate_out, kwargs", CASES)
    def test_matches_tap_loop(self, rate_in, rate_out, kwargs):
        x = np.random.default_rng(rate_in + rate_out).standard_normal(rate_in // 5)
        self.assert_matches(x, rate_in, rate_out, kwargs)

    @pytest.mark.parametrize("rate_in, rate_out, kwargs", CASES)
    def test_matches_tap_loop_on_int16_scale(self, rate_in, rate_out, kwargs):
        x = int16_noise(rate_in // 5, rate_in + rate_out)
        self.assert_matches(x, rate_in, rate_out, kwargs)

    @staticmethod
    def assert_matches(x, rate_in, rate_out, kwargs):
        out = sinc_resample(x, rate_in, rate_out, **kwargs)
        old = tap_loop_resample(x, rate_in, rate_out, **kwargs)
        if max(rate_in, rate_out) % min(rate_in, rate_out) == 0:
            assert np.array_equal(out, old)
        else:
            assert out.shape == old.shape
            assert np.abs(out - old).max() <= 1e-12 * np.abs(old).max()

    @pytest.mark.parametrize("nsamples, expected", [(1, 0), (2, 1), (3, 1)])
    def test_tiny_inputs(self, nsamples, expected):
        x = np.arange(1.0, nsamples + 1.0)
        out = sinc_resample(x, 44100, 16000)
        assert out.shape == (expected,)
        assert np.array_equal(out, tap_loop_resample(x, 44100, 16000))


class TestPhaseTable:
    @pytest.mark.parametrize("rate_in, rate_out, cutoff, zeros", [
        (22050, 16000, 8000.0, 64),
        (16000, 4000, 1000, 9),
        (8000, 16000, 4000.0, 64)])
    def test_rows_are_the_kernel_at_exact_phases(self, rate_in, rate_out,
                                                 cutoff, zeros):
        g = math.gcd(rate_in, rate_out)
        p, q = rate_out // g, rate_in // g
        base, table = _phase_table(rate_in, rate_out, cutoff, zeros, p)
        fc = cutoff / rate_in
        half = zeros / (2.0 * fc)
        hw = math.ceil(half)
        assert table.shape == (p, 2 * hw + 2)
        for j in range(p):
            assert base[j] == (j * q) // p
            offsets = ((j * q) % p) / p - np.arange(-hw, hw + 2)
            assert np.array_equal(table[j], windowed_sinc(offsets, fc, half))

    def test_second_call_hits_the_cache(self):
        x = int16_noise(2205, 5)
        sinc_resample(x, 22050, 16000)
        hits = _phase_table.cache_info().hits
        sinc_resample(x[::-1], 22050, 16000)
        assert _phase_table.cache_info().hits == hits + 1

    def test_table_is_read_only(self):
        base, table = _phase_table(22050, 16000, 8000.0, 64, 320)
        for array in base, table:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_short_call_builds_no_more_rows_than_outputs(self, monkeypatch):
        # 16000 -> 16001 has 16001 phases; 0.2 s needs only 3200 of them
        evaluated = []

        def recording(u, fc, half):
            evaluated.append(u.shape)
            return windowed_sinc(u, fc, half)

        monkeypatch.setattr(audio_module, "windowed_sinc", recording)
        _phase_table.cache_clear()
        out = sinc_resample(int16_noise(3200, 6), 16000, 16001)
        assert out.shape == (3200,)
        assert [shape[0] for shape in evaluated] == [3200]


class TestWholeRates:
    def test_resample_rejects_fractional_target(self):
        with pytest.raises(ValueError, match="8000.5"):
            resample(make_tone(440), 8000.5)

    @pytest.mark.parametrize("rate_in, rate_out, message", [
        (16000.5, 8000, "rate_in .* 16000.5"),
        (16000, 8000.25, "rate_out .* 8000.25")])
    def test_sinc_resample_rejects_fractional_rate(self, rate_in, rate_out,
                                                   message):
        with pytest.raises(ValueError, match=message):
            sinc_resample(np.zeros(100), rate_in, rate_out)


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
        # a copy of its own: the segment does not keep the recording alive
        assert out.samples.flags.owndata

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

    @pytest.mark.parametrize("data, expected", [
        (b"u1 a.wav\nu2 \xff.wav\n", "can't decode byte 0xff"),
        (b"u1 a.wav\nu1 b.wav\n", "duplicate utterance names: u1"),
        (b"u1\n", "line 1: unparsable"),
        (b"u1 a.wav spk1\nu2 b.wav\n", "line 2: shape name-wav differs"),
        (b"u1 a.wav 2.0 1.0\n", "u1: need 0 <= onset < offset"),
        (b"b x.wav 1 inf\n", "b: need 0 <= onset < offset, got [1.0, inf]")],
        ids=["not-utf8", "duplicate", "unparsable", "shape", "bounds",
             "infinite-bound"])
    def test_errors_name_the_file_once(self, tmp_path, data, expected):
        path = tmp_path / "utts.txt"
        path.write_bytes(data)
        assert expected in error_naming_file(path, parse_utterances, path)

    def test_line_ends_as_iterated(self, tmp_path):
        # a form feed separates fields but ends no line of an iterated file
        path = tmp_path / "utts.txt"
        path.write_bytes(b"u1 a.wav\x0cs1\r\nu2 b.wav s2\ru3 c.wav s3\n")
        utts = parse_utterances(path)
        assert [u.speaker for u in utts] == ["s1", "s2", "s3"]

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

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="^utterance name must be non-empty$"):
            Utterance("", "a.wav")

    def test_no_speakers(self):
        utts = Utterances([Utterance("a", "a.wav"), Utterance("b", "b.wav")])
        assert utts.speakers == {}
        with pytest.raises(ValueError,
                           match="^utterances have no speaker information$"):
            utts.by_speaker()

    def test_equality(self):
        items = [Utterance("a", "a.wav", speaker="s1"),
                 Utterance("b", "b.wav", speaker="s2")]
        assert Utterances(items) == Utterances(list(items))
        assert Utterances(items) != Utterances(items[::-1])
        assert Utterances(items) != Utterances(items[:1])
        assert Utterances(items) != items
