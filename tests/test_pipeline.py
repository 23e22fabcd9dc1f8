import concurrent.futures
import dataclasses
import gc
import importlib.util
import os
import pickle
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from speechfeatures import (Audio, ExtractionError, FeaturesCollection,
                            PipelineConfig, PitchOptions, Utterance,
                            Utterances, VtlnOptions,
                            compute_mel_banks, default_config,
                            extract_features, load_wav, mfcc, read_config,
                            write_config, write_wav)
from speechfeatures import pipeline
from speechfeatures.pipeline import (FEATURE_OPTIONS, _warped_mfccs,
                                     config_from_dict, config_to_dict,
                                     config_to_text, derive_seed)
from speechfeatures.speaker import estimate_warps, warp_grid
from speechfeatures.spectral import MfccOptions, PlpOptions, SpectrogramOptions

from conftest import config_error, error_naming_file, make_voweled


@pytest.fixture
def corpus(tmp_path):
    """Three short speakered utterances on disk."""
    items = []
    for i, (name, speaker, f0) in enumerate(
            [("utt1", "spk1", 120), ("utt2", "spk1", 130), ("utt3", "spk2", 210)]):
        path = tmp_path / f"{name}.wav"
        write_wav(path, make_voweled(f0, [600 + 40 * i, 1400, 2500],
                                     duration=0.4, seed=i))
        items.append(Utterance(name, str(path), speaker=speaker))
    return Utterances(items)


def small_vtln_config(seed=0):
    """mfcc + vtln with a UBM and search small enough for a 3-item corpus."""
    config = default_config("mfcc", with_vtln=True, seed=seed)
    ubm = dataclasses.replace(config.vtln.ubm, num_gauss=4, num_iters=1,
                              num_iters_init=3)
    return dataclasses.replace(
        config, vtln=dataclasses.replace(config.vtln, num_iters=2, ubm=ubm))


def _load_tracer():
    """bench/tracer.py, loaded by path (bench/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    """bench/tracer.py wraps functions by the names the program calls them by."""
    tracer = _load_tracer()
    for _, places, _ in tracer.TRACED:
        for module_name, attribute in places:
            module = importlib.import_module("speechfeatures." + module_name)
            assert callable(getattr(module, attribute, None)), (module_name,
                                                                attribute)
    pipeline = importlib.import_module("speechfeatures.pipeline")
    for features in FEATURE_OPTIONS:
        assert callable(getattr(pipeline, features, None)), features


def test_every_traced_span_is_reached(tmp_path):
    """Command line sessions still call every name bench/tracer.py wraps."""
    tracer = _load_tracer()
    cli = importlib.import_module("speechfeatures.cli")

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    for i, (name, f0) in enumerate([("a1", 120), ("a2", 130), ("b1", 210)]):
        write_wav(tmp_path / f"{name}.wav",
                  make_voweled(f0, [600 + 40 * i, 1400], duration=0.3, seed=i))
    write_wav(tmp_path / "rec.wav", make_voweled(150, [700, 1200], duration=0.7,
                                                 rate=22050))
    speakers = tmp_path / "speakers.txt"
    speakers.write_text("".join(f"{n} {tmp_path}/{n}.wav {n[0]}\n"
                                for n in ("a1", "a2", "b1")))
    segments = tmp_path / "segments.txt"
    segments.write_text("".join(f"s{k} {tmp_path}/rec.wav {k / 5} {k / 5 + 0.2}\n"
                                for k in range(3)))
    (tmp_path / "triplets.txt").write_text("s0 s1 s2\n")
    one = tmp_path / "one.txt"
    one.write_text(f"a1 {tmp_path}/a1.wav\n")
    configs = {name: tmp_path / f"{name}.txt"
               for name in ("vtln", "plp", "spectrogram", "filterbank")}

    spans = tracer.Tracer()
    spans.install()
    try:
        run("config", "mfcc", "--pitch", "kaldi", "--delta", "--cmvn", "--vtln",
            "-o", configs["vtln"])
        text = configs["vtln"].read_text()
        configs["vtln"].write_text(text.replace("  num_iters: 15\n", "  num_iters: 2\n")
                                   .replace("num_gauss: 64", "num_gauss: 4"))
        run("extract", configs["vtln"], speakers, tmp_path / "vtln.bin", "--njobs", 1)
        run("config", "plp", "--delta", "-o", configs["plp"])
        run("extract", configs["plp"], segments, tmp_path / "plp.bin", "--njobs", 1)
        run("eval", "abx", tmp_path / "triplets.txt", tmp_path / "plp.bin")
        for name in ("spectrogram", "filterbank"):
            run("config", name, "-o", configs[name])
            run("extract", configs[name], one, tmp_path / f"{name}.bin", "--njobs", 1)
    finally:
        spans.uninstall()

    # abx_score sweeps all pairs in one batched DTW and no longer calls
    # dtw_cosine (the FOUND line of CHANGES.md on evaluate.dtw_ms reading 0)
    expected = {name for name, _, _ in tracer.TRACED} - {"evaluate.dtw_cosine"}
    assert expected - {span[1] for span in spans.spans} == set()


class TestDefaultConfig:
    def test_mfcc_defaults(self):
        config = default_config("mfcc", with_pitch=True)
        assert config.options.num_ceps == 13
        assert config.options.cepstral_lifter == 22.0
        assert config.pitch.min_f0 == 50.0
        assert config.pitch.nccf_ballast == 7000.0
        assert config.pitch_post.pov_scale == 2.0

    def test_spectrogram_with_vtln_rejected(self):
        with pytest.raises(ValueError, match="spectrogram"):
            default_config("spectrogram", with_vtln=True)

    def test_unknown_features(self):
        with pytest.raises(ValueError):
            default_config("cochleagram")

    def test_wrong_options_type_rejected(self):
        with pytest.raises(ValueError, match="options"):
            PipelineConfig(features="mfcc", options=SpectrogramOptions())

    def test_pitch_without_post_processing_rejected(self):
        with pytest.raises(ValueError, match="^pitch and pitch post-processing "
                           "go together$"):
            PipelineConfig(features="mfcc", options=MfccOptions(),
                           pitch=PitchOptions())

    def test_vtln_defaults(self):
        config = default_config("mfcc", with_vtln=True)
        assert config.vtln.min_warp == 0.85
        assert config.vtln.max_warp == 1.15
        assert config.vtln.ubm.num_gauss == 64


class TestConfigFile:
    @pytest.mark.parametrize("features", list(FEATURE_OPTIONS))
    def test_round_trip_plain(self, tmp_path, features):
        config = default_config(features)
        path = tmp_path / "config.txt"
        write_config(config, path)
        assert read_config(path) == config

    def test_round_trip_full(self, tmp_path):
        config = default_config("mfcc", with_pitch=True, with_delta=True,
                                with_cmvn=True, with_vtln=True, seed=77)
        path = tmp_path / "config.txt"
        write_config(config, path)
        back = read_config(path)
        assert back == config
        assert back.seed == 77

    def test_dict_round_trip(self):
        config = default_config("plp", with_pitch=True, with_delta=True)
        assert config_from_dict(config_to_dict(config)) == config

    def test_hand_edited_value(self, tmp_path):
        config = default_config("mfcc")
        path = tmp_path / "config.txt"
        write_config(config, path)
        text = path.read_text().replace("num_ceps: 13", "num_ceps: 20")
        path.write_text(text)
        assert read_config(path).options.num_ceps == 20

    def test_int_read_as_float_for_a_float_option(self, tmp_path):
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc"), path)
        path.write_text(path.read_text().replace("energy_floor: 0.0",
                                                 "energy_floor: 1"))
        config = read_config(path)
        assert type(config.options.energy_floor) is float
        assert config.options.energy_floor == 1.0

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = default_config("mfcc")
        path = tmp_path / "config.txt"
        write_config(config, path)
        path.write_text("# a comment\n\n" + path.read_text())
        assert read_config(path) == config

    def test_parameters_use_published_names(self, tmp_path):
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc", with_pitch=True), path)
        text = path.read_text()
        for name in ("sample_rate", "frame_shift", "frame_length", "dither",
                     "preemph_coeff", "remove_dc_offset", "window_type",
                     "snip_edges", "num_bins", "low_freq", "high_freq",
                     "vtln_low", "vtln_high", "num_ceps", "cepstral_lifter",
                     "min_f0", "max_f0", "soft_min_f0", "penalty_factor",
                     "lowpass_cutoff", "resample_freq", "delta_pitch",
                     "nccf_ballast", "pitch_scale", "pov_scale",
                     "delta_pitch_scale", "delta_pitch_noise_stddev",
                     "delta_window", "delay"):
            assert f"{name}:" in text, name

    def test_missing_block_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("features: mfcc\nseed: 0\n")
        with pytest.raises(ValueError, match="block"):
            read_config(path)

    @pytest.mark.parametrize("old, new, line, key", [
        # a second vtln block, typo included, ahead of the generated one
        ("vtln:\n", "vtln:\n  ubm:\n    num_gaus: 8\nvtln:\n", 31, "vtln"),
        ("seed: 0\n", "seed: 1\nseed: 2\n", 3, "seed"),
        ("  num_ceps: 13\n", "  num_ceps: 13\n  num_ceps: 20\n", 21, "num_ceps"),
    ], ids=["block", "top-level", "in-block"])
    def test_repeated_key_rejected_naming_line(self, tmp_path, old, new, line,
                                               key):
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc", with_delta=True, with_cmvn=True,
                                    with_vtln=True), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError,
                           match=f"line {line}: repeated key '{key}'"):
            read_config(path)

    @pytest.mark.parametrize("old, new, message", [
        ("  num_ceps: 13\n", "  num_ceps 13\n",
         "line 20: expected 'key: value' or 'key:'"),
        # deeper than the keys of the block it sits in
        ("  num_ceps: 13\n", "    num_ceps: 13\n",
         "line 20: indentation does not match"),
        ("mfcc:\n", "mfcc:\n    sample_rate: 16000\n",
         "line 4: indentation does not match"),
    ], ids=["no-colon", "over-indented-after-value", "over-indented-block"])
    def test_malformed_line_names_file_and_line(self, tmp_path, old, new,
                                                message):
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc"), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        assert error_naming_file(path, read_config, path) == f"{path}: {message}"

    def test_pitch_post_processing_without_pitch_names_file(self, tmp_path):
        path = tmp_path / "config.txt"
        config = default_config("mfcc", with_pitch=True)
        text = config_to_text(config)
        start = text.index("pitch:\n")
        end = text.index("pitch_postprocessing:\n")
        path.write_text(text[:start] + text[end:])
        assert error_naming_file(path, read_config, path) == (
            f"{path}: pitch and pitch post-processing go together")

    @pytest.mark.parametrize("options, edits, message", [
        (MfccOptions(), {"min_warp": 0.05}, "warp 0.05: mel bin 4 has no FFT "
         "bin support (nfft 512 too small)"),
        # inside the grid: 0.41 and 0.43 build, 0.42 does not
        (MfccOptions(sample_rate=8000, num_bins=60), {"min_warp": 0.41},
         "warp 0.42: mel bin 36 has no FFT bin support (nfft 256 too small)"),
        # the features' 512-point FFT builds at 0.1; the search's 256 does not
        (MfccOptions(sample_rate=8000, frame_length=0.05), {"min_warp": 0.1},
         "warp 0.1: mel bin 5 has no FFT bin support (nfft 256 too small)"),
        (PlpOptions(vtln_low=2000.0, vtln_high=-3900.0), {"min_warp": 0.45},
         "warp 0.45: vtln inflection points cross for warp 0.45"),
    ], ids=["low-end", "inside-grid", "search-options", "inflections"])
    def test_warp_grid_checked_at_load(self, tmp_path, options, edits, message):
        features = {MfccOptions: "mfcc", PlpOptions: "plp"}[type(options)]
        config = dataclasses.replace(default_config(features, with_vtln=True),
                                     options=options)
        error = config_error(tmp_path, config, "vtln", **edits)
        assert f": vtln: {message}" in error

    def test_vtln_high_at_the_band_edge_fails_at_load(self, tmp_path):
        # 0 means the Nyquist frequency, which is also high_freq at 16 kHz;
        # the check comes before any bank, so no NumPy warning escapes
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc", with_vtln=True), path)
        text = path.read_text()
        assert text.count("vtln_high: -500.0") == 1
        path.write_text(text.replace("vtln_high: -500.0", "vtln_high: 0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = error_naming_file(path, read_config, path)
        assert error == (f"{path}: vtln: warp 0.85: vtln_high 8000.0 must be "
                         f"below high_freq 8000.0")

    def test_grid_check_fills_the_search_cache(self, corpus):
        # the search and the extraction build no bank the check did not
        compute_mel_banks.cache_clear()
        config = small_vtln_config(seed=5)
        misses = compute_mel_banks.cache_info().misses
        assert misses == len(warp_grid(config.vtln))
        extract_features(config, corpus)
        assert compute_mel_banks.cache_info().misses == misses

    def test_undecodable_config_names_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"features: mfcc\n# caf\xe9\n")
        assert "can't decode" in error_naming_file(path, read_config, path)

    def test_fractional_resample_freq_names_file_block_and_key(self, tmp_path):
        path = tmp_path / "config.txt"
        write_config(default_config("mfcc", with_pitch=True), path)
        text = path.read_text()
        assert text.count("resample_freq: 4000.0") == 1
        path.write_text(text.replace("resample_freq: 4000.0",
                                     "resample_freq: 4000.5"))
        with pytest.raises(ValueError) as info:
            read_config(path)
        assert str(info.value).startswith(f"{path}: pitch: resample_freq ")
        assert "4000.5" in str(info.value)


class TestExtractFeatures:
    def test_mfcc_plus_pitch_is_16_channels(self, corpus):
        config = default_config("mfcc", with_pitch=True)
        coll = extract_features(config, corpus)
        assert set(coll) == {"utt1", "utt2", "utt3"}
        for feats in coll.values():
            assert feats.nchannels == 16

    def test_delta_then_pitch_is_42_channels(self, corpus):
        config = default_config("mfcc", with_pitch=True, with_delta=True)
        coll = extract_features(config, corpus)
        for feats in coll.values():
            assert feats.nchannels == 13 * 3 + 3

    def test_plain_list_of_utterances(self, corpus):
        config = default_config("mfcc", with_cmvn=True)
        config = dataclasses.replace(config, cmvn=dataclasses.replace(
            config.cmvn, by="speaker"))
        assert (extract_features(config, list(corpus))
                == extract_features(config, corpus))

    def test_njobs_determinism(self, corpus):
        for config in (default_config("mfcc", with_pitch=True, seed=5),
                       small_vtln_config(seed=5)):
            serial = extract_features(config, corpus, njobs=1)
            parallel = extract_features(config, corpus, njobs=2)
            assert list(serial) == list(parallel)
            for name in serial:
                assert np.array_equal(serial[name].data, parallel[name].data)
                assert np.array_equal(serial[name].times, parallel[name].times)
                assert (serial[name].properties.get("vtln_warp")
                        == parallel[name].properties.get("vtln_warp"))

    def test_pooled_items_are_read_only_like_serial_ones(self, corpus):
        config = default_config("plp", with_delta=True)
        for njobs in 1, 2:
            for feats in extract_features(config, corpus, njobs=njobs).values():
                for array in feats.data, feats.times:
                    with pytest.raises(ValueError, match="read-only"):
                        array[0, 0] = 123.0

    def test_properties_record_pipeline(self, corpus):
        config = default_config("mfcc", seed=9)
        coll = extract_features(config, corpus)
        props = coll["utt1"].properties
        assert props["pipeline"]["features"] == "mfcc"
        assert props["pipeline"]["seed"] == 9
        assert props["pipeline"]["mfcc"]["num_ceps"] == 13
        assert props["audio"].endswith("utt1.wav")

    def test_cmvn_by_speaker(self, corpus):
        config = default_config("mfcc", with_cmvn=True)
        coll = extract_features(config, corpus)
        pooled = np.vstack([coll["utt1"].data, coll["utt2"].data])
        assert np.all(np.abs(pooled.mean(axis=0)) < 1e-8)

    def test_cmvn_requires_speakers(self, corpus, tmp_path):
        plain = Utterances([Utterance(u.name, u.audio_path) for u in corpus])
        config = default_config("mfcc", with_cmvn=True)
        with pytest.raises(ValueError, match="speaker"):
            extract_features(config, plain)

    def test_unreadable_audio_aborts_with_report(self, corpus, tmp_path):
        broken = Utterances(list(corpus) + [
            Utterance("bad", str(tmp_path / "missing.wav"), speaker="spk2")])
        config = default_config("mfcc")
        with pytest.raises(ExtractionError, match="bad"):
            extract_features(config, broken)

    def test_warp_search_failure_names_utterance(self, corpus, tmp_path):
        path = tmp_path / "short.wav"
        write_wav(path, Audio(np.zeros(100), 16000))
        with_short = Utterances(list(corpus) + [
            Utterance("short", str(path), speaker="spk2")])
        expected = {"short": "ValueError: audio too short: 100 samples "
                             "yield no frame"}
        for config in default_config("mfcc"), small_vtln_config():
            with pytest.raises(ExtractionError) as info:
                extract_features(config, with_short)
            assert info.value.failures == expected

    def test_warp_search_names_every_failure(self, corpus, tmp_path):
        short = []
        for name in "shortA", "shortB":
            write_wav(tmp_path / f"{name}.wav", Audio(np.zeros(100), 16000))
            short.append(Utterance(name, str(tmp_path / f"{name}.wav"),
                                   speaker="spk2"))
        with_short = Utterances(list(corpus) + short)
        failures = []
        for config in default_config("mfcc"), small_vtln_config():
            with pytest.raises(ExtractionError) as info:
                extract_features(config, with_short)
            failures.append(info.value.failures)
        assert list(failures[0]) == ["shortA", "shortB"]
        assert failures[1] == failures[0]

    def test_segment_bounds_respected(self, corpus, tmp_path):
        first = corpus.items[0]
        clipped = Utterances([dataclasses.replace(first, onset=0.1, offset=0.3)])
        coll = extract_features(default_config("mfcc"), clipped)
        # 0.2 s at 16 kHz: 3200 samples -> 1 + (3200-400)//160 = 18 frames
        assert coll[first.name].nframes == 18

    def test_order_matches_manifest(self, corpus):
        coll = extract_features(default_config("mfcc"), corpus)
        assert list(coll) == [u.name for u in corpus]

    def test_vtln_pipeline_runs_and_warps_on_grid(self, corpus):
        coll = extract_features(small_vtln_config(), corpus)
        for feats in coll.values():
            assert feats.nchannels == 13

    def test_warp_search_features_equal_mfcc_at_every_warp(self, corpus):
        grid = warp_grid(VtlnOptions())
        for utt in corpus:
            audio = load_wav(utt.audio_path)
            matrices = _warped_mfccs(utt, grid, MfccOptions(sample_rate=16000),
                                     seed=7)
            assert len(matrices) == len(grid)
            for warp, matrix in zip(grid, matrices):
                expected = mfcc(audio, MfccOptions(sample_rate=16000),
                                vtln_warp=warp, seed=derive_seed(7, utt.name))
                assert np.array_equal(matrix, expected.data)

    @pytest.mark.parametrize("njobs, count, pools", [
        (8, 3, [3]), (2, 3, [2]), (8, 1, []), (1, 3, [])])
    def test_workers_capped_at_utterance_count(self, corpus, monkeypatch,
                                               njobs, count, pools):
        class InlinePool:
            """Records the pool size asked for and the tasks of each map,
            and maps in this process what a worker would receive: the
            function and tasks, and then the results, pickled."""
            def __init__(self, max_workers):
                pools_made.append(max_workers)
                events.append("pool")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, func, tasks):
                func, tasks = pickle.loads(pickle.dumps((func, list(tasks))))
                maps.append(getattr(func, "func", func).__name__)
                return pickle.loads(pickle.dumps([func(task) for task in tasks]))

        def recorded_search(*args, **kwargs):
            warps = estimate_warps(*args, **kwargs)
            events.append("search")
            return warps

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pipeline, "estimate_warps", recorded_search)
        utterances = Utterances(list(corpus)[:count])
        for config in default_config("mfcc"), small_vtln_config():
            pools_made, maps, events = [], [], []
            coll = extract_features(config, utterances, njobs=njobs)
            assert pools_made == pools
            # the pool serves only the extraction, opened after the search
            assert maps == (["_extract_task"] if pools else [])
            searched = ["search"] if config.vtln else []
            assert events == searched + ["pool"] * len(pools)
            serial = extract_features(config, utterances)
            assert list(coll) == list(serial)
            for name in coll:
                assert coll[name] == serial[name]

    def test_bad_njobs(self, corpus):
        with pytest.raises(ValueError):
            extract_features(default_config("mfcc"), corpus, njobs=0)

    def test_manifest_order_does_not_change_results(self, corpus):
        reversed_corpus = Utterances(list(corpus)[::-1])
        for config in (default_config("mfcc", with_pitch=True, with_cmvn=True,
                                      seed=3),
                       small_vtln_config(seed=3)):
            forward = extract_features(config, corpus)
            for njobs in (1, 2) if config.vtln else (1,):
                backward = extract_features(config, reversed_corpus, njobs=njobs)
                assert set(forward) == set(backward)
                for name in forward:
                    assert np.array_equal(forward[name].data, backward[name].data)
                    assert (forward[name].properties.get("vtln_warp")
                            == backward[name].properties.get("vtln_warp"))


@pytest.fixture
def segments(tmp_path):
    """An ABX-shaped manifest: 3 recordings at 22.05 kHz, cut into 4
    segments each, listed recording by recording."""
    items = []
    for r in range(3):
        path = tmp_path / f"rec{r}.wav"
        write_wav(path, make_voweled(110 + 40 * r, [500 + 100 * r, 1500],
                                     duration=1.0, rate=22050, seed=r))
        items += [Utterance(f"rec{r}seg{k}", str(path), speaker=f"spk{r}",
                            onset=0.2 * k, offset=0.2 * k + 0.15)
                  for k in range(4)]
    return Utterances(items)


def counting_load_wav(monkeypatch):
    """The paths pipeline.load_wav is called with, from now on, in order."""
    calls = []

    def counting(path):
        calls.append(path)
        return load_wav(path)

    monkeypatch.setattr(pipeline, "load_wav", counting)
    return calls


def container_bytes(coll, path, names):
    """The binary container of `coll`'s items `names`, in that order."""
    FeaturesCollection({name: coll[name] for name in names}).save(path)
    return path.read_bytes()


class TestOneDecodePerRecording:
    def test_segments_of_a_recording_decode_it_once(self, segments, monkeypatch):
        calls = counting_load_wav(monkeypatch)
        extract_features(default_config("plp", with_delta=True), segments)
        assert calls == [u.audio_path for u in segments.items[::4]]

    def test_a_miss_drops_the_held_recording_before_decoding(self, segments,
                                                             monkeypatch):
        held = []

        def checking(path):
            held.append(len(pipeline._recording))
            return load_wav(path)

        monkeypatch.setattr(pipeline, "load_wav", checking)
        interleaved = Utterances(sorted(segments, key=lambda u: u.onset))
        extract_features(default_config("plp"), interleaved)
        # every segment misses, and no decode starts beside a held recording
        assert held == [0] * len(interleaved)

    def test_same_bytes_at_any_njobs_and_order(self, segments, tmp_path):
        config = default_config("plp", with_delta=True, seed=4)
        names = [u.name for u in segments]
        # one segment of each recording in turn: every read is a miss
        interleaved = Utterances(sorted(segments, key=lambda u: u.onset))
        expected = container_bytes(extract_features(config, segments),
                                   tmp_path / "serial.bin", names)
        for utterances, njobs in (segments, 2), (interleaved, 1), (interleaved, 2):
            coll = extract_features(config, utterances, njobs=njobs)
            assert container_bytes(coll, tmp_path / "other.bin", names) == expected

    def test_no_recording_is_held_after_the_call(self, segments, corpus,
                                                 monkeypatch):
        decoded = []

        def tracking(path):
            audio = load_wav(path)
            decoded.append(weakref.ref(audio))
            return audio

        monkeypatch.setattr(pipeline, "load_wav", tracking)
        extract_features(default_config("plp"), segments)
        extract_features(small_vtln_config(), corpus)
        gc.collect()
        # the serial map and the warp search both decoded in this process
        assert len(decoded) > 3
        assert all(ref() is None for ref in decoded)
        assert pipeline._recording == {}

    def test_the_pool_forks_with_no_recording_held(self, corpus, monkeypatch):
        pool_class = concurrent.futures.ProcessPoolExecutor
        held = []

        def recording_pool(max_workers):
            held.append(dict(pipeline._recording))
            return pool_class(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording_pool)
        serial = extract_features(small_vtln_config(), corpus)
        assert extract_features(small_vtln_config(), corpus, njobs=2) == serial
        # the warp search decoded in this process before the pool started
        assert held == [{}]

    def test_a_recording_rewritten_between_calls_is_decoded_again(
            self, segments, monkeypatch):
        path = segments.items[0].audio_path
        clip = Utterances(segments.items[:2])
        config = default_config("plp")
        before = extract_features(config, clip)
        write_wav(path, make_voweled(300, [900, 2000], duration=1.1, rate=22050))
        calls = counting_load_wav(monkeypatch)
        after = extract_features(config, clip)
        assert calls == [path]
        assert after != before
        assert after == extract_features(config, clip)

    @pytest.mark.parametrize("same_size", [False, True],
                             ids=["new-size", "new-mtime"])
    def test_the_held_recording_follows_its_file(self, tmp_path, monkeypatch,
                                                 same_size):
        monkeypatch.setattr(pipeline, "_recording", {})
        path = str(tmp_path / "rec.wav")
        write_wav(path, make_voweled(120, [700, 1200], duration=0.5))
        first = pipeline._load_recording(path)
        assert pipeline._load_recording(path) is first
        mtime = os.stat(path).st_mtime_ns
        write_wav(path, make_voweled(240, [700, 1200],
                                     duration=0.5 if same_size else 0.6))
        # a rewrite within one clock tick keeps the mtime: set a new one
        os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        second = pipeline._load_recording(path)
        assert second == load_wav(path) and second != first

    @pytest.mark.parametrize("content", [None, b"not a wav file"],
                             ids=["missing", "malformed"])
    def test_a_failed_read_fails_every_segment_and_is_not_held(
            self, segments, monkeypatch, content):
        path = segments.items[4].audio_path
        os.remove(path)
        if content is None:
            message = f"FileNotFoundError: [Errno 2] No such file or directory: '{path}'"
        else:
            with open(path, "wb") as fp:
                fp.write(content)
            message = f"WavFormatError: {path}: not a RIFF/WAVE file"
        calls = counting_load_wav(monkeypatch)
        with pytest.raises(ExtractionError) as info:
            extract_features(default_config("plp"), segments)
        assert info.value.failures == {u.name: message for u in segments.items[4:8]}
        # each segment of the broken recording tries again
        reads = [call for call in calls if call == path]
        assert len(reads) == (0 if content is None else 4)
        assert pipeline._recording == {}
