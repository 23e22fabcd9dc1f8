import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from speechfeatures import (Audio, ExtractionError, PipelineConfig, Utterance,
                            Utterances, VtlnOptions, default_config,
                            extract_features, load_wav, mfcc, read_config,
                            write_config, write_wav)
from speechfeatures.pipeline import (FEATURE_OPTIONS, _warped_mfccs,
                                     config_from_dict, config_to_dict,
                                     derive_seed)
from speechfeatures.speaker import warp_grid
from speechfeatures.spectral import MfccOptions, SpectrogramOptions

from conftest import make_voweled


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


def test_traced_names_resolve():
    """bench/tracer.py wraps functions by the names the program calls them by."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, places, _ in tracer.TRACED:
        for module_name, attribute in places:
            module = importlib.import_module("speechfeatures." + module_name)
            assert callable(getattr(module, attribute, None)), (module_name,
                                                                attribute)
    pipeline = importlib.import_module("speechfeatures.pipeline")
    for features in FEATURE_OPTIONS:
        assert callable(getattr(pipeline, features, None)), features


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

    def test_bad_njobs(self, corpus):
        with pytest.raises(ValueError):
            extract_features(default_config("mfcc"), corpus, njobs=0)

    def test_manifest_order_does_not_change_results(self, corpus):
        reversed_corpus = Utterances(list(corpus)[::-1])
        for config in (default_config("mfcc", with_pitch=True, with_cmvn=True,
                                      seed=3),
                       small_vtln_config(seed=3)):
            forward = extract_features(config, corpus)
            backward = extract_features(config, reversed_corpus)
            assert set(forward) == set(backward)
            for name in forward:
                assert np.array_equal(forward[name].data, backward[name].data)
                assert (forward[name].properties.get("vtln_warp")
                        == backward[name].properties.get("vtln_warp"))
