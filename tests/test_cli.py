import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speechfeatures import BLAS_THREAD_VARIABLES, FeaturesCollection, write_wav
from speechfeatures.cli import _build_parser, main
from speechfeatures.features import _CODECS

from conftest import make_voweled


@pytest.fixture
def small_corpus(tmp_path):
    """Two wav files and a manifest; returns (manifest path, tmp_path)."""
    for name, f0 in (("utt1", 120), ("utt2", 210)):
        write_wav(tmp_path / f"{name}.wav",
                  make_voweled(f0, [700, 1300], duration=0.3))
    manifest = tmp_path / "utterances.txt"
    manifest.write_text(
        f"utt1 {tmp_path}/utt1.wav speaker1\n"
        f"utt2 {tmp_path}/utt2.wav speaker2\n")
    return manifest


FULL_CONFIG_TEXT = """\
features: mfcc
seed: 0
mfcc:
  sample_rate: 16000
  frame_shift: 0.01
  frame_length: 0.025
  dither: 0.1
  preemph_coeff: 0.97
  remove_dc_offset: true
  window_type: povey
  snip_edges: true
  energy_floor: 0.0
  raw_energy: true
  use_energy: false
  num_bins: 23
  low_freq: 20.0
  high_freq: 0.0
  vtln_low: 100.0
  vtln_high: -500.0
  num_ceps: 13
  cepstral_lifter: 22.0
pitch:
  min_f0: 50.0
  max_f0: 400.0
  soft_min_f0: 10.0
  penalty_factor: 0.1
  lowpass_cutoff: 1000.0
  resample_freq: 4000.0
  delta_pitch: 0.005
  nccf_ballast: 7000.0
pitch_postprocessing:
  pitch_scale: 2.0
  pov_scale: 2.0
  delta_pitch_scale: 10.0
  delta_pitch_noise_stddev: 0.005
  delta_window: 2
  delay: 0
delta:
  order: 2
  window: 2
cmvn:
  by: speaker
  norm_vars: true
vtln:
  num_iters: 15
  min_warp: 0.85
  max_warp: 1.15
  warp_step: 0.01
  logdet_scale: 0.0
  norm_type: offset
  ubm:
    num_gauss: 64
    num_iters: 4
    initial_gauss_proportion: 0.5
    num_iters_init: 20
    num_frames: 500000
    min_gaussian_weight: 0.0001
    remove_low_count_gaussians: false
"""


class TestConfigCommand:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "config.txt"
        assert main(["config", "mfcc", "--pitch", "kaldi", "-o", str(out)]) == 0
        text = out.read_text()
        assert "features: mfcc" in text
        assert "num_ceps: 13" in text
        assert "min_f0: 50.0" in text

    def test_stdout(self, capsys):
        assert main(["config", "plp"]) == 0
        assert "lpc_order: 12" in capsys.readouterr().out

    def test_rejects_unknown_pitch(self, capsys):
        with pytest.raises(SystemExit):
            main(["config", "mfcc", "--pitch", "crepe"])

    def test_full_config_text(self, capsys):
        """The exact text, so that a reordered option shows up here."""
        assert main(["config", "mfcc", "--pitch", "kaldi", "--delta", "--cmvn",
                     "--vtln"]) == 0
        assert capsys.readouterr().out == FULL_CONFIG_TEXT


class TestExtractCommand:
    def test_end_to_end_binary(self, tmp_path, small_corpus):
        config = tmp_path / "config.txt"
        output = tmp_path / "features.bin"
        assert main(["config", "mfcc", "--pitch", "kaldi",
                     "-o", str(config)]) == 0
        assert main(["extract", str(config), str(small_corpus),
                     str(output)]) == 0
        coll = FeaturesCollection.load(output, format="binary")
        assert set(coll) == {"utt1", "utt2"}
        assert coll["utt1"].nchannels == 16

    def test_csv_format(self, tmp_path, small_corpus):
        config = tmp_path / "config.txt"
        outdir = tmp_path / "features"
        main(["config", "mfcc", "-o", str(config)])
        assert main(["extract", "--format", "csv", str(config),
                     str(small_corpus), str(outdir)]) == 0
        assert (outdir / "utt1.csv").exists()
        assert (outdir / "utt2.json").exists()

    def test_format_choices_are_the_codec_formats(self):
        sub = next(action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        [fmt] = [action for action in sub.choices["extract"]._actions
                 if action.dest == "format"]
        assert list(fmt.choices) == list(_CODECS)

    def test_seed_override_changes_dither(self, tmp_path, small_corpus):
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "-o", str(config)])
        out1, out2, out3 = (tmp_path / name for name in ("a.bin", "b.bin", "c.bin"))
        main(["extract", "--seed", "1", str(config), str(small_corpus), str(out1)])
        main(["extract", "--seed", "1", str(config), str(small_corpus), str(out2)])
        main(["extract", "--seed", "2", str(config), str(small_corpus), str(out3)])
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_missing_audio_reports_and_fails(self, tmp_path, capsys):
        manifest = tmp_path / "utterances.txt"
        manifest.write_text(f"ghost {tmp_path}/ghost.wav\n")
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "-o", str(config)])
        code = main(["extract", str(config), str(manifest),
                     str(tmp_path / "out.bin")])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_bad_manifest_fails(self, tmp_path, capsys):
        manifest = tmp_path / "utterances.txt"
        manifest.write_text("only-one-field\n")
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "-o", str(config)])
        assert main(["extract", str(config), str(manifest),
                     str(tmp_path / "out.bin")]) == 1
        assert "unparsable" in capsys.readouterr().err

    def test_empty_manifest_fails_naming_file(self, tmp_path, capsys):
        manifest = tmp_path / "utterances.txt"
        manifest.write_text("\n  \n")
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "-o", str(config)])
        output = tmp_path / "out.bin"
        assert main(["extract", str(config), str(manifest), str(output)]) == 1
        assert capsys.readouterr().err == (
            f"speech-features: error: {manifest}: no utterances\n")
        assert not output.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("num_ceps:", "num_cepz:", "num_cepz"),
        ("  by: speaker\n", "", "by"),
        ("delta:\n  order: 2\n  window: 2\n", "delta: true\n", "delta"),
        ("norm_vars: true\n", "norm_vars: true\nvtln:\n  ubm:\n    num_gaus: 8\n",
         "num_gaus"),
        ("  num_ceps:", "   num_ceps:", "line 20"),
        # pitch frames are concatenated to the feature frames
        ("snip_edges: true", "snip_edges: false", "snip_edges"),
        ("min_f0: 50.0", "min_f0: 20.0", "min_f0"),
        # and pitch takes the framing of the feature block, not its own
        ("pitch:\n", "pitch:\n  frame_shift: 0.02\n", "frame_shift"),
        ("pitch:\n", "pitch:\n  sample_rate: 8000\n", "sample_rate"),
        ("cmvn:", "cmnv:", "cmnv"),
        ("num_ceps: 13", "num_ceps: 13.5", "num_ceps"),
        ("use_energy: false", "use_energy: 7", "use_energy"),
        ("num_bins: 23", "num_bins: true", "num_bins"),
        ("seed: 0", "seed:", "seed"),
    ], ids=["unknown-key", "missing-key", "scalar-block", "nested-key",
            "indentation", "snip-edges", "min-f0", "frame-shift",
            "sample-rate", "unknown-block", "float-for-int", "int-for-bool",
            "bool-for-int", "empty-seed"])
    def test_bad_config_fails_naming_file_and_key(self, tmp_path, small_corpus,
                                                 capsys, old, new, key):
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "--pitch", "kaldi", "--delta", "--cmvn",
              "-o", str(config)])
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        assert main(["extract", str(config), str(small_corpus),
                     str(tmp_path / "out.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"speech-features: error: {config}: ")
        assert key in err

    @pytest.mark.parametrize("features, pitch, shift", [
        ("mfcc", [], "0.00003"), ("mfcc", ["--pitch", "kaldi"], "0.0001")],
        ids=["feature-rate", "pitch-rate"])
    def test_sub_sample_shift_fails_at_load(self, tmp_path, small_corpus,
                                            capsys, features, pitch, shift):
        config = tmp_path / "config.txt"
        main(["config", features, *pitch, "-o", str(config)])
        text = config.read_text()
        assert text.count("frame_shift: 0.01\n") == 1
        config.write_text(text.replace("frame_shift: 0.01\n",
                                       f"frame_shift: {shift}\n"))
        assert main(["extract", str(config), str(small_corpus),
                     str(tmp_path / "out.bin")]) == 1
        err = capsys.readouterr().err
        where = "frame_shift 0.0001 s" if pitch else "mfcc: frame_shift must"
        assert err.startswith(f"speech-features: error: {config}: {where}")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("old, new, where", [
        ("dither: 0.1", "dither: nan", "mfcc: dither"),
        ("nccf_ballast: 7000.0", "nccf_ballast: nan", "pitch: nccf_ballast"),
        ("energy_floor: 0.0", "energy_floor: nan", "mfcc: energy_floor"),
        ("frame_length: 0.025", "frame_length: inf", "mfcc: frame_length"),
        ("frame_length: 0.025", "frame_length: 1" + "0" * 400,
         "mfcc: frame_length"),
    ], ids=["nan-dither", "nan-ballast", "nan-energy-floor", "inf-length",
            "int-beyond-float"])
    def test_non_finite_value_fails_naming_file_block_and_key(
            self, tmp_path, small_corpus, capsys, old, new, where):
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "--pitch", "kaldi", "--delta", "--cmvn",
              "-o", str(config)])
        config.write_text(config.read_text().replace(old, new, 1))
        assert main(["extract", str(config), str(small_corpus),
                     str(tmp_path / "out.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"speech-features: error: {config}: {where}: "
                              "expected a finite float")
        assert not (tmp_path / "out.bin").exists()

    def test_negative_penalty_fails_naming_file_block_and_key(
            self, tmp_path, small_corpus, capsys):
        config = tmp_path / "config.txt"
        main(["config", "mfcc", "--pitch", "kaldi", "-o", str(config)])
        text = config.read_text()
        assert text.count("penalty_factor: 0.1\n") == 1
        config.write_text(text.replace("penalty_factor: 0.1\n",
                                       "penalty_factor: -1.0\n"))
        assert main(["extract", str(config), str(small_corpus),
                     str(tmp_path / "out.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"speech-features: error: {config}: pitch: "
                              "penalty_factor must be finite and >= 0")
        assert not (tmp_path / "out.bin").exists()

    def test_pitch_follows_the_feature_framing(self, tmp_path, small_corpus):
        config = tmp_path / "config.txt"
        output = tmp_path / "features.bin"
        main(["config", "mfcc", "--pitch", "kaldi", "--delta", "--cmvn",
              "-o", str(config)])
        text = config.read_text()
        config.write_text(text.replace("frame_shift: 0.01", "frame_shift: 0.02", 1))
        assert main(["extract", str(config), str(small_corpus),
                     str(output)]) == 0
        coll = FeaturesCollection.load(output, format="binary")
        for feats in coll.values():
            # 0.3 s at 16 kHz: (4800 - 400) // 320 + 1 frames of 0.02 s
            assert feats.nframes == 14 and feats.nchannels == 42
            assert np.allclose(np.diff(feats.times[:, 0]), 0.02)


class TestEvalCommand:
    def test_pitch_metrics(self, tmp_path, capsys):
        times = np.arange(4) * 0.01
        truth = np.column_stack([times, [100.0, 200.0, 0.0, 150.0]])
        est = np.column_stack([times, [110.0, 190.0, 120.0, 150.0]])
        truth_path = tmp_path / "truth.csv"
        est_path = tmp_path / "est.csv"
        np.savetxt(truth_path, truth, delimiter=",")
        np.savetxt(est_path, est, delimiter=",")
        assert main(["eval", "pitch", str(truth_path), str(est_path)]) == 0
        out = capsys.readouterr().out
        # masked frames: (100, 110), (200, 190), (150, 150): mae 20/3
        assert "MAE: 6.66667 Hz" in out
        assert "GER: 33.3333 %" in out

    def test_pitch_length_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.ones((3, 2)) * [[0.1, 100]], delimiter=",")
        np.savetxt(b, np.ones((4, 2)) * [[0.1, 100]], delimiter=",")
        assert main(["eval", "pitch", str(a), str(b)]) == 1
        assert "lengths differ" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        ("0.0,100\n0.01,abc\n", "could not convert string 'abc'"),
        ("0.0,100\n0.01\n", "the number of columns changed"),
        ("", "no pitch values"),
        ("# time,f0\n\n", "no pitch values"),
        ("0.0,100,1\n", "expected time,f0 or f0 rows, got 3 columns")],
        ids=["not-a-number", "columns", "empty", "comments-only", "three-columns"])
    def test_bad_pitch_track_names_file(self, tmp_path, capsys, recwarn, text,
                                        expected):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0.0,100\n0.01,120\n")
        bad.write_text(text)
        for args in ([good, bad], [bad, good]):
            assert main(["eval", "pitch", *map(str, args)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"speech-features: error: {bad}: ")
            assert expected in err
        assert not recwarn.list

    def test_pitch_length_mismatch_names_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0.0,100\n0.01,120\n")
        b.write_text("0.0,100\n")
        assert main(["eval", "pitch", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"track lengths differ: 2 in {a} and 1 in {b}\n")

    def test_pitch_times_differ_names_both_files(self, tmp_path, capsys):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text("0.0,100\n0.01,200\n")
        est.write_text("5.0,100\n9.0,200\n")
        assert main(["eval", "pitch", str(truth), str(est)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"frame times differ between {truth} and {est}\n")

    def test_bare_f0_track_compared_row_by_row(self, tmp_path, capsys):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text("0.0,100\n0.01,200\n")
        est.write_text("110\n200\n")
        assert main(["eval", "pitch", str(truth), str(est)]) == 0
        assert "MAE: 5 Hz" in capsys.readouterr().out

    def test_undecodable_pitch_track_names_file(self, tmp_path, capsys):
        path = tmp_path / "truth.csv"
        path.write_bytes(b"0.0,100\n\xff\n")
        assert main(["eval", "pitch", str(path), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"speech-features: error: {path}: ")
        assert "can't decode" in err

    def test_abx(self, tmp_path, capsys, small_corpus):
        config = tmp_path / "config.txt"
        features = tmp_path / "features.bin"
        main(["config", "mfcc", "-o", str(config)])
        main(["extract", str(config), str(small_corpus), str(features)])
        triplets = tmp_path / "triplets.txt"
        triplets.write_text("utt1 utt2 utt1\nutt2 utt1 utt2\n")
        assert main(["eval", "abx", str(triplets), str(features)]) == 0
        assert "ABX error rate: 0 %" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "speechfeatures", "config", "filterbank"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "num_bins: 23" in result.stdout


ROOT = Path(__file__).resolve().parents[1]


def _project_table():
    """The [project] table of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as stream:
        return tomllib.load(stream)["project"]


def _declared_script_target(name):
    """The `module:function` target of console script `name` in pyproject.toml."""
    return _project_table()["scripts"][name]


def _assert_help(result):
    assert result.returncode == 0
    assert "config" in result.stdout and "extract" in result.stdout
    assert result.stdout.startswith("usage: speech-features ")


def test_console_script_help():
    # run the declared entry point as the wrapper generated at install does
    module, function = _declared_script_target("speech-features").split(":")
    code = (f"import sys\n"
            f"from {module} import {function}\n"
            f"sys.argv[0] = 'speech-features'\n"
            f"sys.exit({function}())\n")
    result = subprocess.run([sys.executable, "-c", code, "--help"],
                            capture_output=True, text=True, timeout=60)
    _assert_help(result)


@pytest.mark.skipif(shutil.which("speech-features") is None,
                    reason="speech-features is not installed on PATH")
def test_installed_console_script_help():
    result = subprocess.run(["speech-features", "--help"],
                            capture_output=True, text=True, timeout=60)
    _assert_help(result)


def test_numpy_is_the_only_declared_dependency():
    names = [re.split(r"[\s<>=!~;\[]", entry)[0]
             for entry in _project_table()["dependencies"]]
    assert names == ["numpy"]


def test_import_loads_only_stdlib_and_numpy():
    # a fresh interpreter without `site`, so that no .pth file preloads a
    # module; numpy's directory stays on the path, so an import of anything
    # installed next to numpy still loads it and shows here
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import speechfeatures, speechfeatures.cli\n"
            "print(*{name.partition('.')[0]\n"
            "        for name in set(sys.modules) - before})\n")
    path = [str(ROOT / "src"), str(Path(np.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "speechfeatures" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "speechfeatures"}


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads(preset, expected):
    # a fresh interpreter, so that numpy is first imported by the package
    code = ("import os\n"
            "import speechfeatures\n"
            "tasks = '/proc/self/task'\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],\n"
            "      len(os.listdir(tasks)) if os.path.isdir(tasks) else '-')\n")
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == expected
    if preset is None and threads != "-":
        assert threads == "1"
