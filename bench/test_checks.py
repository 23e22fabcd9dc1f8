"""Each output check passes on the program's real output and fails on a
deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

import checks
import corpus
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from speechfeatures import Features, FeaturesCollection, audio, cli, pipeline  # noqa: E402
from speechfeatures.evaluate import abx_score, dtw_cosine, load_triplets  # noqa: E402


def _config(workload, directory):
    """The configuration run.py gives the workload."""
    path = str(directory / "config.txt")
    cli.main(["config"] + run.CONFIGS[workload][0] + ["-o", path])
    with open(path, encoding="utf-8") as fp:
        text = run.edit_config(workload, fp.read())
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return pipeline.read_config(path)


def _extract(workload, directory):
    truth = corpus.generate(workload, 1, str(directory))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        collection = pipeline.extract_features(
            _config(workload, directory), audio.parse_utterances("manifest.txt"))
        collection.save("out.bin")
        printed = ""
        if workload == "abx-plp-22k":
            error = abx_score(load_triplets("triplets.txt", collection))
            printed = f"ABX error rate: {error:.6g} %\n"
    finally:
        os.chdir(cwd)
    return checks.read_container(str(directory / "out.bin")), truth, printed


@pytest.fixture(scope="module")
def pitch_output(tmp_path_factory):
    return _extract("pitch-mfcc-16k", tmp_path_factory.mktemp("pitch"))


@pytest.fixture(scope="module")
def vtln_output(tmp_path_factory):
    return _extract("vtln-mfcc-16k", tmp_path_factory.mktemp("vtln"))


@pytest.fixture(scope="module")
def abx_output(tmp_path_factory):
    return _extract("abx-plp-22k", tmp_path_factory.mktemp("abx"))


def _replace(items, name, times=None, data=None, properties=None):
    out = dict(items)
    old = items[name]
    out[name] = (old[0] if times is None else times,
                 old[1] if data is None else data,
                 old[2] if properties is None else properties)
    return out


def test_container_reader_matches_the_program(tmp_path):
    coll = FeaturesCollection({
        "one": Features(np.arange(6.0).reshape(3, 2), [0.1, 0.2, 0.3], {"k": [1, "v"]}),
        "two": Features(np.ones((2, 1)), [[0.0, 0.5], [0.5, 1.0]], {}),
    })
    path = tmp_path / "c.bin"
    coll.save(str(path))
    items = checks.read_container(str(path))
    assert list(items) == ["one", "two"]
    for name, feats in coll.items():
        times, data, properties = items[name]
        assert np.array_equal(times, feats.times)
        assert np.array_equal(data, feats.data)
        assert properties == feats.properties
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        checks.read_container(str(path))


@pytest.mark.parametrize("fixture", ["pitch_output", "vtln_output", "abx_output"])
def test_frames_check(request, fixture):
    items, truth, _ = request.getfixturevalue(fixture)
    assert checks.check_frames(items, truth) == []
    name = sorted(items)[0]
    times, data, _ = items[name]
    assert checks.check_frames(_replace(items, name, times[:-1], data[:-1]), truth)
    assert checks.check_frames(_replace(items, name, times + 0.001), truth)
    missing = dict(items)
    del missing[name]
    assert checks.check_frames(missing, truth)


@pytest.mark.parametrize("fixture", ["pitch_output", "vtln_output"])
def test_cmvn_check(request, fixture):
    items, truth, _ = request.getfixturevalue(fixture)
    assert checks.check_cmvn(items, truth) == []
    name = sorted(items)[0]
    assert checks.check_cmvn(_replace(items, name, data=items[name][1] + 0.01), truth)
    assert checks.check_cmvn(_replace(items, name, data=items[name][1] * 1.01), truth)


def test_pitch_check(pitch_output):
    items, truth, _ = pitch_output
    assert checks.check_pitch(items, truth) == []
    column = checks.LOG_PITCH_CHANNEL
    for wrong in (
            lambda d: d[::-1, column],        # the track played backwards
            lambda d: d[:, column - 1],       # the voicing channel instead
            lambda d: -d[:, column]):         # the contour upside down
        broken = {}
        for name, (times, data, properties) in items.items():
            data = data.copy()
            data[:, column] = wrong(items[name][1])
            broken[name] = (times, data, properties)
        assert checks.check_pitch(broken, truth)


def test_warp_check(vtln_output):
    items, truth, _ = vtln_output
    assert checks.check_warps(items, truth) == []
    warps = checks.speaker_warps(items, truth)
    by_scale = sorted(warps, key=lambda s: truth["scales"][s])
    # the same warps handed out in the wrong order, then all equal
    rising = dict(zip(by_scale, sorted(warps.values())))
    for wrong in (rising, dict.fromkeys(warps, 0.97)):
        broken = dict(items)
        for name, item in truth["utterances"].items():
            times, data, properties = items[name]
            properties = dict(properties, vtln_warp=wrong[item["speaker"]])
            properties["mfcc"] = dict(properties["mfcc"], vtln_warp=wrong[item["speaker"]])
            broken[name] = (times, data, properties)
        assert checks.check_warps(broken, truth)


def test_dtw_is_the_program_dtw():
    rng = np.random.default_rng(0)
    for shape_a, shape_b in [((7, 3), (5, 3)), ((1, 2), (9, 2)), ((12, 4), (12, 4))]:
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        assert checks.dtw(a, b) == dtw_cosine(a, b)
    # tied costs everywhere: the step count of the chosen path decides
    a = np.ones((6, 2))
    b = np.vstack([np.ones((3, 2)), [[0.0, 0.0]], np.ones((4, 2))])
    assert checks.dtw(a, b) == dtw_cosine(a, b)
    assert checks.dtw(a[:1], b) == dtw_cosine(a[:1], b)


def test_abx_check(abx_output):
    items, truth, printed = abx_output
    assert checks.check_abx(items, truth, printed, dtw_cosine) == []
    assert checks.check_abx(items, truth, "ABX error rate: 1.5 %", dtw_cosine)
    assert checks.check_abx(items, truth, printed, lambda a, b: dtw_cosine(a, b) + 1e-9)
    # features that carry no category: the error comes back near chance
    rng = np.random.default_rng(0)
    noise = {name: (t, rng.standard_normal(d.shape), p) for name, (t, d, p) in items.items()}
    error, _ = checks.abx_error(noise, truth["triplets"])
    assert error > 25.0
    assert checks.check_abx(noise, truth, f"ABX error rate: {error:.6g} %")
