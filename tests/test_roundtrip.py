"""Seeded round trips of every stored format, and cut containers.

Inputs come from numpy generators with fixed seeds, so a failure
reproduces exactly. Each stored value must load back bit for bit.
"""

import dataclasses
import re
import typing

import numpy as np
import pytest

from speechfeatures import (Audio, DiagGmm, Features, FeaturesCollection,
                            FeaturesFormatError, PipelineConfig,
                            load_collection, load_gmm, load_warps, load_wav,
                            read_config, save_collection, save_gmm,
                            save_warps, write_config, write_wav)
from speechfeatures.framing import WINDOW_TYPES
from speechfeatures.pipeline import _STAGES, FEATURE_OPTIONS, config_to_text
from speechfeatures.postproc import CMVN_SCOPES
from speechfeatures.speaker import NORM_TYPES


def random_float(rng):
    """A finite float of either sign and a magnitude from 1e-300 to 1e300."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0)
                 * 10.0 ** rng.integers(-300, 300))


def random_value(rng, depth):
    kind = rng.integers(7 if depth < 3 else 5)
    if kind == 0:
        return "".join(rng.choice(list("ab é€\"\\\n"), rng.integers(0, 6)))
    if kind == 1:
        return int(rng.integers(-2 ** 62, 2 ** 62))
    if kind == 2:
        return random_float(rng)
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    if kind == 5:
        return [random_value(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    return random_properties(rng, depth + 1)


def random_properties(rng, depth=0):
    """A tree of string-keyed dicts and lists holding every JSON scalar."""
    return {f"k{i}é": random_value(rng, depth) for i in range(rng.integers(0, 4))}


def increasing(rng, count):
    """`count` strictly increasing random floats."""
    while True:
        values = np.unique([random_float(rng) for _ in range(count)])
        if len(values) == count:
            return values


def random_features(rng):
    """Features of 1-5 frames, 0-3 channels and 1 or 2 time columns."""
    m, n, t = rng.integers(1, 6), rng.integers(0, 4), rng.integers(1, 3)
    data = np.array([random_float(rng) for _ in range(m * n)]).reshape(m, n)
    times = increasing(rng, m * t).reshape(m, t)
    return Features(data, times, random_properties(rng))


def assert_bit_identical(back, coll):
    assert list(back) == list(coll)
    for name, feats in coll.items():
        assert back[name].data.tobytes() == feats.data.tobytes()
        assert back[name].times.tobytes() == feats.times.tobytes()
        assert back[name].properties == feats.properties


@pytest.mark.parametrize("format", ["binary", "csv"])
def test_collection_round_trip(tmp_path, format):
    rng = np.random.default_rng(11)
    for trial in range(30):
        # CSV item names become file names, sorted on load
        prefix = "utt" if format == "csv" else "utt é€"
        coll = FeaturesCollection({f"{prefix}{i}": random_features(rng)
                                   for i in range(rng.integers(1, 4))})
        path = tmp_path / str(trial)
        save_collection(coll, path, format)
        assert_bit_identical(load_collection(path, format), coll)


def test_cut_container_fails_naming_file(tmp_path):
    rng = np.random.default_rng(12)
    items = [(f"utt{i}", random_features(rng)) for i in range(2)]
    prefixes = {}  # container size -> the items it holds
    for k in range(len(items) + 1):
        path = tmp_path / f"first{k}.bin"
        save_collection(FeaturesCollection(items[:k]), path)
        prefixes[path.stat().st_size] = FeaturesCollection(items[:k])
    raw = path.read_bytes()

    cut = tmp_path / "cut.bin"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        if size in prefixes:  # an item boundary
            assert_bit_identical(load_collection(cut), prefixes[size])
        else:
            with pytest.raises(FeaturesFormatError, match=re.escape(f"{cut}: ")):
                load_collection(cut)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(20):
        ints = rng.integers(-32768, 32768, rng.integers(0, 50))
        audio = Audio(ints / 32768.0, int(rng.integers(1, 200000)))
        first, second = tmp_path / f"{trial}a.wav", tmp_path / f"{trial}b.wav"
        write_wav(first, audio)
        back = load_wav(first)
        assert back == audio
        write_wav(second, back)
        assert second.read_bytes() == first.read_bytes()


def test_warps_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    for trial in range(20):
        warps = {f"spk{i}é": abs(random_float(rng))
                 for i in range(rng.integers(0, 6))}
        path = tmp_path / f"{trial}.txt"
        save_warps(warps, path)
        assert load_warps(path) == warps


def test_gmm_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    for trial in range(10):
        g, d = rng.integers(1, 5), rng.integers(1, 4)
        gmm = DiagGmm(rng.dirichlet(np.ones(g)),
                      [[random_float(rng) for _ in range(d)] for _ in range(g)],
                      [[abs(random_float(rng)) for _ in range(d)] for _ in range(g)])
        path = tmp_path / f"{trial}.bin"
        save_gmm(gmm, path)
        back = load_gmm(path)
        for attribute in ("weights", "means", "variances"):
            assert (getattr(back, attribute).tobytes()
                    == getattr(gmm, attribute).tobytes())


# allowed values of the string options
CHOICES = {"window_type": WINDOW_TYPES, "norm_type": NORM_TYPES, "by": CMVN_SCOPES}


def random_field(rng, field, kind):
    if dataclasses.is_dataclass(kind):
        return random_options(rng, kind)
    if field.name in CHOICES:
        return str(rng.choice(CHOICES[field.name]))
    if kind is bool:
        return bool(rng.integers(2))
    if rng.integers(2):  # keep the default
        return field.default
    if kind is int:
        return field.default + int(rng.integers(1, 3))
    return float(field.default * rng.uniform(0.9, 1.1) or rng.uniform(0.0, 1.0))


def random_options(rng, cls):
    """Valid options of class `cls`, each value random or its default."""
    kinds = typing.get_type_hints(cls)
    for _ in range(1000):
        try:
            return cls(**{field.name: random_field(rng, field, kinds[field.name])
                          for field in dataclasses.fields(cls)})
        except ValueError:
            pass
    raise AssertionError(f"no valid {cls.__name__} drawn")


def random_config(rng, features):
    """A valid PipelineConfig with random options and a random set of stages."""
    for _ in range(1000):
        with_pitch = rng.integers(2)  # pitch and its post-processing go together
        stages = {name: random_options(rng, cls) for name, cls in _STAGES.values()
                  if (with_pitch if name.startswith("pitch") else rng.integers(2))}
        if features == "spectrogram":
            stages.pop("vtln", None)
        try:
            return PipelineConfig(
                features=features, seed=int(rng.integers(0, 2 ** 63)),
                options=random_options(rng, FEATURE_OPTIONS[features]), **stages)
        except ValueError:  # pitch rejects the drawn framing
            pass
    raise AssertionError(f"no valid {features} config drawn")


@pytest.mark.parametrize("features", list(FEATURE_OPTIONS))
def test_config_text_round_trip(tmp_path, features):
    rng = np.random.default_rng(16)
    for trial in range(20):
        config = random_config(rng, features)
        path = tmp_path / f"{trial}.txt"
        write_config(config, path)
        back = read_config(path)
        assert back == config
        assert config_to_text(back) == path.read_text()
