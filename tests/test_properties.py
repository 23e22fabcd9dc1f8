"""A Features owns its properties tree: no derived Features shares a part
of its source's tree, and the dict passed to Features(...) stays the
caller's."""

import numpy as np
import pytest

from speechfeatures import (CmvnOptions, Features, FeaturesCollection,
                            Utterance, cmvn_apply, concatenate, default_config,
                            delta, extract_features, postprocess_pitch,
                            write_wav)
from speechfeatures import pipeline

from conftest import make_voweled

TIMES = np.arange(6) * 0.01 + 0.0125

# a value two containers deep in every tree below
NESTED = ("x", "a", 1, "b")


def tree(processor="test"):
    return {"processor": processor, "x": {"a": [1, {"b": 2}]}}


def source(processor="test"):
    return Features(np.arange(1.0, 13.0).reshape(6, 2), TIMES, tree(processor))


def by_constructor(tmp_path, monkeypatch):
    passed = tree()
    return passed, Features(np.zeros((6, 1)), TIMES, passed).properties, NESTED, NESTED


def by_with_properties(tmp_path, monkeypatch):
    feats = source()
    return feats.properties, feats.with_properties(feats.properties).properties, NESTED, NESTED


def by_delta(tmp_path, monkeypatch):
    feats = source()
    return feats.properties, delta(feats).properties, NESTED, NESTED


def by_cmvn(scope):
    def derive(tmp_path, monkeypatch):
        feats = source()
        coll = FeaturesCollection({"u1": feats, "u2": source()})
        out = cmvn_apply(coll, {"u1": "spk", "u2": "spk"}, CmvnOptions(by=scope))
        return feats.properties, out["u1"].properties, NESTED, NESTED
    return derive


def by_concatenate(tmp_path, monkeypatch):
    second = source("other")
    out = concatenate(source(), second)
    return second.properties, out.properties, NESTED, ("other",) + NESTED


def by_postprocess_pitch(tmp_path, monkeypatch):
    raw = Features(np.column_stack([np.full(6, 0.9), np.full(6, 200.0)]), TIMES,
                   {"processor": "pitch", "pitch": tree()})
    out = postprocess_pitch(raw)
    return raw.properties, out.properties, ("pitch",) + NESTED, ("pitch",) + NESTED


def by_extraction(tmp_path, monkeypatch):
    # the processor's own output is the source of the extracted item
    made = []
    processor = pipeline.mfcc

    def recorded(*args, **kwargs):
        made.append(processor(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(pipeline, "mfcc", recorded)
    path = tmp_path / "u.wav"
    write_wav(path, make_voweled(150, [700, 1200, 2600], duration=0.3))
    coll = extract_features(default_config("mfcc"), [Utterance("u", str(path))])
    return made[0].properties, coll["u"].properties, ("mfcc", "dither"), ("mfcc", "dither")


DERIVATIONS = {
    "constructor": by_constructor,
    "with_properties": by_with_properties,
    "delta": by_delta,
    "cmvn-frame": by_cmvn("frame"),
    "cmvn-utterance": by_cmvn("utterance"),
    "cmvn-speaker": by_cmvn("speaker"),
    "concatenate": by_concatenate,
    "postprocess_pitch": by_postprocess_pitch,
    "extract_features": by_extraction,
}


def node(properties, path):
    for key in path:
        properties = properties[key]
    return properties


@pytest.mark.parametrize("changed", ["source", "derived"])
@pytest.mark.parametrize("derive", DERIVATIONS.values(), ids=DERIVATIONS.keys())
def test_a_nested_change_on_one_side_leaves_the_other(derive, changed, tmp_path,
                                                      monkeypatch):
    source_tree, derived_tree, source_path, derived_path = derive(tmp_path, monkeypatch)
    sides = {"source": (source_tree, source_path), "derived": (derived_tree, derived_path)}
    other_tree, other_path = sides["derived" if changed == "source" else "source"]
    changed_tree, changed_path = sides[changed]
    before = node(other_tree, other_path)
    assert node(changed_tree, changed_path) == before
    node(changed_tree, changed_path[:-1])[changed_path[-1]] = "changed"
    assert node(other_tree, other_path) == before


@pytest.mark.parametrize("properties", [[1, 2], "abc", 5],
                         ids=["list", "str", "int"])
def test_top_level_must_be_a_dict(properties):
    with pytest.raises(ValueError, match="^properties must be a string-keyed tree"):
        Features(np.zeros((1, 1)), [0.0], properties)
