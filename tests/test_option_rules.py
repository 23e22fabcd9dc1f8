"""The rules of the option fields, through the Python API and read_config.

The cases are generated from the fields and the rules declared on them, so
a new field or rule is covered without editing this file.
"""

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing

import numpy as np
import pytest

import speechfeatures
from speechfeatures import (CmvnOptions, FrameOptions, MfccOptions,
                            PipelineConfig, VtlnOptions, default_config)
from speechfeatures.features import Options
from speechfeatures.pipeline import _STAGES, _render_tree, config_to_dict
from speechfeatures.speaker import MAX_WARPS


def option_classes():
    """Every options class of the package, by name."""
    found, pending = set(), [Options]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found.update(subclasses)
        pending.extend(subclasses)
    return sorted(found, key=lambda cls: cls.__name__)


# the arguments an options class has no default for
REQUIRED = {CmvnOptions: {"by": "speaker"},
            PipelineConfig: {"features": "mfcc", "options": MfccOptions()}}

# the values no float field takes, and no int field
REFUSED = {float: ("a finite float", (math.nan, math.inf, -math.inf)),
           int: ("an int", (2.5, True))}

API_CASES = [(cls, key, kind, value) for cls in option_classes()
             for key, kind in typing.get_type_hints(cls).items() if kind in REFUSED
             for value in REFUSED[kind][1]]


@pytest.mark.parametrize(
    "cls, key, kind, value", API_CASES,
    ids=[f"{cls.__name__}-{key}-{value!r}" for cls, key, _, value in API_CASES])
def test_api_refuses_what_a_number_field_cannot_hold(cls, key, kind, value):
    message = f"{key} must be {REFUSED[kind][0]}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**REQUIRED.get(cls, {}), **{key: value})


@pytest.mark.parametrize("cls", option_classes(), ids=lambda cls: cls.__name__)
def test_defaults_construct_with_their_field_types(cls):
    opts = cls(**REQUIRED.get(cls, {}))
    for key, kind in typing.get_type_hints(cls).items():
        if kind in REFUSED:
            assert type(getattr(opts, key)) is kind, key


def test_hand_built_numbers_are_kept_as_the_field_type():
    opts = FrameOptions(sample_rate=np.int64(8000), frame_length=1,
                        frame_shift=np.float32(0.5), dither=0)
    assert (opts.sample_rate, opts.frame_length, opts.frame_shift, opts.dither) == (
        8000, 1.0, 0.5, 0.0)
    assert [type(v) for v in (opts.sample_rate, opts.frame_length,
                              opts.frame_shift, opts.dither)] == [int, float, float, float]
    assert opts == FrameOptions(sample_rate=8000, frame_length=1.0,
                                frame_shift=0.5, dither=0.0)


@pytest.mark.parametrize("cls, kwargs, message", [
    (FrameOptions, {"snip_edges": 1}, "snip_edges must be a bool, got 1"),
    (FrameOptions, {"window_type": 3}, "window_type must be a str, got 3"),
    (FrameOptions, {"frame_length": 10 ** 400},
     f"frame_length must be a finite float, got {10 ** 400}"),
    (FrameOptions, {"dither": np.float32("inf")},
     "dither must be a finite float, got np.float32(inf)"),
    (FrameOptions, {"dither": np.float16("nan")},
     "dither must be a finite float, got np.float16(nan)"),
    (VtlnOptions, {"ubm": {}}, "ubm must be a UbmOptions, got {}"),
    (PipelineConfig, {"features": "mfcc", "options": MfccOptions(), "delta": 2},
     "delta must be a "),
], ids=["int-for-bool", "int-for-str", "int-past-float", "float32-inf", "float16-nan",
        "dict-for-block",
        "int-for-stage"])
def test_api_refuses_other_types(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        cls(**kwargs)


# the configurations swept, as `speech-features config` arguments
SWEPT_CONFIGS = {
    "mfcc --pitch kaldi --delta --cmvn --vtln": default_config(
        "mfcc", with_pitch=True, with_delta=True, with_cmvn=True, with_vtln=True),
    "plp --delta": default_config("plp", with_delta=True),
    "filterbank": default_config("filterbank"),
    "spectrogram": default_config("spectrogram"),
}

# every numeric key gets these values, and the edges of its own rule
SWEPT_VALUES = (1e-320, 1e308, -0.0, 0, -1, 2, 99999999999999999999, 65536,
                1e-9, 0.999999)

# the address space the sweep's process may map: a bound or a count that
# regresses then fails with MemoryError instead of exhausting the host
SWEEP_MEMORY = 1 << 30

# a config that loads must also build the lag grid and the warp-1.0 mel
# bank its extraction builds; a failure there is reported as "loads, but".
# Then the mel banks the process still holds are counted.
SWEEP = """
import gc, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from speechfeatures import MelBanks, compute_mel_banks, read_config
from speechfeatures.pitch import _lag_grid
outcomes = []
for path in json.load(sys.stdin):
    try:
        config = read_config(path)
    except Exception as err:
        outcomes.append(f"{{type(err).__name__}}: {{err}}")
        continue
    try:
        if config.pitch is not None:
            _lag_grid(config.pitch)
        if config.features != "spectrogram":
            compute_mel_banks(config.options, 1.0)
        outcomes.append(None)
    except Exception as err:
        outcomes.append(f"loads, but {{type(err).__name__}}: {{err}}")
gc.collect()
held = sum(isinstance(obj, MelBanks) for obj in gc.get_objects())
json.dump({{"outcomes": outcomes, "banks": held}}, sys.stdout)
"""


def numeric_keys(config):
    """(block path, field, type) of each int or float key of a config."""
    blocks = {"options": config.features,
              **{name: block for block, (name, _) in _STAGES.items()}}

    def walk(path, options):
        kinds = typing.get_type_hints(type(options))
        for field in dataclasses.fields(options):
            value = getattr(options, field.name)
            if isinstance(value, Options):
                yield from walk(path + (blocks.get(field.name, field.name),), value)
            elif kinds[field.name] in (int, float):
                yield path, field, kinds[field.name]

    return list(walk((), config))


def rule_edges(field, kind):
    """Each bound of a field's rule and its nearest neighbours of `kind`."""
    edges = []
    for _, bound in field.metadata.get("bounds", ()):
        if kind is int:
            edges += [bound - 1, bound, bound + 1]
        else:
            edges += [math.nextafter(bound, -math.inf), bound,
                      math.nextafter(bound, math.inf)]
    if field.metadata.get("whole"):
        edges.append(field.default + 0.5)
    return edges


def test_boundary_sweep_names_the_file(tmp_path):
    cases = []
    for name, config in SWEPT_CONFIGS.items():
        for path, field, kind in numeric_keys(config):
            for value in SWEPT_VALUES + tuple(rule_edges(field, kind)):
                tree = copy.deepcopy(config_to_dict(config))
                block = tree
                for key in path:
                    block = block[key]
                block[field.name] = value
                file = tmp_path / f"{len(cases)}.txt"
                file.write_text("\n".join(_render_tree(tree)) + "\n")
                cases.append((name, path + (field.name,), value, str(file)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechfeatures.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", SWEEP.format(limit=SWEEP_MEMORY)],
        input=json.dumps([file for *_, file in cases]), capture_output=True,
        text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    outcomes = report["outcomes"]
    assert len(outcomes) == len(cases) > 700
    # loading many configurations holds at most one configuration's banks
    assert report["banks"] <= 2 * MAX_WARPS + 1
    # a refusal names the file, then the key or one of its blocks; a numpy
    # error (a dimension past its maximum, say) would name neither, and a
    # config that loads but cannot build its sizes is no refusal at all
    wrong = [f"{name}: {'.'.join(key)}: {value!r}: {outcome}"
             for (name, key, value, file), outcome in zip(cases, outcomes)
             if outcome is not None and not (
                 outcome.startswith(f"ValueError: {file}: ") and any(
                     part in outcome[len(f"ValueError: {file}: "):] for part in key))]
    assert not wrong, "\n".join(wrong)
