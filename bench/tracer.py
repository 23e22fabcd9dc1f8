"""Per-layer spans recorded around the program's public functions.

The program is not changed: `Tracer.install` replaces each traced function
in the namespaces of the modules that call it (the names those modules look
the function up by at call time) with a wrapper that records a span. A span
is (id, name, start, end, parent id, counts); the parent is the innermost
span open when the call started. Self time is a span's duration minus the
time its child spans cover. Only the traced run installs the wrappers.
"""

import functools
import importlib
import json
import os
import time

import numpy as np


def _frames(args, kwargs, result):
    return {"frames": int(result.nframes)}


def _framed(args, kwargs, result):
    return {"frames": int(result[0].shape[0])}


def _resampled(args, kwargs, result):
    return {"samples": int(np.shape(result)[0])}


def _written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cells(args, kwargs, result):
    a, b = (np.atleast_2d(getattr(x, "data", x)) for x in args[:2])
    return {"cells": a.shape[0] * b.shape[0]}


# (span name, [(module, attribute)], counts of a call or None); every
# (module, attribute) is a place the program looks the function up by
# name when it calls it
TRACED = [
    ("cli.main", [("cli", "main")], None),
    ("audio.parse_utterances", [("cli", "parse_utterances")], None),
    ("audio.load_wav", [("pipeline", "load_wav")], None),
    ("audio.segment", [("pipeline", "segment")], None),
    ("audio.resample", [("pipeline", "resample")], None),
    ("audio.sinc_resample", [("audio", "sinc_resample"), ("pitch", "sinc_resample")],
     _resampled),
    ("framing.extract_frames", [("spectral", "extract_frames")], _framed),
    ("spectral.spectrogram", [("pipeline", "spectrogram")], None),
    ("spectral.filterbank", [("pipeline", "filterbank")], None),
    ("spectral.mfcc", [("pipeline", "mfcc")], None),
    ("spectral.plp", [("pipeline", "plp")], None),
    ("pitch.estimate_pitch", [("pipeline", "estimate_pitch")], _frames),
    ("pitch.postprocess_pitch", [("pipeline", "postprocess_pitch")], None),
    ("postproc.delta", [("pipeline", "delta")], None),
    ("postproc.cmvn_apply", [("pipeline", "cmvn_apply")], None),
    ("speaker.estimate_warps", [("pipeline", "estimate_warps")], None),
    ("speaker.train_ubm", [("speaker", "train_ubm")], None),
    ("features.save_collection", [("features", "save_collection")], _written),
    ("features.load_collection", [("cli", "load_collection")], _read),
    ("pipeline.read_config", [("cli", "read_config")], None),
    ("pipeline.extract_features", [("cli", "extract_features")], None),
    ("evaluate.load_triplets", [("cli", "load_triplets")], None),
    ("evaluate.abx_score", [("cli", "abx_score")], None),
    ("evaluate.dtw_cosine", [("evaluate", "dtw_cosine")], _cells),
]

# per-layer metrics: name -> unit; derived from the spans by `summarize`
METRICS = {
    "audio.sinc_resample_ms": "ms",
    "audio.resampled_samples": "count",
    "audio.load_wav_ms": "ms",
    "audio.load_wav_calls": "count",
    "framing.extract_frames_ms": "ms",
    "framing.frames": "count",
    "spectral.self_ms": "ms",
    "spectral.calls": "count",
    "pitch.estimate_self_ms": "ms",
    "pitch.frames": "count",
    "pitch.postprocess_ms": "ms",
    "postproc.delta_ms": "ms",
    "postproc.cmvn_ms": "ms",
    "speaker.train_ubm_ms": "ms",
    "speaker.train_ubm_calls": "count",
    "speaker.warp_search_self_ms": "ms",
    "speaker.warp_extractions": "count",
    "features.save_ms": "ms",
    "features.load_ms": "ms",
    "features.bytes_written": "bytes",
    "features.bytes_read": "bytes",
    "evaluate.dtw_ms": "ms",
    "evaluate.dtw_cells": "count",
    "evaluate.abx_self_ms": "ms",
    "pipeline.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Records spans for the traced functions of one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, counts]
        self._stack = []
        self._saved = []
        self._origin = time.perf_counter()

    def _wrap(self, name, func, counts):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter() - self._origin,
                    None, self._stack[-1] if self._stack else None, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter() - self._origin
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for name, places, counts in TRACED:
            for module_name, attribute in places:
                module = importlib.import_module("speechfeatures." + module_name)
                original = getattr(module, attribute)
                self._saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(name, original, counts))

    def uninstall(self):
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved = []

    def write(self, path, session_seconds):
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"session_seconds": session_seconds, "spans": self.spans}, fp)


def self_times(spans):
    """Span id -> duration minus the time covered by its children."""
    out = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        if span[4] is not None:
            out[span[4]] -= span[3] - span[2]
    return out


def summarize(spans):
    """The per-layer metrics of one traced session (without the overhead)."""
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    total = {}
    selfs = {}
    calls = {}
    counts = {}
    for span in spans:
        name = span[1]
        total[name] = total.get(name, 0.0) + span[3] - span[2]
        selfs[name] = selfs.get(name, 0.0) + own[span[0]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span[5].items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def ms(table, *names):
        return 1000.0 * sum(table.get(n, 0.0) for n in names)

    spectral = ("spectral.spectrogram", "spectral.filterbank", "spectral.mfcc",
                "spectral.plp")
    warp_extractions = sum(
        1 for span in spans
        if span[1] in spectral and span[4] is not None
        and by_id[span[4]][1] == "speaker.estimate_warps")
    return {
        "audio.sinc_resample_ms": ms(total, "audio.sinc_resample"),
        "audio.resampled_samples": counts.get(("audio.sinc_resample", "samples"), 0),
        "audio.load_wav_ms": ms(total, "audio.load_wav"),
        "audio.load_wav_calls": calls.get("audio.load_wav", 0),
        "framing.extract_frames_ms": ms(total, "framing.extract_frames"),
        "framing.frames": counts.get(("framing.extract_frames", "frames"), 0),
        "spectral.self_ms": ms(selfs, *spectral),
        "spectral.calls": sum(calls.get(n, 0) for n in spectral),
        "pitch.estimate_self_ms": ms(selfs, "pitch.estimate_pitch"),
        "pitch.frames": counts.get(("pitch.estimate_pitch", "frames"), 0),
        "pitch.postprocess_ms": ms(total, "pitch.postprocess_pitch"),
        "postproc.delta_ms": ms(total, "postproc.delta"),
        "postproc.cmvn_ms": ms(total, "postproc.cmvn_apply"),
        "speaker.train_ubm_ms": ms(total, "speaker.train_ubm"),
        "speaker.train_ubm_calls": calls.get("speaker.train_ubm", 0),
        "speaker.warp_search_self_ms": ms(selfs, "speaker.estimate_warps"),
        "speaker.warp_extractions": warp_extractions,
        "features.save_ms": ms(total, "features.save_collection"),
        "features.load_ms": ms(total, "features.load_collection"),
        "features.bytes_written": counts.get(("features.save_collection", "bytes"), 0),
        "features.bytes_read": counts.get(("features.load_collection", "bytes"), 0),
        "evaluate.dtw_ms": ms(total, "evaluate.dtw_cosine"),
        "evaluate.dtw_cells": counts.get(("evaluate.dtw_cosine", "cells"), 0),
        "evaluate.abx_self_ms": ms(selfs, "evaluate.abx_score"),
        "pipeline.self_ms": ms(selfs, "pipeline.read_config",
                               "pipeline.extract_features"),
    }
