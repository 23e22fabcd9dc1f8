"""The Features / FeaturesCollection data model with serialization.

A Features holds a [m, n] data matrix (m frames, n channels), a [m, 1] or
[m, 2] time matrix in seconds (frame centers, or onset/offset pairs) and a
properties tree recording extraction provenance. A FeaturesCollection maps
utterance names to Features and can be saved to CSV files or to a compact
binary container (see the format notes below).

Binary container layout, little-endian throughout:

    magic   4 bytes  b"SHN1"
    per item:
        u32   byte length of the UTF-8 item name
        ...   item name
        u64   m (number of frames)
        u32   n (number of channels)
        u8    t (number of time columns, 1 or 2)
        f64 * m*t   times, row-major
        f64 * m*n   data, row-major
        u64   byte length of the JSON properties blob
        ...   JSON properties
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

__all__ = [
    "Features", "FeaturesCollection", "FeaturesFormatError",
    "concatenate", "save_collection", "load_collection",
]

MAGIC = b"SHN1"

# two Features "share times" when they differ by less than this, in seconds
TIME_TOLERANCE = 1e-9

# first line of a saved CSV, followed by the number of time columns
TIME_COLUMNS = "# time_columns: "


class FeaturesFormatError(ValueError):
    """Raised when a stored collection does not match the documented format."""


def _valid_properties(node):
    """Does standard JSON hold `node` exactly? Lists, not tuples; finite floats."""
    if isinstance(node, dict):
        return all(isinstance(k, str) and _valid_properties(v) for k, v in node.items())
    if isinstance(node, list):
        return all(_valid_properties(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return isinstance(node, (str, bool, int)) or node is None


class Features:
    """An immutable [m, n] feature matrix with frame times and properties."""

    def __init__(self, data, times, properties=None):
        data = np.asarray(data, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if times.ndim == 1:
            times = times[:, None]
        if data.ndim != 2:
            raise ValueError(f"data must be a 2-D matrix, got shape {data.shape}")
        if times.ndim != 2 or times.shape[1] not in (1, 2):
            raise ValueError(f"times must have shape [m, 1] or [m, 2], got {times.shape}")
        if data.shape[0] != times.shape[0]:
            raise ValueError(
                f"data has {data.shape[0]} frames but times has {times.shape[0]}")
        if data.shape[0] < 1:
            raise ValueError("features must have at least one frame")
        if not np.all(np.isfinite(data)) or not np.all(np.isfinite(times)):
            raise ValueError("features data and times must be finite")
        if np.any(np.diff(times[:, 0]) <= 0):
            raise ValueError("times must be strictly increasing")
        if times.shape[1] == 2 and np.any(times[:, 0] >= times[:, 1]):
            raise ValueError("each [onset, offset] row needs onset < offset")
        properties = {} if properties is None else properties
        if not _valid_properties(properties):
            raise ValueError("properties must be a string-keyed tree of lists "
                             "and scalars, with finite floats")
        data = data.copy()
        times = times.copy()
        data.flags.writeable = False
        times.flags.writeable = False
        self.data = data
        self.times = times
        self.properties = properties

    @property
    def nframes(self):
        return self.data.shape[0]

    @property
    def nchannels(self):
        return self.data.shape[1]

    def with_properties(self, properties):
        """A copy of this Features carrying a different properties tree."""
        return Features(self.data, self.times, properties)

    def __eq__(self, other):
        if not isinstance(other, Features):
            return NotImplemented
        return (np.array_equal(self.data, other.data)
                and np.array_equal(self.times, other.times)
                and self.properties == other.properties)

    def __repr__(self):
        return f"Features({self.nframes} frames, {self.nchannels} channels)"


def concatenate(a, b):
    """Concatenate two Features sharing the same times over the channel axis.

    The result has a's columns followed by b's. Properties of the inputs are
    kept under one sub-key each, named after the producing processor (the
    "processor" property, falling back to "features").
    """
    if a.times.shape != b.times.shape:
        raise ValueError(
            f"cannot concatenate: times shapes {a.times.shape} and {b.times.shape}")
    if not np.allclose(a.times, b.times, rtol=0, atol=TIME_TOLERANCE):
        raise ValueError("cannot concatenate: frame times differ")

    properties = {}
    for feats in (a, b):
        key = str(feats.properties.get("processor", "features"))
        while key in properties:
            key += "_2"
        properties[key] = dict(feats.properties)
    properties["processor"] = "+".join(
        str(f.properties.get("processor", "features")) for f in (a, b))
    return Features(np.hstack([a.data, b.data]), a.times, properties)


class FeaturesCollection(dict):
    """A name -> Features map with save/load support.

    Every insertion (item assignment, construction, update, setdefault and
    |=) goes through __setitem__, which checks the name and the value.
    """

    def __init__(self, items=(), /, **kwargs):
        self.update(items, **kwargs)

    def __setitem__(self, name, feats):
        if not isinstance(name, str) or not name:
            raise ValueError(f"item name must be a non-empty string, got {name!r}")
        if not isinstance(feats, Features):
            raise ValueError(f"{name}: value must be a Features")
        super().__setitem__(name, feats)

    def update(self, items=(), /, **kwargs):
        for name, feats in dict(items, **kwargs).items():
            self[name] = feats

    def setdefault(self, name, feats=None):
        if name not in self:
            self[name] = feats
        return self[name]

    def __ior__(self, items):
        self.update(items)
        return self

    def save(self, path, format="binary"):
        save_collection(self, path, format)

    @classmethod
    def load(cls, path, format="binary"):
        return load_collection(path, format)


def save_collection(coll, path, format="binary"):
    """Save a FeaturesCollection as CSV files or a binary container.

    With format="csv", `path` is a directory receiving one `<name>.csv`
    (a `# time_columns: <t>` line, then time columns and data columns, one
    frame per row, full precision) and one `<name>.json` properties file per
    item. With format="binary" a single container file is written (layout
    in the module docstring).
    """
    if format == "csv":
        _save_csv(coll, path)
    elif format == "binary":
        _save_binary(coll, path)
    else:
        raise ValueError(f"unknown format {format!r}, expected 'csv' or 'binary'")


def load_collection(path, format="binary"):
    """Inverse of save_collection; invariants are re-validated on load."""
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'binary'")


def _save_csv(coll, path):
    for name in coll:
        if "/" in name or os.sep in name or (os.altsep and os.altsep in name):
            raise ValueError(f"item name {name!r} contains a path separator")
    os.makedirs(path, exist_ok=True)
    for name, feats in coll.items():
        rows = np.hstack([feats.times, feats.data])
        np.savetxt(os.path.join(path, name + ".csv"), rows, fmt="%.17g",
                   delimiter=",", header=f"{TIME_COLUMNS}{feats.times.shape[1]}",
                   comments="")
        with open(os.path.join(path, name + ".json"), "w", encoding="utf-8") as fp:
            json.dump(feats.properties, fp, indent=2)


def _time_columns(header, rows):
    """The time-column count a CSV's first line states, or else a guess.

    Without that line, columns 0 and 1 are both read as times when both
    behave like times.
    """
    if not header.startswith(TIME_COLUMNS):
        return 2 if _looks_like_intervals(rows) else 1
    t = header[len(TIME_COLUMNS):].strip()
    if t not in ("1", "2"):
        raise ValueError(f"bad header {header.strip()!r}, expected "
                         f"'{TIME_COLUMNS}1' or '{TIME_COLUMNS}2'")
    return int(t)


def _looks_like_intervals(cols):
    """Are columns 0 and 1 of a headerless CSV both time columns?"""
    if cols.shape[1] < 3:
        return False
    onsets, offsets = cols[:, 0], cols[:, 1]
    return (np.all(np.diff(onsets) > 0)
            and np.all(onsets < offsets)
            and np.all(np.diff(offsets) > 0))


def _load_csv(path):
    if not os.path.isdir(path):
        raise FeaturesFormatError(f"{path}: not a directory of CSV features")
    coll = FeaturesCollection()
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".csv"):
            continue
        name = fname[:-4]
        with open(os.path.join(path, fname), "r", encoding="utf-8") as fp:
            header = fp.readline()
            fp.seek(0)
            rows = np.loadtxt(fp, delimiter=",", ndmin=2)
        props_path = os.path.join(path, name + ".json")
        properties = {}
        if os.path.exists(props_path):
            with open(props_path, "r", encoding="utf-8") as fp:
                properties = json.load(fp)
        try:
            t = _time_columns(header, rows)
            coll[name] = Features(rows[:, t:], rows[:, :t], properties)
        except ValueError as err:
            raise FeaturesFormatError(f"{path}/{fname}: {err}") from err
    if not coll:
        raise FeaturesFormatError(f"{path}: no CSV features found")
    return coll


def _save_binary(coll, path):
    with open(path, "wb") as fp:
        fp.write(MAGIC)
        for name, feats in coll.items():
            encoded = name.encode("utf-8")
            m, n = feats.data.shape
            t = feats.times.shape[1]
            fp.write(struct.pack("<I", len(encoded)))
            fp.write(encoded)
            fp.write(struct.pack("<QIB", m, n, t))
            fp.write(np.ascontiguousarray(feats.times).tobytes())
            fp.write(np.ascontiguousarray(feats.data).tobytes())
            blob = json.dumps(feats.properties).encode("utf-8")
            fp.write(struct.pack("<Q", len(blob)))
            fp.write(blob)


def _load_binary(path):
    with open(path, "rb") as fp:
        data = fp.read()
    if data[:4] != MAGIC:
        raise FeaturesFormatError(f"{path}: bad magic number, not a features container")

    def take(pos, count):
        if pos + count > len(data):
            raise FeaturesFormatError(f"{path}: truncated container")
        return data[pos:pos + count], pos + count

    coll = FeaturesCollection()
    pos = 4
    while pos < len(data):
        raw, pos = take(pos, 4)
        name_len, = struct.unpack("<I", raw)
        raw, pos = take(pos, name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FeaturesFormatError(
                f"{path}: item name is not valid UTF-8: {err}") from err
        raw, pos = take(pos, 13)
        m, n, t = struct.unpack("<QIB", raw)
        if t not in (1, 2):
            raise FeaturesFormatError(f"{path}: item {name!r} has {t} time columns")
        raw, pos = take(pos, 8 * m * t)
        times = np.frombuffer(raw, dtype="<f8").reshape(m, t)
        raw, pos = take(pos, 8 * m * n)
        matrix = np.frombuffer(raw, dtype="<f8").reshape(m, n)
        raw, pos = take(pos, 8)
        blob_len, = struct.unpack("<Q", raw)
        raw, pos = take(pos, blob_len)
        try:
            properties = json.loads(raw.decode("utf-8"))
        except ValueError as err:  # bad UTF-8 or bad JSON
            raise FeaturesFormatError(
                f"{path}: item {name!r}: bad properties: {err}") from err
        if name in coll:
            raise FeaturesFormatError(f"{path}: duplicate item name {name!r}")
        try:
            coll[name] = Features(matrix, times, properties)
        except ValueError as err:
            raise FeaturesFormatError(f"{path}: item {name!r}: {err}") from err
    return coll
