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

The reader reads a regular file item by item, never the whole file at once.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from collections import UserDict

import numpy as np

__all__ = [
    "Features", "FeaturesCollection", "FeaturesFormatError",
    "concatenate", "save_collection", "load_collection", "read_text",
]

MAGIC = b"SHN1"
# the fixed-size fields of a binary item, in the layout of the module docstring
NAME_LENGTH = struct.Struct("<I")  # byte length of the UTF-8 name
SHAPE = struct.Struct("<QIB")  # frames m, channels n, time columns t
BLOB_LENGTH = struct.Struct("<Q")  # byte length of the JSON properties

# two Features "share times" when they differ by less than this, in seconds
TIME_TOLERANCE = 1e-9

# first line of a saved CSV, followed by the number of time columns
TIME_COLUMNS = "# time_columns: "


class FeaturesFormatError(ValueError):
    """Raised when a stored collection does not match the documented format."""


def read_text(path, parse):
    """parse(lines) over the lines of a UTF-8 text file, as iterated.

    Any ValueError of the read or the parse, undecodable bytes included,
    is raised again as ValueError("<path>: <message>").
    """
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse(list(fp))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


PROPERTIES_RULE = ("properties must be a string-keyed tree of lists and "
                   "scalars, with finite floats")


def _copy_tree(node):
    """A deep copy of `node` if standard JSON holds it exactly (lists, not
    tuples; finite floats), else ValueError(PROPERTIES_RULE)."""
    if isinstance(node, dict) and all(isinstance(k, str) for k in node):
        return {k: _copy_tree(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_copy_tree(v) for v in node]
    if (isinstance(node, (str, bool, int)) or node is None
            or isinstance(node, float) and math.isfinite(node)):
        return node
    raise ValueError(PROPERTIES_RULE)


def _checked_properties(tree):
    """A deep copy of a properties tree, which must be a dict at the top."""
    if not isinstance(tree, dict):
        raise ValueError(PROPERTIES_RULE)
    return _copy_tree(tree)


def frozen(array):
    """`array` if read-only, C-ordered and owning its memory, else a read-only copy."""
    if array.flags.owndata and array.flags.c_contiguous and not array.flags.writeable:
        return array
    array = array.copy()
    array.flags.writeable = False
    return array


class ReadOnlyArrays:
    """Base of read-only array holders: an unpickled array is private, so frozen in place."""

    def __setstate__(self, state):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


class Features(ReadOnlyArrays):
    """An immutable [m, n] feature matrix with frame times and properties.

    The Features keeps its own copy of the properties tree passed in.
    """

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
        self.properties = _checked_properties({} if properties is None else properties)
        self.data = frozen(data)
        self.times = frozen(times)

    @property
    def nframes(self):
        return self.data.shape[0]

    @property
    def nchannels(self):
        return self.data.shape[1]

    def with_properties(self, properties):
        """This Features with a different properties tree, sharing its arrays."""
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
        properties[key] = feats.properties
    properties["processor"] = "+".join(
        str(f.properties.get("processor", "features")) for f in (a, b))
    return Features(np.hstack([a.data, b.data]), a.times, properties)


class FeaturesCollection(UserDict):
    """A name -> Features map with save/load support.

    Every insertion (item assignment, construction, update, setdefault,
    fromkeys, copy, | and |=) goes through __setitem__, which checks the
    name and the value.
    """

    def __setitem__(self, name, feats):
        if not isinstance(name, str) or not name:
            raise ValueError(f"item name must be a non-empty string, got {name!r}")
        if not isinstance(feats, Features):
            raise ValueError(f"{name}: value must be a Features")
        self.data[name] = feats

    def __ior__(self, items):
        # UserDict.__ior__ merges into self.data, past the check
        self.update(items)
        return self

    def save(self, path, format="binary"):
        save_collection(self, path, format)

    @classmethod
    def load(cls, path, format="binary"):
        return load_collection(path, format)


def _codec(format):
    """The (save, load) pair of a format name."""
    if format not in _CODECS:
        raise ValueError(f"unknown format {format!r}, expected {' or '.join(map(repr, _CODECS))}")
    return _CODECS[format]


def save_collection(coll, path, format="binary"):
    """Save a FeaturesCollection as CSV files or a binary container.

    With format="csv", `path` is a directory receiving one `<name>.csv`
    (a `# time_columns: <t>` line, then time columns and data columns, one
    frame per row, full precision) and one `<name>.json` properties file per
    item. With format="binary" a single container file is written (layout
    in the module docstring).

    Every item's properties are checked first, as Features checks them,
    since the tree may have been changed after construction: a ValueError
    names the item and nothing is written.
    """
    save = _codec(format)[0]
    for name, feats in coll.items():
        try:
            _checked_properties(feats.properties)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from err
    save(coll, path)


def load_collection(path, format="binary"):
    """Inverse of save_collection; invariants are re-validated on load."""
    return _codec(format)[1](path)


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


def _time_columns(header):
    """The time-column count a CSV's first line states."""
    t = header[len(TIME_COLUMNS):].strip()
    if not header.startswith(TIME_COLUMNS) or t not in ("1", "2"):
        raise ValueError(f"bad header {header.strip()!r}, expected "
                         f"'{TIME_COLUMNS}1' or '{TIME_COLUMNS}2'")
    return int(t)


def _load_csv(path):
    if not os.path.isdir(path):
        raise FeaturesFormatError(f"{path}: not a directory of CSV features")
    coll = FeaturesCollection()
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".csv"):
            continue
        name = fname[:-4]
        props_path = os.path.join(path, name + ".json")
        try:
            with open(os.path.join(path, fname), "r", encoding="utf-8") as fp:
                t = _time_columns(fp.readline())
                rows = np.loadtxt(fp, delimiter=",", ndmin=2)
            properties = {}
            if os.path.exists(props_path):
                with open(props_path, "r", encoding="utf-8") as fp:
                    properties = json.load(fp)
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
            blob = json.dumps(feats.properties).encode("utf-8")
            fp.write(NAME_LENGTH.pack(len(encoded)) + encoded)
            fp.write(SHAPE.pack(*feats.data.shape, feats.times.shape[1]))
            # the arrays' own C-ordered buffers; no copy on a little-endian host
            fp.write(feats.times.astype("<f8", copy=False))
            fp.write(feats.data.astype("<f8", copy=False))
            fp.write(BLOB_LENGTH.pack(len(blob)) + blob)


def _load_binary(path):
    coll = FeaturesCollection()
    with open(path, "rb") as fp:
        info = os.fstat(fp.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise FeaturesFormatError(f"{path}: not a regular file, cannot "
                                      "read a features container from it")
        if fp.read(len(MAGIC)) != MAGIC:
            raise FeaturesFormatError(f"{path}: bad magic number, not a features container")

        def take(count):
            # checked first, so a corrupt length is never allocated
            if count > info.st_size - fp.tell():
                raise FeaturesFormatError(f"{path}: truncated container")
            return fp.read(count)

        while fp.tell() < info.st_size:
            name_len, = NAME_LENGTH.unpack(take(NAME_LENGTH.size))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as err:
                raise FeaturesFormatError(
                    f"{path}: item name is not valid UTF-8: {err}") from err
            m, n, t = SHAPE.unpack(take(SHAPE.size))
            if t not in (1, 2):
                raise FeaturesFormatError(f"{path}: item {name!r} has {t} time columns")
            times = np.frombuffer(take(8 * m * t), dtype="<f8").reshape(m, t)
            matrix = np.frombuffer(take(8 * m * n), dtype="<f8").reshape(m, n)
            blob = take(BLOB_LENGTH.unpack(take(BLOB_LENGTH.size))[0])
            try:
                properties = json.loads(blob.decode("utf-8"))
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


_CODECS = {"csv": (_save_csv, _load_csv), "binary": (_save_binary, _load_binary)}
# the format names save_collection and load_collection accept
FORMATS = tuple(_CODECS)
