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

import dataclasses
import errno
import functools
import json
import math
import numbers
import operator
import os
import stat
import struct
import sys
import typing
from collections import UserDict

import numpy as np

__all__ = [
    "Features", "FeaturesCollection", "FeaturesFormatError", "Options", "rule",
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


_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_BRACKETS = {">=": "[", ">": "(", "<=": "]", "<": ")"}

# a float field takes a finite real, an int field an integral value, neither a bool
_NUMBERS = {float: (numbers.Real, "a finite float"), int: (numbers.Integral, "an int")}


def rule(default=dataclasses.MISSING, *, low=None, above=None, high=None,
         below=None, whole=False, choices=None):
    """A dataclass field whose value `Options` checks: low <= value, above <
    value, value <= high, value < below, whole if `whole`, in `choices`."""
    bounds = tuple((op, bound) for op, bound in (
        (">=", low), (">", above), ("<=", high), ("<", below)) if bound is not None)
    return dataclasses.field(default=default, metadata={
        "bounds": bounds, "whole": whole, "choices": choices})


def _finite(value):
    """Whether a real is finite, comparing an int exactly: float() may overflow."""
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def _requirement(kind, value, bounds=(), whole=False, choices=None):
    """What a field annotated `kind` with this rule asks that `value` lacks, or None."""
    number, expected = _NUMBERS.get(kind, (kind, f"a {getattr(kind, '__name__', kind)}"))
    if not isinstance(value, number) or kind in _NUMBERS and isinstance(value, bool):
        return expected
    if kind is float and not _finite(value):
        return expected
    if choices is not None and value not in choices:
        return f"one of {', '.join(choices)}"
    if whole and not float(value).is_integer():
        return "a whole number"
    if all(_COMPARISONS[op](value, bound) for op, bound in bounds):
        return None
    if len(bounds) == 1:
        return " ".join(map(str, bounds[0]))
    (low, lower), (high, upper) = bounds
    return f"in {_BRACKETS[low]}{lower}, {upper}{_BRACKETS[high]}"


@functools.cache
def _fields(cls):
    """(name, annotated type, rule metadata) of each field of a dataclass."""
    kinds = typing.get_type_hints(cls)
    return tuple((f.name, kinds[f.name], f.metadata) for f in dataclasses.fields(cls))


class Options:
    """Base of the options dataclasses: __post_init__ checks each field's type
    (a float or int field keeps a float or an int) and rule, raising ValueError("<key>
    must be <type or rule>, got <value>"); a subclass then checks its relational rules."""

    def __post_init__(self):
        for name, kind, field_rule in _fields(type(self)):
            value = getattr(self, name)
            requirement = _requirement(kind, value, **field_rule)
            if requirement is not None:
                raise ValueError(f"{name} must be {requirement}, got {value!r}")
            if kind in _NUMBERS:
                object.__setattr__(self, name, kind(value))


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
    return frozen_in_place(array.copy())


def frozen_in_place(array):
    """`array` made read-only in place, without a copy: for an array that a
    package function has just made and hands over, so no caller keeps it."""
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


def frame_matrix(frames):
    """A Features' data or a frame array as a float64 matrix of at least two
    dimensions; one that already is, a Features' data included, is not copied."""
    data = frames.data if isinstance(frames, Features) else frames
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


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
    """The (check, save, load) functions of a format name."""
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
    names the item and nothing is written. Then `path` is checked, as
    check_target checks it.
    """
    check, save, _ = _codec(format)
    for name, feats in coll.items():
        try:
            _checked_properties(feats.properties)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from err
    check(path, coll)
    save(coll, path)


def load_collection(path, format="binary"):
    """Inverse of save_collection; invariants are re-validated on load."""
    return _codec(format)[2](path)


def check_target(path, names, format="binary"):
    """Raise, before any item is computed, the error that saving items
    `names` to `path` would end with: a binary container needs an existing
    directory and a path that is not a directory, and a CSV output a path
    that is not an existing file and names without a path separator."""
    _codec(format)[0](path, names)


def _error(cls, code, path):
    """An OSError as the failed system call gives it."""
    return cls(code, os.strerror(code), path)


def _check_csv(path, names):
    if os.path.exists(path) and not os.path.isdir(path):
        raise _error(FileExistsError, errno.EEXIST, path)
    for name in names:
        if "/" in name or os.sep in name or (os.altsep and os.altsep in name):
            raise ValueError(f"item name {name!r} contains a path separator")


def _save_csv(coll, path):
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


def _check_binary(path, names):
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise _error(FileNotFoundError, errno.ENOENT, path)
    if os.path.isdir(path):
        raise _error(IsADirectoryError, errno.EISDIR, path)


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


_CODECS = {"csv": (_check_csv, _save_csv, _load_csv),
           "binary": (_check_binary, _save_binary, _load_binary)}
# the format names save_collection and load_collection accept
FORMATS = tuple(_CODECS)
