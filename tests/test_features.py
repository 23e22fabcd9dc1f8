import copy
import json
import os
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest

from speechfeatures import (AbxTriplet, Audio, CmvnOptions, DiagGmm, Features,
                            FeaturesCollection, FeaturesFormatError, UbmOptions,
                            abx_score, cmvn_apply, concatenate, delta,
                            dtw_cosine, load_collection, postprocess_pitch,
                            save_collection, train_ubm)
from speechfeatures.features import MAGIC, frame_matrix, frozen, frozen_in_place

from conftest import assert_valid_features


def random_features(m=20, n=4, seed=0, times_cols=1, processor="test"):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n))
    centers = np.arange(m) * 0.01 + 0.0125
    times = centers[:, None] if times_cols == 1 else np.column_stack(
        [centers, centers + 0.025])
    return Features(data, times, {"processor": processor,
                                  processor: {"seed": seed}})


class TestInvariants:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Features(np.zeros((3, 2)), np.arange(4, dtype=float))

    def test_empty(self):
        with pytest.raises(ValueError):
            Features(np.zeros((0, 2)), np.zeros(0))

    def test_non_increasing_times(self):
        with pytest.raises(ValueError):
            Features(np.zeros((3, 2)), np.array([0.0, 0.0, 1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Features(np.array([[np.nan]]), np.array([0.0]))

    def test_interval_times_need_onset_before_offset(self):
        with pytest.raises(ValueError):
            Features(np.zeros((2, 1)), np.array([[0.0, 0.0], [1.0, 2.0]]))

    def test_zero_channels_allowed(self):
        feats = Features(np.zeros((3, 0)), np.arange(3, dtype=float))
        assert feats.nchannels == 0

    def test_immutable(self):
        feats = random_features()
        with pytest.raises(ValueError):
            feats.data[0, 0] = 1.0

    @pytest.mark.parametrize("data", [np.zeros(3), np.zeros((3, 2, 1)),
                                      np.float64(1.0)],
                             ids=["1-d", "3-d", "0-d"])
    def test_data_not_a_matrix_rejected(self, data):
        with pytest.raises(ValueError, match=re.escape(
                f"data must be a 2-D matrix, got shape {data.shape}")):
            Features(data, np.arange(3, dtype=float))

    @pytest.mark.parametrize("times", [np.zeros((3, 3)), np.zeros((3, 0)),
                                       np.zeros((3, 1, 1)), np.float64(0.0)],
                             ids=["3-columns", "0-columns", "3-d", "0-d"])
    def test_times_not_one_or_two_columns_rejected(self, times):
        shape = np.shape(times)
        with pytest.raises(ValueError, match=re.escape(
                f"times must have shape [m, 1] or [m, 2], got {shape}")):
            Features(np.zeros((3, 2)), times)

    def test_equality_with_other_types_is_false(self):
        feats = random_features()
        assert feats == random_features()
        assert not feats == [1.0]
        assert feats != "Features(20 frames, 4 channels)"
        assert feats.__eq__(3) is NotImplemented

    def test_repr_gives_frames_and_channels(self):
        assert repr(random_features(m=7, n=3)) == "Features(7 frames, 3 channels)"

    def test_bad_properties(self):
        with pytest.raises(ValueError):
            Features(np.zeros((1, 1)), np.array([0.0]), {"x": object()})

    @pytest.mark.parametrize("properties", [
        {"a": (1, 2)}, {"b": float("nan")}, {"c": float("inf")},
        {"d": [1, {"e": -float("inf")}]},
    ], ids=["tuple", "nan", "inf", "nested-minus-inf"])
    def test_properties_json_would_not_give_back_rejected(self, properties):
        # a tuple loads back as a list; NaN and Infinity are not JSON
        with pytest.raises(ValueError, match="properties"):
            Features(np.zeros((1, 1)), np.array([0.0]), properties)


def raw_item(name, times, data, time_columns=None, properties=None):
    """One item of a binary container, packed by hand as _save_binary
    would, with its time-column count stated as given."""
    times, data = np.asarray(times, "<f8"), np.asarray(data, "<f8")
    encoded = name.encode("utf-8")
    blob = json.dumps(properties or {}).encode("utf-8")
    return (struct.pack("<I", len(encoded)) + encoded
            + struct.pack("<QIB", data.shape[0], data.shape[1],
                          times.shape[1] if time_columns is None else time_columns)
            + times.tobytes() + data.tobytes()
            + struct.pack("<Q", len(blob)) + blob)


# pickling (at every protocol) and copying, which rebuild a value from its state
ROUND_TRIPS = {
    **{f"pickle-{p}": lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
       for p in range(2, pickle.HIGHEST_PROTOCOL + 1)},
    "deepcopy": copy.deepcopy, "copy": copy.copy}


class TestReadOnlyArrays:
    def test_with_properties_shares_the_arrays(self):
        m = 100000
        feats = Features(np.random.default_rng(0).standard_normal((m, 13)),
                         np.arange(m) * 0.01)
        tracemalloc.start()
        try:
            other = feats.with_properties({"processor": "other"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert other.data is feats.data and other.times is feats.times
        assert other.properties == {"processor": "other"}
        assert peak < 0.2 * feats.data.nbytes

    def test_derivations_share_the_times(self):
        a = random_features(10, 2, seed=1)
        b = random_features(10, 3, seed=2)
        assert delta(a).times is a.times
        assert concatenate(a, b).times is a.times
        normalized = cmvn_apply(FeaturesCollection({"a": a}),
                                opts=CmvnOptions(by="utterance"))
        assert normalized["a"].times is a.times
        raw = Features(np.column_stack([np.full(10, 0.5), np.full(10, 120.0)]),
                       a.times)
        assert postprocess_pitch(raw).times is a.times

    def test_what_a_value_does_not_own_is_copied(self):
        owned = np.arange(6.0).reshape(3, 2)
        feats = Features(owned, [0.0, 1.0, 2.0])
        owned[0, 0] = 9.0  # a writeable input stays the caller's
        assert feats.data[0, 0] == 0.0
        # a read-only view, or a read-only Fortran-ordered array, is copied
        view = frozen(owned)[:, :1]
        assert Features(view, [0.0, 1.0, 2.0]).data.base is None
        fortran = np.asfortranarray(np.ones((3, 2)))
        fortran.flags.writeable = False
        copied = Features(fortran, [0.0, 1.0, 2.0]).data
        assert copied is not fortran and copied.flags.c_contiguous

    def test_frozen(self):
        array = np.arange(4.0)
        kept = frozen(array)
        assert kept is not array and not kept.flags.writeable
        assert frozen(kept) is kept
        assert np.array_equal(kept, array)

    def test_frozen_in_place_hands_the_array_over(self):
        array = np.ones((3, 2))
        assert frozen_in_place(array) is array and not array.flags.writeable
        assert Features(array, [0.0, 1.0, 2.0]).data is array

    def test_only_features_py_sets_the_writeable_flag(self):
        package = os.path.dirname(frozen.__code__.co_filename)
        setters = [name for name in sorted(os.listdir(package))
                   if name.endswith(".py") and re.search(
                       r"\.flags\.writeable\s*=[^=]",
                       open(os.path.join(package, name), encoding="utf-8").read())]
        assert setters == ["features.py"]

    @pytest.mark.parametrize("value, names", [
        (random_features(), ["data", "times"]),
        (Audio(np.linspace(-1, 1, 50), 8000), ["samples"]),
        (DiagGmm([0.5, 0.5], np.zeros((2, 3)), np.ones((2, 3))),
         ["weights", "means", "variances"]),
    ], ids=["Features", "Audio", "DiagGmm"])
    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_round_trips_keep_the_arrays_read_only(self, value, names, round_trip):
        back = round_trip(value)
        for name in names:
            array = getattr(back, name)
            assert np.array_equal(array, getattr(value, name))
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class TestFrameMatrix:
    def test_a_features_and_its_data_give_the_same_results(self):
        a, b, x = (random_features(30 + 5 * k, 4, seed=k) for k in range(3))
        opts = UbmOptions(num_gauss=4, num_iters=2, num_iters_init=3)
        gmm = train_ubm(a, opts, seed=1)
        from_data = train_ubm(a.data, opts, seed=1)
        for name in "weights", "means", "variances":
            assert np.array_equal(getattr(gmm, name), getattr(from_data, name))
        assert np.array_equal(gmm.loglikes(b), gmm.loglikes(b.data))
        assert dtw_cosine(a, x) == dtw_cosine(a.data, x.data)
        assert (abx_score([AbxTriplet(a, b, x), AbxTriplet(b, a, x)])
                == abx_score([AbxTriplet(a.data, b.data, x.data),
                              AbxTriplet(b.data, a.data, x.data)]))

    def test_a_features_data_passes_without_a_copy(self):
        feats = random_features()
        assert frame_matrix(feats) is feats.data
        matrix = np.ones((3, 2))
        assert frame_matrix(matrix) is matrix
        row = frame_matrix(np.arange(3.0))
        assert row.shape == (1, 3) and row.dtype == np.float64
        assert frame_matrix([[1, 2]]).dtype == np.float64


class TestConcatenate:
    def test_mfcc_plus_pitch_shape(self):
        a = random_features(98, 13, seed=1, processor="mfcc")
        b = random_features(98, 3, seed=2, processor="pitch")
        out = concatenate(a, b)
        assert out.data.shape == (98, 16)
        assert np.array_equal(out.data[:, :13], a.data)
        assert np.array_equal(out.data[:, 13:], b.data)
        assert "mfcc" in out.properties and "pitch" in out.properties
        assert_valid_features(out)

    def test_empty_channel_identity(self):
        a = random_features(10, 5)
        empty = Features(np.zeros((10, 0)), a.times)
        out = concatenate(a, empty)
        assert np.array_equal(out.data, a.data)

    def test_frame_count_mismatch(self):
        with pytest.raises(ValueError):
            concatenate(random_features(98, 13), random_features(97, 3))

    def test_time_value_mismatch(self):
        a = random_features(10, 2)
        b = Features(np.zeros((10, 2)), a.times + 1e-6)
        with pytest.raises(ValueError, match="times"):
            concatenate(a, b)

    def test_time_tolerance(self):
        a = random_features(10, 2)
        b = Features(np.zeros((10, 1)), a.times + 1e-10)
        assert concatenate(a, b).nchannels == 3

    def test_associative_data(self):
        a = random_features(10, 2, seed=1)
        b = random_features(10, 3, seed=2)
        c = random_features(10, 4, seed=3)
        left = concatenate(concatenate(a, b), c)
        right = concatenate(a, concatenate(b, c))
        assert np.array_equal(left.data, right.data)

    def test_same_processor_names_kept_apart(self):
        a = random_features(5, 2, seed=1, processor="mfcc")
        b = random_features(5, 2, seed=2, processor="mfcc")
        out = concatenate(a, b)
        assert "mfcc" in out.properties and "mfcc_2" in out.properties


def sample_collection(times_cols=1):
    return FeaturesCollection({
        "utt1": random_features(20, 4, seed=1, times_cols=times_cols),
        "utt2": random_features(30, 4, seed=2, times_cols=times_cols),
    })


class TestCsvFormat:
    def test_file_layout(self, tmp_path):
        coll = sample_collection()
        save_collection(coll, tmp_path / "out", format="csv")
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["utt1.csv", "utt1.json", "utt2.csv", "utt2.json"]

    def test_round_trip(self, tmp_path):
        coll = sample_collection()
        coll.save(tmp_path / "out", format="csv")
        back = FeaturesCollection.load(tmp_path / "out", format="csv")
        assert set(back) == {"utt1", "utt2"}
        assert back == coll

    def test_interval_times_round_trip(self, tmp_path):
        coll = sample_collection(times_cols=2)
        coll.save(tmp_path / "out", format="csv")
        back = FeaturesCollection.load(tmp_path / "out", format="csv")
        assert back["utt1"].times.shape == (20, 2)
        assert back == coll

    def test_time_column_count_round_trips(self, tmp_path):
        # the first data column is times + 1: it behaves like an offset
        times = np.arange(5) * 0.01 + 0.005
        data = np.column_stack([times + 1.0, np.arange(5.0), -np.arange(5.0)])
        coll = FeaturesCollection({"u": Features(data, times)})
        coll.save(tmp_path / "out", format="csv")
        assert (tmp_path / "out" / "u.csv").read_text().startswith(
            "# time_columns: 1\n")
        back = FeaturesCollection.load(tmp_path / "out", format="csv")
        assert back["u"].times.shape == (5, 1)
        assert back["u"].data.shape == (5, 3)
        assert np.array_equal(back["u"].data, data)

    def test_headerless_csv_rejected_naming_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.csv").write_text("0.0,0.02,7.0\n0.01,0.03,8.0\n")
        with pytest.raises(FeaturesFormatError,
                           match=re.escape(f"{out}/a.csv: bad header '0.0,0.02,7.0'")):
            load_collection(out, format="csv")

    def test_bad_number_names_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.csv").write_text("# time_columns: 1\n0.1,1.0\n0.2,abc\n")
        with pytest.raises(FeaturesFormatError,
                           match=re.escape(f"{out}/a.csv: ") + ".*abc"):
            load_collection(out, format="csv")

    def test_bad_properties_json_names_file(self, tmp_path):
        out = tmp_path / "out"
        sample_collection().save(out, format="csv")
        (out / "utt2.json").write_text('{"processor": ')
        with pytest.raises(FeaturesFormatError, match=re.escape(f"{out}/utt2.csv: ")):
            load_collection(out, format="csv")

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "5"])
    def test_properties_not_a_dict_names_file(self, tmp_path, text):
        out = tmp_path / "out"
        sample_collection().save(out, format="csv")
        (out / "utt2.json").write_text(text)
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{out}/utt2.csv: properties must be a string-keyed tree")):
            load_collection(out, format="csv")

    @pytest.mark.parametrize("header", ["# time_columns: 3", "# time_columns: x"])
    def test_bad_time_column_header_rejected(self, tmp_path, header):
        out = tmp_path / "out"
        out.mkdir()
        (out / "bad.csv").write_text(f"{header}\n0.0,1.0,2.0\n0.01,1.0,2.0\n")
        with pytest.raises(FeaturesFormatError, match="time_columns"):
            load_collection(out, format="csv")

    def test_name_with_separator_rejected(self, tmp_path):
        coll = FeaturesCollection({"a/b": random_features()})
        with pytest.raises(ValueError, match="separator"):
            coll.save(tmp_path / "out", format="csv")

    def test_unwritable_destination(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            save_collection(sample_collection(), blocker / "sub", format="csv")

    def test_file_instead_of_directory_names_it(self, tmp_path):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: not a directory of CSV features")):
            load_collection(path, format="csv")

    def test_directory_without_csv_names_it(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("no features here\n")
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{out}: no CSV features found")):
            load_collection(out, format="csv")

    def test_invariant_violation_on_load(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        # repeated frame times break the Features invariant
        (out / "bad.csv").write_text("# time_columns: 1\n1.0,5.0\n1.0,6.0\n")
        with pytest.raises(FeaturesFormatError, match="bad.csv: .*times"):
            load_collection(out, format="csv")


@pytest.mark.parametrize("format", ["binary", "csv"])
@pytest.mark.parametrize("value", [float("nan"), (1, 2)], ids=["nan", "tuple"])
def test_save_refuses_properties_changed_past_the_rule(tmp_path, format, value):
    # a NaN would not load back, a tuple would load back as a list
    coll = sample_collection()
    coll["utt2"].properties["x"] = value
    path = tmp_path / "feats"
    with pytest.raises(ValueError, match="^utt2: properties must be a "
                                         "string-keyed tree"):
        save_collection(coll, path, format)
    assert not path.exists()


@pytest.mark.parametrize("format", ["binary", "csv"])
def test_save_refuses_properties_replaced_by_a_non_dict(tmp_path, format):
    coll = sample_collection()
    coll["utt2"].properties = [1, 2]
    path = tmp_path / "feats"
    with pytest.raises(ValueError, match="^utt2: properties must be a "
                                         "string-keyed tree"):
        save_collection(coll, path, format)
    assert not path.exists()


class TestBinaryFormat:
    def test_round_trip_exact(self, tmp_path):
        coll = sample_collection()
        path = tmp_path / "feats.bin"
        coll.save(path, format="binary")
        back = FeaturesCollection.load(path, format="binary")
        assert back == coll

    def test_interval_times(self, tmp_path):
        coll = sample_collection(times_cols=2)
        path = tmp_path / "feats.bin"
        coll.save(path, format="binary")
        assert FeaturesCollection.load(path, format="binary") == coll

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FeaturesFormatError, match="magic"):
            load_collection(path, format="binary")

    def test_truncated(self, tmp_path):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FeaturesFormatError, match="truncated"):
            load_collection(path, format="binary")

    def test_bad_utf8_item_name_names_file(self, tmp_path):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        raw = bytearray(path.read_bytes())
        raw[8] = 0xff  # first byte of the first item name
        path.write_bytes(bytes(raw))
        with pytest.raises(FeaturesFormatError,
                           match=re.escape(f"{path}: item name")):
            load_collection(path, format="binary")

    def test_bad_properties_json_names_file_and_item(self, tmp_path):
        path = tmp_path / "feats.bin"
        coll = sample_collection()
        coll.save(path, format="binary")
        raw = path.read_bytes()
        blob = raw.index(b'{"processor"')  # first item's properties
        path.write_bytes(raw[:blob] + b"x" + raw[blob + 1:])
        first = next(iter(coll))
        with pytest.raises(FeaturesFormatError,
                           match=re.escape(f"{path}: item {first!r}: bad properties")):
            load_collection(path, format="binary")

    def test_raw_item_matches_the_writer(self, tmp_path):
        # the hand-packed items below are what the writer itself produces
        path = tmp_path / "feats.bin"
        feats = random_features(m=3, n=2)
        FeaturesCollection({"u": feats}).save(path, format="binary")
        assert path.read_bytes() == MAGIC + raw_item(
            "u", feats.times, feats.data, properties=feats.properties)

    @pytest.mark.parametrize("time_columns", [0, 3, 255])
    def test_bad_time_column_count_names_file_and_item(self, tmp_path,
                                                        time_columns):
        path = tmp_path / "feats.bin"
        path.write_bytes(MAGIC + raw_item("u", [[0.0]], [[1.0]], time_columns))
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: item 'u' has {time_columns} time columns")):
            load_collection(path, format="binary")

    @pytest.mark.parametrize("properties", [[1, 2], "abc", 5],
                             ids=["list", "str", "int"])
    def test_properties_not_a_dict_names_file_and_item(self, tmp_path, properties):
        path = tmp_path / "feats.bin"
        path.write_bytes(MAGIC + raw_item("u", [[0.0]], [[1.0]], properties=properties))
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: item 'u': properties must be a string-keyed tree")):
            load_collection(path, format="binary")

    def test_duplicate_item_names_file_and_item(self, tmp_path):
        path = tmp_path / "feats.bin"
        item = raw_item("u", [[0.0], [0.01]], [[1.0], [2.0]])
        path.write_bytes(MAGIC + item + raw_item("v", [[0.0]], [[3.0]]) + item)
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: duplicate item name 'u'")):
            load_collection(path, format="binary")

    @pytest.mark.parametrize("times, message", [
        ([[0.0], [0.0]], "times must be strictly increasing"),
        ([[0.02], [0.01]], "times must be strictly increasing"),
        ([[0.0, 0.02], [0.01, 0.01]], "onset < offset")])
    def test_times_not_increasing_names_file_and_item(self, tmp_path, times,
                                                       message):
        path = tmp_path / "feats.bin"
        path.write_bytes(MAGIC + raw_item("v", [[0.0]], [[3.0]])
                         + raw_item("u", times, [[1.0], [2.0]]))
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: item 'u': ") + ".*" + re.escape(message)):
            load_collection(path, format="binary")

    def test_huge_frame_count_fails_as_truncated_unallocated(self, tmp_path):
        path = tmp_path / "feats.bin"
        item = raw_item("u", [[0.0]], [[1.0]])
        shape = 4 + 1  # after the name length and the name
        huge = item[:shape] + struct.pack("<QIB", 2 ** 60, 1, 1) + item[shape + 13:]
        path.write_bytes(MAGIC + huge)
        tracemalloc.start()
        try:
            with pytest.raises(FeaturesFormatError, match=re.escape(
                    f"{path}: truncated container")):
                load_collection(path, format="binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("trailing", [b"\0", b"\0\0", b"abc"])
    def test_trailing_bytes_fail_as_truncated(self, tmp_path, trailing):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        path.write_bytes(path.read_bytes() + trailing)
        with pytest.raises(FeaturesFormatError, match=re.escape(
                f"{path}: truncated container")):
            load_collection(path, format="binary")

    def test_magic_only_is_an_empty_collection(self, tmp_path):
        path = tmp_path / "feats.bin"
        path.write_bytes(MAGIC)
        back = load_collection(path, format="binary")
        assert type(back) is FeaturesCollection and len(back) == 0
        FeaturesCollection().save(path)
        assert path.read_bytes() == MAGIC

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_rejected_naming_it(self, tmp_path):
        sample_collection().save(tmp_path / "feats.bin")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (tmp_path / "feats.bin").read_bytes()[:1024])
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            with pytest.raises(FeaturesFormatError, match=re.escape(
                    f"{path}: not a regular file")):
                load_collection(path)
        finally:
            os.close(read_end)

    def test_load_holds_the_collection_plus_about_one_item(self, tmp_path):
        # 200 items of 400 x 13: about 9 MB on disk, 45 kB per item
        rng = np.random.default_rng(3)
        path = tmp_path / "big.bin"
        FeaturesCollection({
            f"utt{i:03d}": Features(rng.standard_normal((400, 13)),
                                    0.01 * np.arange(1, 401), {"i": i})
            for i in range(200)}).save(path)
        size = path.stat().st_size
        assert size >= 5e6
        tracemalloc.start()
        try:
            back = load_collection(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 200
        assert peak - held < 0.1 * size, (peak, held, size)

    def test_magic_is_shn1(self, tmp_path):
        path = tmp_path / "feats.bin"
        sample_collection().save(path, format="binary")
        assert path.read_bytes()[:4] == MAGIC == b"SHN1"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            save_collection(sample_collection(), tmp_path / "x", format="npz")


class TestCollection:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FeaturesCollection({"": random_features()})

    def test_non_features_rejected(self):
        with pytest.raises(ValueError):
            FeaturesCollection({"a": np.zeros((2, 2))})

    # every way a dict takes an item goes through the same name/value check
    @pytest.mark.parametrize("insert, message", [
        (lambda c: c.update({"a": 3}), "a: value must be a Features"),
        (lambda c: c.update(b=None), "b: value must be a Features"),
        (lambda c: c.update([("", random_features())]), "non-empty string"),
        (lambda c: c.setdefault("", "x"), "non-empty string"),
        (lambda c: c.setdefault("c"), "c: value must be a Features"),
        (lambda c: c.__ior__({"d": None}), "d: value must be a Features"),
        (lambda c: FeaturesCollection(e=np.zeros((2, 2))),
         "e: value must be a Features"),
        (lambda c: c | {"x": 3}, "x: value must be a Features"),
        (lambda c: {"x": 3} | c, "x: value must be a Features"),
        (lambda c: FeaturesCollection.fromkeys(["x"]), "x: value must be a Features"),
    ], ids=["update", "update-keyword", "update-pairs", "setdefault-name",
            "setdefault-value", "ior", "keyword-construction", "or", "reflected-or",
            "fromkeys"])
    def test_every_insertion_checked(self, insert, message):
        coll = FeaturesCollection({"ok": random_features()})
        with pytest.raises(ValueError, match=message):
            insert(coll)
        assert list(coll) == ["ok"]

    def test_insertions_of_features_accepted(self, tmp_path):
        feats = random_features()
        coll = FeaturesCollection(a=feats)
        coll.update({"b": feats}, c=feats)
        assert coll.setdefault("a", random_features(seed=1)) is feats
        coll |= {"d": feats}
        assert isinstance(coll, FeaturesCollection)
        assert list(coll) == ["a", "b", "c", "d"]
        other = {"e": random_features(seed=2)}
        assert type(coll.copy()) is FeaturesCollection
        assert type(coll | other) is FeaturesCollection
        assert type(other | coll) is FeaturesCollection
        assert list(other | coll) == ["e", "a", "b", "c", "d"]
        path = tmp_path / "copy.bin"
        coll.copy().save(path)
        assert load_collection(path) == coll
