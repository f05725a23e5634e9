import hashlib
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilmart import Dataset, DatasetError, build_bins, dataset, load_svmlight
from ilmart.dataset import _BLOCK_LINES, MAX_LABEL

from synthdata import random_queries


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_basic_line(tmp_path):
    ds = load_svmlight(write(tmp_path, "2 qid:7 1:0.5 3:-1.0\n"))
    assert ds.num_features == 3
    assert ds.labels.tolist() == [2]
    assert ds.qids == ["7"]
    assert ds.features[0].tolist() == [0.5, 0.0, -1.0]


def test_query_grouping_preserves_file_order(tmp_path):
    ds = load_svmlight(write(tmp_path, "1 qid:1 1:1\n0 qid:1 1:2\n2 qid:2 1:3\n"))
    assert [g.tolist() for g in ds.query_groups] == [[0, 1], [2]]
    assert [ds.qids[g[0]] for g in ds.query_groups] == ["1", "2"]


def test_non_contiguous_qids_group_together(tmp_path):
    ds = load_svmlight(write(tmp_path, "1 qid:a 1:1\n0 qid:b 1:2\n2 qid:a 1:3\n"))
    assert [g.tolist() for g in ds.query_groups] == [[0, 2], [1]]


def test_feature_id_zero_rejected(tmp_path):
    with pytest.raises(DatasetError, match="feature id must be >= 1"):
        load_svmlight(write(tmp_path, "2 qid:7 0:1.0\n"))


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(DatasetError, match=":2:"):
        load_svmlight(write(tmp_path, "1 qid:1 1:1\nnot a line\n"))


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_non_finite_value_reports_line_number(tmp_path, value):
    # The line number counts the comment and the blank line before the row.
    path = write(tmp_path, f"# header\n1 qid:1 1:1\n\n0 qid:1 1:2 3:{value}\n")
    with pytest.raises(DatasetError, match=f"{path}:4: non-finite value .* feature 3"):
        load_svmlight(path)


def test_from_rows_rejects_non_finite():
    with pytest.raises(DatasetError, match="row 1: non-finite value -inf for feature 2"):
        Dataset.from_rows([0, 0], ["q", "q"], [[0.0, 1.0], [2.0, -np.inf]])


@pytest.mark.parametrize("labels, qids, features, message", [
    ([0, 0], ["q", "q"], np.zeros(2), "features must be a 2-d matrix"),
    ([0, 0], ["q", "q"], np.zeros((2, 1, 1)), "features must be a 2-d matrix"),
    ([0], ["q", "q"], np.zeros((2, 1)), "labels, qids and features must have equal length"),
    ([[0], [0]], ["q", "q"], np.zeros((2, 1)),
     "labels, qids and features must have equal length"),
    ([0, 0], ["q"], np.zeros((2, 1)), "labels, qids and features must have equal length"),
    ([], [], np.zeros((0, 3)), "dataset has no rows"),
], ids=["vector", "three_d", "short_labels", "label_column", "short_qids", "no_rows"])
def test_from_rows_refuses_what_is_not_a_table_of_rows(labels, qids, features, message):
    with pytest.raises(DatasetError, match=f"^{message}$"):
        Dataset.from_rows(labels, qids, features)


@pytest.mark.parametrize("labels", [
    [1.5, 0.7], [0, 2**32 + 1], np.array([0, 2**32 + 1], dtype=np.int64), [0, -1], [0, 32],
    [0.0, np.nan], [0.0, np.inf],
], ids=["fractions", "wraps_int32", "wraps_int32_int64", "negative", "above_max", "nan", "inf"])
def test_from_rows_refuses_labels_instead_of_coercing_them(labels):
    with pytest.raises(DatasetError, match=r"labels must be integers in \[0, 31\]"):
        Dataset.from_rows(labels, ["q", "q"], np.zeros((2, 1)))


def test_from_rows_accepts_integral_labels_of_any_type():
    for labels in ([2, 31], [2.0, 31.0], np.array([2, 31], dtype=np.int64)):
        ds = Dataset.from_rows(labels, ["q", "q"], np.zeros((2, 1)))
        assert ds.labels.dtype == np.int32 and ds.labels.tolist() == [2, 31]


def test_non_integer_label(tmp_path):
    with pytest.raises(DatasetError, match="non-integer label"):
        load_svmlight(write(tmp_path, "1.5 qid:1 1:1\n"))


def test_label_that_is_not_a_number_names_its_line(tmp_path):
    path = write(tmp_path, "x qid:1 1:0\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(path)}:1: non-integer label 'x'$"):
        load_svmlight(path)


def test_float_text_but_integral_label_accepted(tmp_path):
    ds = load_svmlight(write(tmp_path, "2.0 qid:1 1:1\n"))
    assert ds.labels.tolist() == [2]


def test_label_above_max_rejected(tmp_path):
    with pytest.raises(DatasetError, match="exceeds the maximum"):
        load_svmlight(write(tmp_path, "32 qid:1 1:1\n"))


def test_negative_label_rejected(tmp_path):
    with pytest.raises(DatasetError, match=">= 0"):
        load_svmlight(write(tmp_path, "-1 qid:1 1:1\n"))


def test_duplicate_feature_id_rejected(tmp_path):
    with pytest.raises(DatasetError, match="duplicate feature id"):
        load_svmlight(write(tmp_path, "1 qid:1 2:1.0 2:2.0\n"))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(DatasetError, match="empty file"):
        load_svmlight(write(tmp_path, ""))
    with pytest.raises(DatasetError, match="empty file"):
        load_svmlight(write(tmp_path, "# only a comment\n\n", name="c.txt"))


def test_comments_and_blank_lines_skipped(tmp_path):
    text = "# header\n1 qid:1 1:1.0 # trailing\n\n0 qid:1 2:2.0\n"
    ds = load_svmlight(write(tmp_path, text))
    assert ds.num_rows == 2
    assert ds.features[1].tolist() == [0.0, 2.0]


def test_num_features_override(tmp_path):
    ds = load_svmlight(write(tmp_path, "1 qid:1 1:1.0\n"), num_features=5)
    assert ds.num_features == 5
    assert ds.features[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_num_features_conflict(tmp_path):
    with pytest.raises(DatasetError, match="exceeds"):
        load_svmlight(write(tmp_path, "1 qid:1 4:1.0\n"), num_features=3)


def test_feature_id_numpy_cannot_shape_is_refused(tmp_path):
    # A first block 10**18 features wide is beyond the address space, and
    # numpy refuses it before allocating.
    path = write(tmp_path, "1 qid:1 1:1.0 1000000000000000000:2.0\n")
    with pytest.raises(DatasetError, match="1000000000000000000 features are too many"):
        load_svmlight(path)


class _OutOfMemory(np.ndarray):
    """A matrix whose ``resize`` fails as numpy's does when memory runs out,
    when it would grow axis ``grow``."""

    grow = 0

    def resize(self, new_shape, refcheck=True):
        if new_shape[self.grow] > self.shape[self.grow]:
            raise MemoryError
        super().resize(new_shape, refcheck=refcheck)


@pytest.mark.parametrize("site, width", [("first_block", 2), ("row_growth", 50), ("widen", 50)])
def test_failed_matrix_allocation_is_refused(tmp_path, monkeypatch, site, width):
    # Line 601 lies in the second block of lines: it grows the rows past the
    # first block's, and its feature id 50 widens the matrix. Each allocation
    # fails by injection, never by asking numpy for that much memory.
    path = write(tmp_path, "1 qid:1 1:1.0 2:0.5\n" * 600 + "0 qid:2 50:1.0\n")
    zeros = np.zeros

    def failing_zeros(shape, *args, **kwargs):
        if shape != (_BLOCK_LINES, 2):          # not the feature matrix
            return zeros(shape, *args, **kwargs)
        if site == "first_block":
            raise MemoryError
        matrix = _OutOfMemory(shape)            # owns its data, so it can resize
        matrix.grow = 0 if site == "row_growth" else 1
        matrix.fill(0.0)
        return matrix

    monkeypatch.setattr(dataset.np, "zeros", failing_zeros)
    with pytest.raises(DatasetError) as info:
        load_svmlight(path)
    assert str(info.value) == f"{path}: {width} features are too many for one matrix"


def test_round_trip(tmp_path):
    ds = random_queries(25, 8, seed=3)
    path = tmp_path / "out.txt"
    ds.save_svmlight(path)
    back = load_svmlight(str(path), num_features=ds.num_features)
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.qids == ds.qids
    np.testing.assert_array_equal(back.features, ds.features)


def test_partition_property():
    ds = random_queries(40, 7, seed=11)
    sizes = sum(len(g) for g in ds.query_groups)
    assert sizes == ds.num_rows
    seen = np.sort(np.concatenate(ds.query_groups))
    np.testing.assert_array_equal(seen, np.arange(ds.num_rows))


def test_binning_constant_feature():
    X = np.ones((4, 1))
    ds = Dataset.from_rows([0, 1, 2, 1], ["a", "a", "b", "b"], X)
    bins = build_bins(ds, max_bins=255)
    assert bins.num_bins(1) == 1
    assert bins.binned[:, 0].tolist() == [0, 0, 0, 0]


def test_binning_median_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    ds = Dataset.from_rows([0, 0, 1, 1], ["a"] * 4, X)
    bins = build_bins(ds, max_bins=2)
    assert bins.boundaries[0].tolist() == [2.5]
    assert bins.binned[:, 0].tolist() == [0, 0, 1, 1]


def test_binning_one_bin_per_distinct_value():
    # Oracle: enumerate the distinct values and check the mapping is a bijection.
    values = np.round(np.arange(0.1, 1.05, 0.1), 10)
    ds = Dataset.from_rows([0] * 10, ["a"] * 10, values.reshape(-1, 1))
    bins = build_bins(ds, max_bins=255)
    distinct = np.unique(values)
    assert bins.num_bins(1) == distinct.size
    assert distinct.tolist() == values.tolist()  # one row per distinct value, in order
    assert bins.binned[:, 0].tolist() == list(range(distinct.size))


def test_binning_monotone_and_consistent():
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(300, 4)), 2)
    ds = Dataset.from_rows(rng.integers(0, 3, 300), [f"q{i//10}" for i in range(300)], X)
    bins = build_bins(ds, max_bins=16)
    for k in range(4):
        order = np.argsort(X[:, k], kind="stable")
        b = bins.binned[order, k].astype(int)
        assert np.all(np.diff(b) >= 0), "bin ids must be monotone in the raw value"
        assert b.max() < bins.num_bins(k + 1)
        # identical raw values share a bin
        for v in np.unique(X[:, k])[:5]:
            ids = bins.binned[X[:, k] == v, k]
            assert len(set(ids.tolist())) == 1


def test_binning_respects_max_bins():
    rng = np.random.default_rng(1)
    X = rng.random((500, 2))
    ds = Dataset.from_rows(rng.integers(0, 2, 500), [f"q{i//25}" for i in range(500)], X)
    bins = build_bins(ds, max_bins=8)
    assert bins.num_bins(1) <= 8 and bins.num_bins(2) <= 8
    for k in (1, 2):
        b = bins.boundaries[k - 1]
        assert np.all(np.diff(b) > 0), "boundaries strictly increasing"


def test_boundaries_reproduce_training_binning():
    # Bin b covers (boundaries[b-1], boundaries[b]] for every training value.
    ds = random_queries(30, 6, seed=5)
    bins = build_bins(ds, max_bins=12)
    for k in range(ds.num_features):
        edges = np.concatenate([[-np.inf], bins.boundaries[k], [np.inf]])
        b = bins.binned[:, k].astype(np.intp)
        x = ds.features[:, k]
        assert np.all(edges[b] < x) and np.all(x <= edges[b + 1])


_ONE_UP = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("values", [
    [0.0, 1e308, 1.7e308],
    [-1.7e308, -1e308, 0.0, 1.7e308],
    # adjacent floats: the halfway point of the last two rounds up to the upper one
    [1.0, _ONE_UP, np.nextafter(_ONE_UP, 2.0)],
])
def test_boundaries_split_every_pair_of_distinct_values(values):
    # (a + b) / 2 overflows to inf on the first two; each boundary m must
    # still be finite with a <= m < b, so every value keeps its own bin.
    X = np.asarray(values).reshape(-1, 1)
    ds = Dataset.from_rows([0] * len(values), ["q"] * len(values), X)
    with np.errstate(over="raise"):
        bounds = build_bins(ds).boundaries[0]
    assert bounds.size == len(values) - 1
    assert np.all(np.isfinite(bounds))
    assert np.all(X[:-1, 0] <= bounds) and np.all(bounds < X[1:, 0])
    assert build_bins(ds).binned[:, 0].tolist() == list(range(len(values)))


def test_max_bins_lower_bound():
    ds = random_queries(5, 4, seed=2)
    with pytest.raises(DatasetError, match="max_bins"):
        build_bins(ds, max_bins=1)


def test_digest_changes_with_content():
    a = random_queries(10, 5, seed=1)
    b = random_queries(10, 5, seed=2)
    assert a.digest() != b.digest()
    assert a.digest() == random_queries(10, 5, seed=1).digest()


def oracle_digest(ds):
    """The digest as it was first written: one ``tobytes()`` copy per array."""
    h = hashlib.sha256()
    h.update(np.asarray(ds.features.shape, dtype=np.int64).tobytes())
    h.update(ds.labels.tobytes())
    h.update(ds.features.tobytes())
    h.update("\x00".join(ds.qids).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("queries, docs, seed", [(1, 1, 0), (10, 5, 1), (300, 9, 2), (700, 4, 3)])
def test_digest_matches_oracle(queries, docs, seed):
    # The larger ones hold more than one block of query ids.
    ds = random_queries(queries, docs, seed=seed)
    assert ds.digest() == oracle_digest(ds)


def test_digest_of_non_contiguous_arrays_matches_oracle():
    rng = np.random.default_rng(4)
    wide = rng.random((2 * _BLOCK_LINES + 3, 9))
    labels = rng.integers(0, 5, wide.shape[0]).astype(np.int64)
    qids = [f"q{r // 7}" for r in range(wide.shape[0])]
    groups = Dataset.from_rows(labels, qids, wide).query_groups
    for features in (wide[:, ::2], wide.T.copy().T, wide[::-1]):
        ds = Dataset(features, labels, qids, groups)
        assert not ds.features.flags.c_contiguous
        assert ds.digest() == oracle_digest(ds)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]),
    st.integers(-(2 ** 53), 2 ** 53).map(float),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_svmlight_text_round_trips_exactly(data):
    rows = data.draw(st.integers(1, 12))
    width = data.draw(st.integers(1, 5))
    features = np.array(data.draw(st.lists(st.lists(FINITE, min_size=width, max_size=width),
                                           min_size=rows, max_size=rows)), dtype=np.float64)
    labels = data.draw(st.lists(st.integers(0, 31), min_size=rows, max_size=rows))
    qid = st.text("abqQ019_-.", min_size=1, max_size=3)
    qids = data.draw(st.lists(qid, min_size=rows, max_size=rows))
    ds = Dataset.from_rows(labels, qids, features)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        ds.save_svmlight(path)
        back = load_svmlight(path)
    # bit patterns, so that -0.0 and 0.0 differ
    assert back.features.view(np.uint64).tolist() == features.view(np.uint64).tolist()
    assert back.labels.tolist() == labels
    assert back.qids == qids
    assert [g.tolist() for g in back.query_groups] == [g.tolist() for g in ds.query_groups]


def oracle_save_svmlight(ds, path):
    """The writer as it was before it worked a block at a time: one f-string
    per cell."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(ds.num_rows):
            feats = " ".join(
                f"{k + 1}:{float(ds.features[r, k])!r}" for k in range(ds.num_features)
            )
            line = f"{ds.labels[r]} qid:{ds.qids[r]}"
            fh.write(line + (" " + feats if feats else "") + "\n")


WRITER_VALUES = st.one_of(FINITE, st.sampled_from(
    [1e16, 1e-05, 123456789012345678.0, -0.0, 5e-324, -1e-310, 2.225073858507201e-308]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(_BLOCK_LINES - 2, 2 * _BLOCK_LINES + 2), width=st.integers(0, 5),
       values=st.lists(WRITER_VALUES, min_size=1, max_size=12),
       qids=st.lists(st.text("abqQ019_-.:é", min_size=1, max_size=3), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_per_cell_oracle(rows, width, values, qids, seed):
    # Rows that cross a block boundary, each cell one of a few drawn values.
    rng = np.random.default_rng(seed)
    features = np.array(values)[rng.integers(0, len(values), (rows, width))]
    labels = rng.integers(0, MAX_LABEL + 1, rows)
    ds = Dataset.from_rows(labels, np.array(qids)[rng.integers(0, len(qids), rows)], features)
    with tempfile.TemporaryDirectory() as tmp:
        ds.save_svmlight(os.path.join(tmp, "new.txt"))
        oracle_save_svmlight(ds, os.path.join(tmp, "old.txt"))
        with open(os.path.join(tmp, "new.txt"), "rb") as new, \
                open(os.path.join(tmp, "old.txt"), "rb") as old:
            assert new.read() == old.read()


@pytest.mark.parametrize("bad, message", [
    ("x#y", "query id 'x#y'"),
    ("a b", "query id 'a b'"),
    ("", "query id ''"),
    ("a\nb", "query id 'a\\\\nb'"),
], ids=["hash", "space", "empty", "newline"])
def test_writer_refuses_qids_it_cannot_read_back(tmp_path, bad, message):
    qids = ["q1", "q1", bad, "q2", bad]
    ds = Dataset.from_rows([0] * 5, qids, np.zeros((5, 2)))
    path = tmp_path / "out.txt"
    with pytest.raises(DatasetError, match=f"^row 2: {message} cannot be written") as info:
        ds.save_svmlight(path)
    assert "\n" not in str(info.value)
    assert not path.exists()


# -- the loader against its per-token reference ------------------------------

def _oracle_parse_label(token, where):
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"{where}: non-integer label {token!r}") from None
    if not value.is_integer():
        raise DatasetError(f"{where}: non-integer label {token!r}")
    label = int(value)
    if label < 0:
        raise DatasetError(f"{where}: label must be >= 0, got {label}")
    if label > MAX_LABEL:
        raise DatasetError(f"{where}: label {label} exceeds the maximum of {MAX_LABEL}")
    return label


def oracle_load_svmlight(path, num_features=None):
    """The loader as it was before bulk parsing: one Python step per token,
    and a value that is not finite refused on its own line."""
    labels, qids, parsed_rows = [], [], []
    max_fid = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            tokens = line.split()
            if len(tokens) < 2 or not tokens[1].startswith("qid:"):
                raise DatasetError(f"{where}: expected '<label> qid:<qid> ...'")
            qid = tokens[1][4:]
            if not qid:
                raise DatasetError(f"{where}: empty query id")
            label = _oracle_parse_label(tokens[0], where)
            fids, vals, seen = [], [], set()
            for tok in tokens[2:]:
                fid_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DatasetError(f"{where}: malformed feature token {tok!r}")
                try:
                    fid = int(fid_s)
                except ValueError:
                    raise DatasetError(f"{where}: non-integer feature id {fid_s!r}") from None
                if fid <= 0:
                    raise DatasetError(f"{where}: feature id must be >= 1, got {fid}")
                if fid in seen:
                    raise DatasetError(f"{where}: duplicate feature id {fid}")
                seen.add(fid)
                try:
                    val = float(val_s)
                except ValueError:
                    raise DatasetError(f"{where}: bad feature value {val_s!r}") from None
                if not np.isfinite(val):
                    raise DatasetError(f"{where}: non-finite value {val!r} for feature {fid}")
                fids.append(fid)
                vals.append(val)
            max_fid = max(max_fid, max(fids, default=0))
            labels.append(label)
            qids.append(qid)
            parsed_rows.append((np.asarray(fids, dtype=np.intp), np.asarray(vals)))
    if not parsed_rows:
        raise DatasetError(f"{path}: empty file")
    d = max_fid if num_features is None else int(num_features)
    if num_features is not None and max_fid > d:
        raise DatasetError(f"{path}: feature id {max_fid} exceeds --num-features {d}")
    features = np.zeros((len(parsed_rows), d), dtype=np.float64)
    for r, (fids, vals) in enumerate(parsed_rows):
        if fids.size:
            features[r, fids - 1] = vals
    return Dataset.from_rows(labels, qids, features)


def _outcome(load, path, num_features):
    """What ``load`` makes of ``path``: the dataset's exact content, or the error."""
    try:
        ds = load(path, num_features=num_features)
    except (DatasetError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.dtype, ds.labels.tolist(),
            ds.qids, [g.tolist() for g in ds.query_groups])


def assert_loads_like_oracle(path, num_features=None):
    assert _outcome(load_svmlight, path, num_features) == \
        _outcome(oracle_load_svmlight, path, num_features)


# Pieces of LETOR text. A line is plain, or has one odd piece that the
# grammar accepts (signs, leading zeros, underscores, other whitespace), or
# one bad piece that it refuses.
PLAIN = {
    "label": st.integers(0, 4).map(str),
    "qid": st.sampled_from(["qid:1", "qid:2", "qid:a", "qid:é"]),
    "value": FINITE.map(repr),
    "space": st.just(" "),
}
ODD = {
    "label": st.sampled_from(["2.0", "1e1", "+3", "-0", "1_0", "31"]),
    "fid": st.sampled_from(["+10", "010", "1_0"]),
    "value": st.sampled_from(["5.", ".5", "1E5", "1e-320", "-0.0", "1_0", "+inf", "nan"]),
    "space": st.sampled_from(["  ", "\t", " \t", "\xa0", "\u2003", "\x1f"]),
}
BAD = {
    "label": st.sampled_from(["32", "-1", "1.5", "nan", "inf", "x", "0x1", "1:2", "٣"]),
    "qid": st.sampled_from(["qid:", "qi:1", "1:1", ""]),
    "fid": st.sampled_from(["0", "-1", "1.0", "1e0", "", "a", "٣", "99999999999999999999"]),
    "value": st.sampled_from(["", "abc", "0x10", "1:2", "1e400", "٣"]),
    "token": st.sampled_from(["7", "::", "1::2", "3:4:5", ":", "1:\t2", "1\x1f:2", "1:\x0b2"]),
}


@st.composite
def letor_lines(draw):
    kind = draw(st.sampled_from(["plain"] * 5 + ["odd"] * 3 + ["bad", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return "# " + draw(st.text("ab 1:2", max_size=6))
    fids = draw(st.lists(st.integers(1, 9), max_size=9, unique=True))
    pieces = {"label": draw(PLAIN["label"]), "qid": draw(PLAIN["qid"]),
              "fids": [str(f) for f in fids], "values": [draw(PLAIN["value"]) for _ in fids],
              "spaces": [" "] * (len(fids) + 1), "extra": []}
    if kind != "plain":
        table = ODD if kind == "odd" else BAD
        part = draw(st.sampled_from(sorted(table) + (["duplicate"] if kind == "bad" else [])))
        if part in ("label", "qid"):
            pieces[part] = draw(table[part])
        elif part == "space":
            pieces["spaces"][draw(st.integers(0, len(fids)))] = draw(table[part])
        elif part == "token":
            pieces["extra"] = [draw(table[part])]
        elif part == "duplicate":
            pieces["extra"] = [f"{draw(st.sampled_from(fids or [3]))}:1.0"] * (1 if fids else 2)
        else:
            pieces["extra"] = [f"{draw(table['fid']) if part == 'fid' else 10}:"
                               f"{draw(table['value']) if part == 'value' else '1.0'}"]
    tokens = [f"{f}:{v}" for f, v in zip(pieces["fids"], pieces["values"])] + pieces["extra"]
    if tokens:
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), tokens.pop())
    line = pieces["label"] + pieces["spaces"][0] + pieces["qid"]
    for space, token in zip(pieces["spaces"][1:] + [" "], tokens):
        line += space + token
    if draw(st.booleans()):
        line += draw(st.sampled_from([" ", "", " \t"])) + "# " + draw(st.text("ab 1:#", max_size=5))
    return line


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(letor_lines(), max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       num_features=st.sampled_from([None, None, 7, 12]))
def test_loader_matches_per_token_oracle(lines, newline, num_features):
    # Mixed widths, odd syntax and bad lines: equal datasets or equal errors.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(newline.join(lines) + newline)
        assert_loads_like_oracle(path, num_features)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wide_sparse_rows_round_trip_exactly(data):
    # 136 features with the zeros left out of some rows, so that rows differ
    # in width within one block of lines.
    rows = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    features = np.round(rng.normal(size=(rows, 136)), 3)
    features[rng.random((rows, 136)) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    features[features == 0] = 0.0  # no -0.0, which a left-out zero cannot keep
    omit = rng.random(rows) < 0.5
    labels = rng.integers(0, 5, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for r in range(rows):
                tokens = [f"{k + 1}:{float(features[r, k])!r}" for k in range(136)
                          if not (omit[r] and features[r, k] == 0.0)]
                fh.write(" ".join([f"{labels[r]}", f"qid:{r // 7}", *tokens]) + "\n")
        back = load_svmlight(path, num_features=136)
        assert_loads_like_oracle(path, 136)
        assert_loads_like_oracle(path)
    assert back.features.view(np.uint64).tolist() == features.view(np.uint64).tolist()
    assert back.labels.tolist() == labels.tolist()


def test_first_bad_line_is_reported(tmp_path):
    # A non-finite value on line 1 comes before a duplicate id on line 2 and
    # a bad value on line 3.
    text = "1 qid:1 1:nan\n1 qid:1 2:1 2:3\n0 qid:1 1:x\n"
    with pytest.raises(DatasetError, match=r":1: non-finite value nan for feature 1$"):
        load_svmlight(write(tmp_path, text))
    # A first block that parses in bulk is checked before the next is read.
    text = "1 qid:1 1:0.5 2:inf\n" + "0 qid:1 1:0.5\n" * _BLOCK_LINES + "x qid:2 1:0\n"
    with pytest.raises(DatasetError, match=r":1: non-finite value inf for feature 2$"):
        load_svmlight(write(tmp_path, text))


@pytest.mark.parametrize("line", [
    "1 qid:1 1:2.5 3:-1e-3 10:7",
    "31 qid:abc 2:0 1:1",
    "0 qid:é",
], ids=["increasing", "unordered", "no_features"])
def test_plain_lines_parse_in_bulk(line):
    labels, qids, fids, values = dataset._parse_block([line, line])
    label, qid, want_fids, want_values = dataset._parse_line(line.split(), "line")
    assert labels.tolist() == [label, label] and qids == [qid, qid]
    for r in range(2):
        assert fids[r].tolist() == want_fids.tolist() + [0] * (fids.shape[1] - want_fids.size)
        assert values[r, :want_values.size].tolist() == want_values.tolist()


@pytest.mark.parametrize("line", [
    "1 qid:1 1:2\t3:4",      # a tab
    "1 qid:1 1:\x0b2",       # other whitespace, which numpy would skip
    "1 qid:1 1:2  3:4",      # a run of spaces
    "1 qid:1 1:2:3 4",       # a token with two colons, then one with none
    "1 qid:1 1:1_0",
    "1 qid:1 1.0:2",
    "1 qid:1 1:٣",
    "1 qid:1 0:2",
    "1 qid:1 2:1 2:3",
    "1.5 qid:1 1:2",
    "32 qid:1 1:2",
    "1 qid: 1:2",
], ids=["tab", "vertical_tab", "space_run", "two_colons", "underscore", "float_fid", "arabic_digit",
        "fid_0", "duplicate", "float_label", "label_32", "empty_qid"])
def test_odd_lines_are_left_to_the_line_parser(line):
    assert dataset._parse_block(["1 qid:1 1:2", line]) is None


# -- files longer than one block of lines --------------------------------------

def _plain_lines(count, max_fid, seed):
    """``count`` well-formed lines, each listing a random subset of ids
    1..max_fid in increasing order, nine rows per query."""
    rng = np.random.default_rng(seed)
    lines = []
    for r in range(count):
        fids = np.sort(rng.choice(max_fid, rng.integers(0, max_fid + 1), replace=False)) + 1
        values = np.round(rng.normal(size=fids.size), 3)
        tokens = [f"{f}:{v!r}" for f, v in zip(fids.tolist(), values.tolist())]
        lines.append(" ".join([str(rng.integers(0, 5)), f"qid:{seed}_{r // 9}", *tokens]))
    return lines


def _write_lines(tmp_path, lines, newline="\n"):
    path = tmp_path / "data.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return str(path)


def _long_file(case):
    lines = _plain_lines(3 * _BLOCK_LINES, 6, 1)
    if case == "bad_late":
        lines[2 * _BLOCK_LINES + 7] = "1 qid:1 4:x"
    elif case == "non_finite_late":
        lines[2 * _BLOCK_LINES + 7] += " 7:inf"
    elif case == "too_wide_late":
        lines[2 * _BLOCK_LINES + 7] += " 9:1.5"
    # A run of blank and comment lines longer than a block, and short runs.
    lines[700:700] = ["", "# comment 1:2", "   \t"] * _BLOCK_LINES
    lines[100:100] = ["#", ""] * 20
    return lines


@pytest.mark.parametrize("case", ["plain", "bad_late", "non_finite_late", "too_wide_late"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_loader_matches_oracle_across_blocks(tmp_path, case, newline):
    path = _write_lines(tmp_path, _long_file(case), newline)
    for num_features in (None, 6, 7):
        assert_loads_like_oracle(path, num_features)


def test_later_wider_block_widens_the_matrix(tmp_path):
    # The first block lists no feature at all, the second ids up to 3, the
    # third ids up to 9, so the matrix is widened twice, in place.
    lines = (["1 qid:a"] * (_BLOCK_LINES + 5) + _plain_lines(_BLOCK_LINES, 3, 2)
             + _plain_lines(_BLOCK_LINES, 9, 3))
    path = _write_lines(tmp_path, lines)
    ds = load_svmlight(path)
    assert ds.num_features == 9 and ds.num_rows == len(lines)
    assert not ds.features[:_BLOCK_LINES + 5].any()
    assert_loads_like_oracle(path)


def test_loader_peak_stays_near_its_matrix(tmp_path):
    # The loader holds one block of lines beside the matrix it fills.
    rows, width = 20_000, 136
    rng = np.random.default_rng(5)
    features = np.round(rng.lognormal(size=(rows, width)), 2)
    ds = Dataset.from_rows(rng.integers(0, 5, rows), [f"q{r // 100}" for r in range(rows)],
                           features)
    path = tmp_path / "big.txt"
    ds.save_svmlight(path)
    del ds
    tracemalloc.start()
    try:
        back = load_svmlight(str(path), num_features=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.features.view(np.uint64), features.view(np.uint64))
    assert peak < 1.5 * features.nbytes, f"peak {peak / features.nbytes:.2f}x the matrix"
