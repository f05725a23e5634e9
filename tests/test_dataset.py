import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilmart import Dataset, DatasetError, build_bins, load_svmlight

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
    assert ds.group_qids == ["1", "2"]


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


def test_non_integer_label(tmp_path):
    with pytest.raises(DatasetError, match="non-integer label"):
        load_svmlight(write(tmp_path, "1.5 qid:1 1:1\n"))


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
