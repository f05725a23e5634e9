import itertools
import math

import numpy as np
import pytest

from ilmart import Dataset, mean_ndcg
from ilmart.metrics import QueryEvaluator, ranked_gains

from oracles import ideal_dcg, ndcg_at
from synthdata import one_query, random_queries


def ndcg(labels, scores, k):
    """NDCG@k of one query through the shipped kernel."""
    return float(mean_ndcg(scores, one_query(labels), (k,)).per_query[k][0])


def oracle_ndcg(labels, scores, k):
    """Brute-force oracle: the ideal ordering is found by enumerating every
    permutation; the model ordering sorts by descending score with ties
    broken by the original index."""

    def dcg(order):
        return sum(
            (2 ** labels[d] - 1) / math.log2(r + 2) for r, d in enumerate(order[:k])
        )

    n = len(labels)
    ideal = max(dcg(p) for p in itertools.permutations(range(n)))
    if ideal == 0:
        return 1.0
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return dcg(order) / ideal


def test_all_zero_labels_score_one():
    assert ndcg([0, 0, 0], [0.3, 0.1, 0.9], 10) == 1.0


def test_three_document_example():
    # DCG = 3/1 + 7/log2(3); ideal = 7/1 + 3/log2(3)
    got = ndcg([3, 2, 0], [0.5, 1.0, 0.2], 3)
    expected = (3 + 7 / math.log2(3)) / (7 + 3 / math.log2(3))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(oracle_ndcg([3, 2, 0], [0.5, 1.0, 0.2], 3), abs=1e-12)


def test_stable_tie_break_keeps_first_index_first():
    assert ndcg([1, 0], [0.0, 0.0], 2) == 1.0
    assert ndcg([0, 1], [0.0, 0.0], 2) < 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        ndcg([1, 0], [0.5], 3)
    with pytest.raises(ValueError):
        ndcg([1, 0], [0.5, 0.2], 0)


def test_matches_oracle_on_random_queries():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        labels = rng.integers(0, 5, n).tolist()
        scores = rng.normal(size=n).tolist()
        k = int(rng.integers(1, 11))
        assert ndcg(labels, scores, k) == pytest.approx(
            oracle_ndcg(labels, scores, k), abs=1e-12
        )


def test_translation_invariance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, 12)
    scores = rng.normal(size=12)
    for shift in (-100.0, 3.5, 1e6):
        assert ndcg(labels, scores, 5) == pytest.approx(
            ndcg(labels, scores + shift, 5), abs=1e-12
        )


def test_scoring_by_labels_is_perfect():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 5, 20)
    assert ndcg(labels, labels.astype(float), 10) == pytest.approx(1.0, abs=1e-12)
    assert ndcg(labels, np.exp(labels.astype(float)), 10) == pytest.approx(1.0, abs=1e-12)


def test_dcg_nondecreasing_in_cutoff():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 5, 15)
    ranked = labels[np.argsort(-rng.normal(size=15))]
    ds = one_query(ranked)
    gains = ranked_gains(ds, -np.arange(15.0))    # already in rank order
    dcgs = [QueryEvaluator(ds, k).dcg(gains)[0] for k in range(1, 16)]
    # up to summation-order noise, each added rank can only add gain
    assert all(b >= a - 1e-9 for a, b in zip(dcgs, dcgs[1:]))


def test_permutation_equivariance_without_ties():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 5, 10)
    scores = rng.permutation(np.linspace(-1, 1, 10))
    base = ndcg(labels, scores, 5)
    for _ in range(10):
        perm = rng.permutation(10)
        assert ndcg(labels[perm], scores[perm], 5) == pytest.approx(base, abs=1e-12)


def test_mean_ndcg_trivials():
    ds = random_queries(1, 5, seed=1)
    perfect = ds.labels.astype(float)
    report = mean_ndcg(perfect, ds, (1, 5, 10))
    assert all(report.mean[k] == pytest.approx(1.0, abs=1e-12) for k in (1, 5, 10))
    assert report.num_queries == 1


def test_mean_is_arithmetic_mean():
    ds = random_queries(20, 6, seed=8)
    rng = np.random.default_rng(2)
    scores = rng.normal(size=ds.num_rows)
    report = mean_ndcg(scores, ds, (10,))
    per_query = [
        oracle_ndcg(ds.labels[g].tolist(), scores[g].tolist(), 10)
        for g in ds.query_groups
    ]
    np.testing.assert_allclose(report.per_query[10], per_query, atol=1e-12)
    assert report.mean[10] == pytest.approx(float(np.mean(per_query)), abs=1e-12)


def test_mean_ndcg_requires_full_coverage():
    ds = random_queries(4, 5, seed=1)
    with pytest.raises(ValueError):
        mean_ndcg(np.zeros(ds.num_rows - 1), ds)


def test_query_evaluator_matches_mean_ndcg():
    ds = random_queries(15, 6, seed=4)
    rng = np.random.default_rng(6)
    scores = rng.normal(size=ds.num_rows)
    ev = QueryEvaluator(ds, 10)
    assert ev.mean(scores) == mean_ndcg(scores, ds, (10,)).mean[10]


def test_report_csv_shape():
    ds = random_queries(3, 4, seed=2)
    text = mean_ndcg(np.zeros(ds.num_rows), ds, (1, 5)).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "cutoff,mean_ndcg,num_queries"
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[1].endswith(",3")


def _kernel_queries(k):
    """Queries of every size from 1 to k + 9, rows interleaved at random.

    Each size comes three times: random labels with scores on a coarse grid
    (many ties), all labels zero, and random labels with one score for the
    whole query (every document tied).
    """
    rng = np.random.default_rng(100 + k)
    labels, qids, scores = [], [], []
    for size in range(1, k + 10):
        for kind in ("ties", "zero_labels", "all_tied"):
            labels.append(np.zeros(size, int) if kind == "zero_labels"
                          else rng.integers(0, 5, size))
            scores.append(np.full(size, 0.5) if kind == "all_tied"
                          else np.round(rng.normal(size=size) * 2.0) / 2.0)
            qids += [f"{kind}{size}"] * size
    labels, scores = np.concatenate(labels), np.concatenate(scores)
    perm = rng.permutation(labels.size)
    ds = Dataset.from_rows(labels[perm], np.array(qids)[perm], np.zeros((labels.size, 1)))
    assert all(np.any(np.diff(rows) > 1) for rows in ds.query_groups if rows.size > 3)
    return ds, scores[perm]


@pytest.mark.parametrize("k", [1, 5, 10, 20])
def test_batched_ndcg_equals_ndcg_at_bit_for_bit(k):
    ds, scores = _kernel_queries(k)
    want = [ndcg_at(ds.labels[rows], scores[rows], k) for rows in ds.query_groups]
    assert mean_ndcg(scores, ds, (1, k)).per_query[k].tolist() == want
    ev = QueryEvaluator(ds, k)
    assert ev.ideal.tolist() == [ideal_dcg(ds.labels[rows], k) for rows in ds.query_groups]
    assert ev.mean(scores) == float(np.mean(want))
