import math
import tracemalloc

import numpy as np
import pytest

from ilmart import Dataset, compute_lambdas, ndcg_swap_deltas
from ilmart.lambdas import LambdaPlan

from synthdata import random_queries


def swap_oracle(labels, scores, truncation):
    """Independent oracle: for every document pair, directly compute the
    NDCG of the current ranking and of the ranking with the two documents'
    positions exchanged; the delta is their absolute difference."""
    n = len(labels)
    order = sorted(range(n), key=lambda i: (-scores[i], i))

    def dcg(o):
        return sum(
            (2 ** labels[d] - 1) / math.log2(r + 2)
            for r, d in enumerate(o)
            if r < truncation
        )

    ideal = dcg(sorted(range(n), key=lambda i: -labels[i]))
    deltas = np.zeros((n, n))
    if ideal == 0:
        return deltas
    base = dcg(order)
    for i in range(n):
        for j in range(n):
            swapped = list(order)
            pi, pj = swapped.index(i), swapped.index(j)
            swapped[pi], swapped[pj] = swapped[pj], swapped[pi]
            deltas[i, j] = abs(dcg(swapped) - base) / ideal
    return deltas


def two_doc_query(labels, scores):
    return Dataset.from_rows(labels, ["q"] * len(labels), np.zeros((len(labels), 1)))


def test_two_document_closed_form():
    # rho = 1/2 at equal scores; |dZ| = 1 - 1/log2(3); ideal DCG = 1.
    ds = two_doc_query([1, 0], [0.0, 0.0])
    out = compute_lambdas(np.array([0.0, 0.0]), ds, sigma=1.0, truncation=2)
    expected_grad = 0.5 * (1.0 - 1.0 / math.log2(3))
    expected_hess = 0.25 * (1.0 - 1.0 / math.log2(3))
    assert out.gradient[0] == pytest.approx(expected_grad, abs=1e-12)
    assert out.gradient[1] == pytest.approx(-expected_grad, abs=1e-12)
    assert out.hessian[0] == pytest.approx(expected_hess, abs=1e-12)
    assert out.hessian[1] == pytest.approx(expected_hess, abs=1e-12)


def test_equal_labels_give_zero_gradients():
    ds = two_doc_query([2, 2, 2], [0.1, 0.5, -0.3])
    out = compute_lambdas(np.array([0.1, 0.5, -0.3]), ds)
    assert np.all(out.gradient == 0)
    assert np.all(out.hessian == 0)


def test_sigma_scaling_at_equal_scores():
    ds = two_doc_query([1, 0], [0.0, 0.0])
    one = compute_lambdas(np.zeros(2), ds, sigma=1.0, truncation=2)
    two = compute_lambdas(np.zeros(2), ds, sigma=2.0, truncation=2)
    np.testing.assert_allclose(two.gradient, 2.0 * one.gradient, atol=1e-14)
    np.testing.assert_allclose(two.hessian, 4.0 * one.hessian, atol=1e-14)


def test_sign_correctness_for_misordered_pair():
    ds = two_doc_query([1, 0], [0.0, 0.0])
    out = compute_lambdas(np.array([-1.0, 1.0]), ds, sigma=1.0, truncation=2)
    assert out.gradient[0] > 0
    assert out.gradient[1] < 0


def test_zero_sum_per_query():
    ds = random_queries(50, 8, seed=17)
    rng = np.random.default_rng(4)
    scores = rng.normal(size=ds.num_rows)
    out = compute_lambdas(scores, ds, sigma=1.3, truncation=5)
    for rows in ds.query_groups:
        assert abs(out.gradient[rows].sum()) <= 1e-10
        assert np.all(out.hessian[rows] >= 0)


def test_swap_deltas_match_direct_ndcg_differences():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        labels = rng.integers(0, 5, n).tolist()
        scores = rng.normal(size=n)
        truncation = int(rng.integers(1, 7))
        got = ndcg_swap_deltas(labels, scores, truncation)
        want = swap_oracle(labels, scores.tolist(), truncation)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_truncation_limits_contributing_positions():
    # Both documents beyond the cutoff: swapping them cannot change NDCG@1.
    labels = [0, 1, 0]
    scores = np.array([3.0, 1.0, 2.0])
    ds = Dataset.from_rows(labels, ["q"] * 3, np.zeros((3, 1)))
    out = compute_lambdas(scores, ds, sigma=1.0, truncation=1)
    # doc1 (label 1, rank 3) vs doc2 (label 0, rank 2): both outside top-1
    assert ndcg_swap_deltas(labels, scores, 1)[1, 2] == 0.0
    # but doc1 vs doc0 (rank 1) does matter
    assert ndcg_swap_deltas(labels, scores, 1)[1, 0] > 0.0
    assert out.gradient[1] > 0


def test_non_finite_scores_rejected():
    ds = two_doc_query([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        compute_lambdas(np.array([np.nan, 0.0]), ds)
    with pytest.raises(ValueError):
        compute_lambdas(np.array([np.inf, 0.0]), ds)


def test_parameter_validation():
    ds = two_doc_query([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError):
        compute_lambdas(np.zeros(2), ds, sigma=0.0)
    with pytest.raises(ValueError):
        compute_lambdas(np.zeros(2), ds, truncation=0)
    with pytest.raises(ValueError):
        compute_lambdas(np.zeros(3), ds)


def test_saturated_scores_stay_finite():
    ds = two_doc_query([1, 0], [0.0, 0.0])
    out = compute_lambdas(np.array([-900.0, 900.0]), ds, sigma=1.0, truncation=2)
    assert np.all(np.isfinite(out.gradient))
    assert np.all(np.isfinite(out.hessian))
    assert out.gradient[0] > 0


def lambda_oracle(ds, scores, sigma, truncation, lambdarank_norm):
    """Independent per-row gradients: a plain double loop over every
    label-discordant pair of each query, with |dZ| from ``swap_oracle``."""
    gradient = np.zeros(ds.num_rows)
    hessian = np.zeros(ds.num_rows)
    for rows in ds.query_groups:
        labels = [int(ds.labels[r]) for r in rows]
        s = [float(scores[r]) for r in rows]
        deltas = swap_oracle(labels, s, truncation)
        varied = min(s) != max(s)
        grad = [0.0] * len(rows)
        hess = [0.0] * len(rows)
        mass = 0.0
        for i in range(len(rows)):
            for j in range(len(rows)):
                if labels[i] <= labels[j]:
                    continue
                delta = deltas[i, j]
                if lambdarank_norm and varied:
                    delta /= 0.01 + abs(s[i] - s[j])
                rho = 1.0 / (1.0 + math.exp(sigma * (s[i] - s[j])))
                lam = sigma * rho * delta
                hes = sigma * sigma * rho * (1.0 - rho) * delta
                grad[i] += lam
                grad[j] -= lam
                hess[i] += hes
                hess[j] += hes
                mass += 2.0 * lam
        factor = math.log2(1.0 + mass) / mass if lambdarank_norm and mass > 0 else 1.0
        for r, g, h in zip(rows, grad, hess):
            gradient[r] = g * factor
            hessian[r] = h * factor
    return gradient, hessian


def _mixed_queries():
    """Rows of five queries interleaved at random: one longer than every
    truncation tested below, a short one, a single document, all labels zero
    and all labels equal but non-zero."""
    rng = np.random.default_rng(31)
    blocks = [
        ("long", rng.integers(0, 5, 24)),
        ("short", np.array([2, 0, 1])),
        ("single", np.array([3])),
        ("zeros", np.zeros(5, dtype=int)),
        ("equal", np.full(4, 2)),
    ]
    labels = np.concatenate([lab for _, lab in blocks])
    qids = np.concatenate([[name] * lab.size for name, lab in blocks])
    perm = rng.permutation(labels.size)
    ds = Dataset.from_rows(labels[perm], qids[perm], np.zeros((labels.size, 1)))
    assert any(np.any(np.diff(rows) > 1) for rows in ds.query_groups)
    return ds


def _scores(kind, ds):
    rng = np.random.default_rng(5)
    if kind == "random":
        return rng.normal(size=ds.num_rows) * 2.0
    if kind == "tied":
        return np.round(rng.normal(size=ds.num_rows) * 2.0) / 2.0
    if kind == "all_equal":
        return np.zeros(ds.num_rows)
    # constant inside every query but the long one, which varies
    scores = rng.normal(size=ds.num_rows)
    for g, rows in enumerate(ds.query_groups):
        if ds.qids[rows[0]] != "long":
            scores[rows] = 0.3 * g
    return scores


@pytest.mark.parametrize("kind", ["random", "tied", "all_equal", "constant_in_some_queries"])
@pytest.mark.parametrize("truncation", [1, 3, 10, 50])
def test_lambdas_match_pairwise_oracle(kind, truncation):
    ds = _mixed_queries()
    scores = _scores(kind, ds)
    for lambdarank_norm in (False, True):
        for sigma in (0.5, 1.0, 2.0):
            got = compute_lambdas(scores, ds, sigma, truncation, lambdarank_norm)
            want_g, want_h = lambda_oracle(ds, scores, sigma, truncation, lambdarank_norm)
            np.testing.assert_allclose(got.gradient, want_g, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.hessian, want_h, rtol=0, atol=1e-12)


def test_norm_damps_queries_that_vary_only_in_their_last_document():
    # Ranked, both queries' scores differ only at the last position, so both
    # count as varied and get the 1 / (0.01 + |score gap|) damping.
    labels = np.array([0, 1, 2, 1, 1, 0])
    qids = ["a"] * 4 + ["b"] * 2
    scores = np.array([1.0, 1.0, 1.0, 0.0, 0.5, 0.0])
    ds = Dataset.from_rows(labels, qids, np.zeros((6, 1)))
    for truncation in (1, 2, 10):
        got = compute_lambdas(scores, ds, 1.0, truncation, True)
        want_g, want_h = lambda_oracle(ds, scores, 1.0, truncation, True)
        np.testing.assert_allclose(got.gradient, want_g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.hessian, want_h, rtol=0, atol=1e-12)


def test_plan_is_reusable_and_tied_to_its_dataset():
    ds = random_queries(30, 12, seed=8)
    plan = LambdaPlan(ds, 5)
    rng = np.random.default_rng(9)
    for _ in range(3):
        scores = rng.normal(size=ds.num_rows)
        fresh = compute_lambdas(scores, ds, 1.5, 5, True)
        reused = compute_lambdas(scores, ds, 1.5, 5, True, plan=plan)
        np.testing.assert_array_equal(reused.gradient, fresh.gradient)
        np.testing.assert_array_equal(reused.hessian, fresh.hessian)
    with pytest.raises(ValueError, match="plan"):
        compute_lambdas(np.zeros(ds.num_rows), ds, 1.0, 10, plan=plan)
    other = random_queries(30, 12, seed=8)
    with pytest.raises(ValueError, match="plan"):
        compute_lambdas(np.zeros(other.num_rows), other, 1.0, 5, plan=plan)


def test_memory_stays_bounded_on_a_long_query():
    # One dense n x n float64 buffer at n = 20 000 would take 3.2 GB.
    n = 20_000
    rng = np.random.default_rng(12)
    ds = Dataset.from_rows(rng.integers(0, 5, n), ["q"] * n, np.zeros((n, 1)))
    scores = rng.normal(size=n)
    tracemalloc.start()
    try:
        out = compute_lambdas(scores, ds, 1.0, 10, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert abs(out.gradient.sum()) <= 1e-10
