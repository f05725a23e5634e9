import math
import tracemalloc

import numpy as np
import pytest

from ilmart import Dataset, compute_lambdas
from ilmart.lambdas import LambdaPlan

from oracles import lambda_oracle, swap_oracle
from synthdata import one_query, random_queries


def lambdas(ds, scores, sigma=1.0, truncation=10, lambdarank_norm=False):
    """``(gradient, hessian)`` through a plan built for this call."""
    return compute_lambdas(LambdaPlan(ds, truncation), scores, sigma, lambdarank_norm)


def test_two_document_closed_form():
    # rho = 1/2 at equal scores; |dZ| = 1 - 1/log2(3); ideal DCG = 1.
    ds = one_query([1, 0])
    gradient, hessian = lambdas(ds, np.array([0.0, 0.0]), sigma=1.0, truncation=2)
    expected_grad = 0.5 * (1.0 - 1.0 / math.log2(3))
    expected_hess = 0.25 * (1.0 - 1.0 / math.log2(3))
    assert gradient[0] == pytest.approx(expected_grad, abs=1e-12)
    assert gradient[1] == pytest.approx(-expected_grad, abs=1e-12)
    assert hessian[0] == pytest.approx(expected_hess, abs=1e-12)
    assert hessian[1] == pytest.approx(expected_hess, abs=1e-12)


def test_equal_labels_give_zero_gradients():
    ds = one_query([2, 2, 2])
    gradient, hessian = lambdas(ds, np.array([0.1, 0.5, -0.3]))
    assert np.all(gradient == 0)
    assert np.all(hessian == 0)


def test_sigma_scaling_at_equal_scores():
    plan = LambdaPlan(one_query([1, 0]), 2)
    grad_one, hess_one = compute_lambdas(plan, np.zeros(2), sigma=1.0)
    grad_two, hess_two = compute_lambdas(plan, np.zeros(2), sigma=2.0)
    np.testing.assert_allclose(grad_two, 2.0 * grad_one, atol=1e-14)
    np.testing.assert_allclose(hess_two, 4.0 * hess_one, atol=1e-14)


def test_sign_correctness_for_misordered_pair():
    gradient, _ = lambdas(one_query([1, 0]), np.array([-1.0, 1.0]), sigma=1.0, truncation=2)
    assert gradient[0] > 0
    assert gradient[1] < 0


def test_zero_sum_per_query():
    ds = random_queries(50, 8, seed=17)
    rng = np.random.default_rng(4)
    scores = rng.normal(size=ds.num_rows)
    gradient, hessian = lambdas(ds, scores, sigma=1.3, truncation=5)
    for rows in ds.query_groups:
        assert abs(gradient[rows].sum()) <= 1e-10
        assert np.all(hessian[rows] >= 0)


def test_truncation_limits_contributing_positions():
    # Both documents beyond the cutoff: swapping them cannot change NDCG@1.
    labels = [0, 1, 0]
    scores = np.array([3.0, 1.0, 2.0])
    gradient, _ = lambdas(one_query(labels), scores, sigma=1.0, truncation=1)
    # doc1 (label 1, rank 3) vs doc2 (label 0, rank 2): both outside top-1
    assert swap_oracle(labels, scores.tolist(), 1)[1, 2] == 0.0
    # but doc1 vs doc0 (rank 1) does matter
    assert swap_oracle(labels, scores.tolist(), 1)[1, 0] > 0.0
    assert gradient[1] > 0


def test_non_finite_scores_rejected():
    plan = LambdaPlan(one_query([1, 0]), 10)
    with pytest.raises(ValueError, match="non-finite"):
        compute_lambdas(plan, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        compute_lambdas(plan, np.array([np.inf, 0.0]))


def test_parameter_validation():
    ds = one_query([1, 0])
    plan = LambdaPlan(ds, 10)
    with pytest.raises(ValueError):
        compute_lambdas(plan, np.zeros(2), sigma=0.0)
    with pytest.raises(ValueError):
        LambdaPlan(ds, 0)
    with pytest.raises(ValueError):
        compute_lambdas(plan, np.zeros(3))


def test_saturated_scores_stay_finite():
    gradient, hessian = lambdas(one_query([1, 0]), np.array([-900.0, 900.0]),
                                sigma=1.0, truncation=2)
    assert np.all(np.isfinite(gradient))
    assert np.all(np.isfinite(hessian))
    assert gradient[0] > 0


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
            got_g, got_h = lambdas(ds, scores, sigma, truncation, lambdarank_norm)
            want_g, want_h = lambda_oracle(ds, scores, sigma, truncation, lambdarank_norm)
            np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_h, want_h, rtol=0, atol=1e-12)


def test_norm_damps_queries_that_vary_only_in_their_last_document():
    # Ranked, both queries' scores differ only at the last position, so both
    # count as varied and get the 1 / (0.01 + |score gap|) damping.
    labels = np.array([0, 1, 2, 1, 1, 0])
    qids = ["a"] * 4 + ["b"] * 2
    scores = np.array([1.0, 1.0, 1.0, 0.0, 0.5, 0.0])
    ds = Dataset.from_rows(labels, qids, np.zeros((6, 1)))
    for truncation in (1, 2, 10):
        got_g, got_h = lambdas(ds, scores, 1.0, truncation, True)
        want_g, want_h = lambda_oracle(ds, scores, 1.0, truncation, True)
        np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_h, want_h, rtol=0, atol=1e-12)


def test_plan_is_reusable_and_tied_to_its_dataset():
    ds = random_queries(30, 12, seed=8)
    plan = LambdaPlan(ds, 5)
    assert plan.ds is ds and plan.truncation == 5
    rng = np.random.default_rng(9)
    for _ in range(3):
        scores = rng.normal(size=ds.num_rows)
        fresh = lambdas(ds, scores, 1.5, 5, True)
        reused = compute_lambdas(plan, scores, 1.5, True)
        np.testing.assert_array_equal(reused[0], fresh[0])
        np.testing.assert_array_equal(reused[1], fresh[1])


def test_memory_stays_bounded_on_a_long_query():
    # One dense n x n float64 buffer at n = 20 000 would take 3.2 GB.
    n = 20_000
    rng = np.random.default_rng(12)
    ds = Dataset.from_rows(rng.integers(0, 5, n), ["q"] * n, np.zeros((n, 1)))
    scores = rng.normal(size=n)
    tracemalloc.start()
    try:
        gradient, _ = lambdas(ds, scores, 1.0, 10, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert abs(gradient.sum()) <= 1e-10
