"""Pairwise ranking gradients ("lambdas") for one boosting round.

For every in-query pair (i, j) with label_i > label_j:

    rho      = 1 / (1 + exp(sigma * (s_i - s_j)))
    |dZ|     = |NDCG@truncation change if i and j swapped ranks|
    grad_i  += sigma * rho * |dZ|        grad_j -= sigma * rho * |dZ|
    hess_i  += sigma^2 * rho * (1 - rho) * |dZ|   (and the same for j)

The sign convention is "positive gradient pushes the score up": the gradient
of the more relevant document in a mis-ordered pair is positive. Ranks, gains
and discounts follow the metrics module exactly (stable tie-breaking, gain
2**l - 1, discount 1/log2(rank + 1), positions beyond the truncation
discounted to zero, normalisation by the ideal DCG at the truncation).

Swapping two documents that both sit below position ``truncation`` leaves
NDCG@truncation unchanged, so only pairs with at least one document in the
top ``truncation`` positions count (the restriction LightGBM's lambdarank
objective uses). A :class:`LambdaPlan` lays the queries out once per dataset
and truncation as dense blocks: queries are bucketed by the power of two at
or above their size, and each bucket is a (queries x width) matrix of row
ids, ``width`` being its largest member's size, padded with a sentinel row.
A round ranks each block's rows with one stable sort along the width and
forms the (queries x truncation x width) block of rank-position pairs
(p, q) by broadcasting; pairs with ``q <= p``, padding or equal labels
weigh zero. Summing the block over q gives each top-``truncation``
document's share as the first of its pairs, summing over p each document's
share as the second; one scatter per block writes them back to the rows.
Bucketing keeps one long query from setting every query's width, so work
and memory are O(k·n) per query of n documents at truncation k (less than
twice the query's own share), never O(n²). The sums run in another order
than a loop over pairs, so results agree with one to rounding, not bit for
bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .metrics import QueryEvaluator, ideal_dcg, rank_desc_stable


@dataclass
class LambdaGrad:
    """Per-row gradient/hessian for one round."""

    gradient: np.ndarray
    hessian: np.ndarray


def ndcg_swap_deltas(labels, scores, truncation: int) -> np.ndarray:
    """Matrix of |NDCG@truncation change| for swapping each document pair.

    Entry (i, j) is the absolute NDCG difference between the current ranking
    and the one with documents i and j exchanging positions. Zero matrix when
    the query has no relevant document.
    """
    labels = np.asarray(labels)
    n = labels.size
    ideal = ideal_dcg(labels, truncation)
    if ideal == 0.0:
        return np.zeros((n, n), dtype=np.float64)
    order = rank_desc_stable(scores)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(1, n + 1)
    disc = np.where(pos <= truncation, 1.0 / np.log2(pos + 1.0), 0.0)
    gains = np.exp2(labels.astype(np.float64)) - 1.0
    return np.abs((gains[:, None] - gains[None, :]) * (disc[:, None] - disc[None, :])) / ideal


class _Block:
    """The queries of one size bucket as dense rank-position arrays.

    ``rows[i]`` lists query ``i``'s rows in ascending order, padded with the
    sentinel row id ``num_rows`` up to the bucket's width. ``weight[i, p,
    q]`` is ``|disc(p) - disc(q)| / ideal_i`` for rank positions ``p < q``
    with ``p`` in the top ``truncation`` and ``q`` a real document, and zero
    for every other cell; a pair's |dZ| is its weight times its gap in gains.
    """

    def __init__(self, ds: Dataset, queries: np.ndarray, ideal: np.ndarray, truncation: int):
        sizes = ds.query_sizes[queries]
        width = int(sizes.max())
        top = min(truncation, width)
        self.last = sizes - 1
        real = np.arange(width) < sizes[:, None]
        self.rows = np.full((queries.size, width), ds.num_rows, dtype=np.intp)
        self.rows[real] = np.concatenate([ds.query_groups[g] for g in queries.tolist()])
        rank = np.arange(1, width + 1)
        disc = np.where(rank <= truncation, 1.0 / np.log2(rank + 1.0), 0.0)
        pair_disc = np.where(rank[None, :] > rank[:top, None],
                             np.abs(disc[:top, None] - disc[None, :]), 0.0)
        self.weight = pair_disc * real[:, None, :] / ideal[queries, None, None]

    def __call__(self, keys, scores, gains, sigma, lambdarank_norm):
        """Rank the block; return its rows in rank order and their gradients
        and hessians (zero at the sentinel).

        ``keys`` are the negated scores with ``+inf`` at the sentinel, which
        the stable sort therefore ranks last; ``scores`` and ``gains`` are
        zero there.
        """
        order = np.argsort(keys[self.rows], axis=1, kind="stable")
        rows = np.take_along_axis(self.rows, order, axis=1)
        s = scores[rows]
        g = gains[rows]
        top = self.weight.shape[1]
        # Cell (i, p, q) pairs rank positions p < top and q of query i.
        gain_gap = g[:, :top, None] - g[:, None, :]
        sign = np.sign(gain_gap)                # +1 where p is the more relevant
        delta = np.abs(gain_gap) * self.weight
        sdiff = sign * (s[:, :top, None] - s[:, None, :])     # s_hi - s_lo
        if lambdarank_norm:
            # Ranked descending, so a query's scores vary iff first != last.
            varied = s[:, 0] != s[np.arange(s.shape[0]), self.last]
            delta = np.where(varied[:, None, None], delta / (0.01 + np.abs(sdiff)), delta)
        with np.errstate(over="ignore"):
            rho = 1.0 / (1.0 + np.exp(sigma * sdiff))
        lam = sigma * rho * delta
        hes = sigma * sigma * rho * (1.0 - rho) * delta
        signed = sign * lam
        gradient = -signed.sum(axis=1)
        gradient[:, :top] += signed.sum(axis=2)
        hessian = hes.sum(axis=1)
        hessian[:, :top] += hes.sum(axis=2)
        if lambdarank_norm:
            mass = 2.0 * lam.sum(axis=(1, 2))
            factor = np.ones_like(mass)
            pos = mass > 0
            factor[pos] = np.log2(1.0 + mass[pos]) / mass[pos]
            gradient *= factor[:, None]
            hessian *= factor[:, None]
        return rows, gradient, hessian


class LambdaPlan:
    """The queries of a dataset laid out in size buckets at one truncation.

    Queries whose ideal DCG is zero, or that hold one document, have no pair
    that changes NDCG and are left out. The others are bucketed by
    ``ceil(log2(size))``, so a bucket's width is less than twice the size
    of each of its queries, and each bucket is one :class:`_Block`.
    """

    def __init__(self, ds: Dataset, truncation: int):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        self.ds = ds
        self.truncation = int(truncation)
        ideal = QueryEvaluator(ds, truncation).ideal
        sizes = ds.query_sizes
        live = np.flatnonzero((ideal > 0.0) & (sizes > 1))
        bucket = np.ceil(np.log2(sizes[live])).astype(np.intp)
        self.blocks = [_Block(ds, live[bucket == b], ideal, self.truncation)
                       for b in np.unique(bucket).tolist()]
        # Gains with the sentinel row's zero appended.
        self.gains = np.append(np.exp2(ds.labels.astype(np.float64)) - 1.0, 0.0)

    def __call__(self, scores: np.ndarray, sigma: float, lambdarank_norm: bool) -> LambdaGrad:
        n_rows = self.ds.num_rows
        keys = np.append(-scores, np.inf)
        values = np.append(scores, 0.0)
        gradient = np.zeros(n_rows + 1)
        hessian = np.zeros(n_rows + 1)
        # A row is in at most one block, so plain assignment scatters.
        for block in self.blocks:
            rows, grad, hess = block(keys, values, self.gains, sigma, lambdarank_norm)
            gradient[rows] = grad
            hessian[rows] = hess
        return LambdaGrad(gradient[:n_rows], hessian[:n_rows])


def compute_lambdas(
scores, ds: Dataset, sigma: float = 1.0, truncation: int = 10,
                    lambdarank_norm: bool = False, *,
                    plan: LambdaPlan | None = None) -> LambdaGrad:
    """Accumulate gradients and hessians over all label-discordant pairs.

    ``lambdarank_norm`` applies the usual boosting-library damping: each
    pair's |dZ| is divided by (0.01 + |score gap|) and the whole query is
    rescaled by log2(1 + L)/L with L the total absolute pair lambda mass.
    It keeps score magnitudes from running away on confidently ordered data
    at the cost of no longer matching the plain closed-form values.

    ``plan`` is a :class:`LambdaPlan` of ``ds`` at ``truncation`` built by the
    caller, so a boosting stage builds it once instead of every round.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (ds.num_rows,):
        raise ValueError("scores must align with dataset rows")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if plan is None:
        plan = LambdaPlan(ds, truncation)
    elif plan.ds is not ds or plan.truncation != truncation:
        raise ValueError("plan was built for another dataset or truncation")
    return plan(scores, sigma, lambdarank_norm)
