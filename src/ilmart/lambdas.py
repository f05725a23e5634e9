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
top ``truncation`` positions are formed (the restriction LightGBM's
lambdarank objective uses). A :class:`LambdaPlan` fixes those rank-position
pairs and each query's ideal DCG once per dataset and truncation; a round
then ranks every query with one sort and works on flat pair vectors. Work
and memory are O(k·n) per query of n documents at truncation k, never O(n²).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .metrics import ideal_dcg, rank_desc_stable


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


class LambdaPlan:
    """The rank-position pairs of a dataset at one truncation, fixed once.

    Positions index the rows of all queries ranked together: query ``g``
    owns positions ``starts[g] .. starts[g] + sizes[g] - 1`` in rank order.
    The plan lists every pair ``(p, q)`` of those positions with local rank
    ``p < truncation`` and ``p < q``, for queries with a non-zero ideal DCG,
    together with ``|disc(p) - disc(q)|``.
    """

    def __init__(self, ds: Dataset, truncation: int):
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        self.ds = ds
        self.truncation = int(truncation)
        groups = ds.query_groups
        self.qidx = np.empty(ds.num_rows, dtype=np.intp)
        for g, rows in enumerate(groups):
            self.qidx[rows] = g
        self.sizes = np.array([rows.size for rows in groups], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.ideal = np.array([ideal_dcg(ds.labels[rows], truncation) for rows in groups])
        self.gains = np.exp2(ds.labels.astype(np.float64)) - 1.0

        position_query = np.repeat(np.arange(self.sizes.size), self.sizes)
        rank = np.arange(ds.num_rows) - self.starts[position_query] + 1
        disc = np.where(rank <= truncation, 1.0 / np.log2(rank + 1.0), 0.0)

        first, second = [], []
        live = self.ideal > 0.0
        for p in range(min(self.truncation, int(self.sizes.max()))):
            qs = np.flatnonzero(live & (self.sizes > p + 1))
            lengths = self.sizes[qs] - (p + 1)
            a = np.repeat(self.starts[qs] + p, lengths)
            offsets = np.arange(a.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            first.append(a)
            second.append(a + 1 + offsets)
        self.pos_a = np.concatenate(first)
        self.pos_b = np.concatenate(second)
        self.pair_query = position_query[self.pos_a]
        self.abs_disc = np.abs(disc[self.pos_a] - disc[self.pos_b])

    def __call__(self, scores: np.ndarray, sigma: float, lambdarank_norm: bool) -> LambdaGrad:
        n_rows = self.ds.num_rows
        # Rows grouped by query, each query by descending score; lexsort is
        # stable, so ties keep ascending row order as in rank_desc_stable.
        order = np.lexsort((-scores, self.qidx))
        a = order[self.pos_a]
        b = order[self.pos_b]
        label_a = self.ds.labels[a]
        label_b = self.ds.labels[b]
        keep = label_a != label_b
        if not keep.any():  # bincount of nothing would come back as integers
            return LambdaGrad(np.zeros(n_rows), np.zeros(n_rows))
        a_wins = label_a[keep] > label_b[keep]
        a, b = a[keep], b[keep]
        hi = np.where(a_wins, a, b)
        lo = np.where(a_wins, b, a)
        query = self.pair_query[keep]

        delta = np.abs(self.gains[a] - self.gains[b]) * self.abs_disc[keep] / self.ideal[query]
        sdiff = scores[hi] - scores[lo]
        if lambdarank_norm:
            # Ranked descending, so a query's scores vary iff first != last.
            varied = scores[order[self.starts]] != scores[order[self.starts + self.sizes - 1]]
            delta = np.where(varied[query], delta / (0.01 + np.abs(sdiff)), delta)
        with np.errstate(over="ignore"):
            rho = 1.0 / (1.0 + np.exp(sigma * sdiff))
        lam = sigma * rho * delta
        hes = sigma * sigma * rho * (1.0 - rho) * delta

        gradient = np.bincount(hi, lam, n_rows) - np.bincount(lo, lam, n_rows)
        hessian = np.bincount(hi, hes, n_rows) + np.bincount(lo, hes, n_rows)
        if lambdarank_norm:
            mass = 2.0 * np.bincount(query, lam, self.sizes.size)
            factor = np.ones_like(mass)
            pos = mass > 0
            factor[pos] = np.log2(1.0 + mass[pos]) / mass[pos]
            gradient *= factor[self.qidx]
            hessian *= factor[self.qidx]
        return LambdaGrad(gradient, hessian)


def compute_lambdas(scores, ds: Dataset, sigma: float = 1.0, truncation: int = 10,
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
