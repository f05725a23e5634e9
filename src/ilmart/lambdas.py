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


def compute_lambdas(scores, ds: Dataset, sigma: float = 1.0, truncation: int = 10,
                    lambdarank_norm: bool = False) -> LambdaGrad:
    """Accumulate gradients and hessians over all label-discordant pairs.

    ``lambdarank_norm`` applies the usual boosting-library damping: each
    pair's |dZ| is divided by (0.01 + |score gap|) and the whole query is
    rescaled by log2(1 + L)/L with L the total absolute pair lambda mass.
    It keeps score magnitudes from running away on confidently ordered data
    at the cost of no longer matching the plain closed-form values.
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

    gradient = np.zeros(ds.num_rows, dtype=np.float64)
    hessian = np.zeros(ds.num_rows, dtype=np.float64)
    for rows in ds.query_groups:
        lab = ds.labels[rows]
        if lab.min() == lab.max():
            continue
        delta = ndcg_swap_deltas(lab, scores[rows], truncation)
        mask = lab[:, None] > lab[None, :]
        sdiff = scores[rows][:, None] - scores[rows][None, :]
        if lambdarank_norm and scores[rows].min() != scores[rows].max():
            delta = delta / (0.01 + np.abs(sdiff))
        with np.errstate(over="ignore"):
            rho = 1.0 / (1.0 + np.exp(sigma * sdiff))
        lam = np.where(mask, sigma * rho * delta, 0.0)
        hes = np.where(mask, sigma * sigma * rho * (1.0 - rho) * delta, 0.0)
        grad_q = lam.sum(axis=1) - lam.sum(axis=0)
        hess_q = hes.sum(axis=1) + hes.sum(axis=0)
        if lambdarank_norm:
            lambda_mass = 2.0 * lam.sum()
            if lambda_mass > 0:
                factor = np.log2(1.0 + lambda_mass) / lambda_mass
                grad_q = grad_q * factor
                hess_q = hess_q * factor
        gradient[rows] += grad_q
        hessian[rows] += hess_q
    return LambdaGrad(gradient, hessian)
