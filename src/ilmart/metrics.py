"""NDCG at fixed cutoffs with exponential gains and log2 positional discounts.

Gain of a grade-``l`` document is ``2**l - 1`` and the discount at 1-based
rank ``r`` is ``1 / log2(r + 1)``. Ranking ties are broken by ascending
original row index so results are reproducible. A query whose labels are all
zero has an undefined ideal and scores 1.0 by convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

DEFAULT_CUTOFFS = (1, 5, 10)


def rank_desc_stable(scores: np.ndarray) -> np.ndarray:
    """Row indices ordered by descending score, ties by ascending index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def dcg_from_ranked(ranked_labels: np.ndarray, k: int) -> float:
    top = np.asarray(ranked_labels[:k], dtype=np.float64)
    gains = np.exp2(top) - 1.0
    discounts = np.log2(np.arange(2, top.size + 2, dtype=np.float64))
    return float(np.sum(gains / discounts))


def ideal_dcg(labels: np.ndarray, k: int) -> float:
    return dcg_from_ranked(np.sort(labels)[::-1], k)


def ndcg_at(labels, scores, k: int) -> float:
    """NDCG@k of one query; 1.0 when the query has no relevant document."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels and scores must be equal-length 1-d vectors")
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")
    ideal = ideal_dcg(labels, k)
    if ideal == 0.0:
        return 1.0
    return dcg_from_ranked(labels[rank_desc_stable(scores)], k) / ideal


@dataclass
class NdcgReport:
    """Per-query NDCG values and their unweighted means, one entry per cutoff."""

    cutoffs: tuple[int, ...]
    per_query: dict[int, np.ndarray]
    mean: dict[int, float]
    num_queries: int

    def to_csv(self) -> str:
        lines = ["cutoff,mean_ndcg,num_queries"]
        for k in self.cutoffs:
            lines.append(f"{k},{self.mean[k]!r},{self.num_queries}")
        return "\n".join(lines) + "\n"


def ranked_gains(ds: Dataset, scores) -> np.ndarray:
    """Gains ``2**label - 1`` of all rows ranked with one sort: queries in
    ``query_groups`` order, each by descending score, ties by ascending row."""
    order = np.lexsort((-np.asarray(scores, dtype=np.float64), ds.query_index))
    return np.exp2(ds.labels[order].astype(np.float64)) - 1.0


class QueryEvaluator:
    """NDCG@k of every query of one dataset, batched over queries.

    Queries are grouped by their depth ``min(size, k)``; a group's DCGs are
    one (queries x depth) block of ranked gains divided by the discounts and
    summed along the depth axis. Each row of the block is summed like the
    ``depth`` terms of :func:`dcg_from_ranked` (numpy's pairwise sum depends
    on the length, so short queries are not padded to ``k``), so every value
    equals :func:`ndcg_at` bit for bit. The ideal DCGs are the DCGs of the
    labels ranked by themselves, computed once.
    """

    def __init__(self, ds: Dataset, k: int):
        if k < 1:
            raise ValueError(f"cutoff must be >= 1, got {k}")
        self.ds = ds
        self.k = int(k)
        sizes = ds.query_sizes
        starts = np.cumsum(sizes) - sizes
        depth = np.minimum(sizes, self.k)
        self._blocks = []
        for m in np.unique(depth).tolist():
            queries = np.flatnonzero(depth == m)
            self._blocks.append((queries, starts[queries, None] + np.arange(m),
                                 np.log2(np.arange(2, m + 2, dtype=np.float64))))
        self.ideal = self.dcg(ranked_gains(ds, ds.labels))

    def dcg(self, gains: np.ndarray) -> np.ndarray:
        """DCG@k of every query from gains ranked by :func:`ranked_gains`."""
        out = np.empty(self.ds.num_queries, dtype=np.float64)
        for queries, positions, discounts in self._blocks:
            out[queries] = np.sum(gains[positions] / discounts, axis=1)
        return out

    def ndcg(self, gains: np.ndarray) -> np.ndarray:
        """NDCG@k of every query from ranked gains; 1.0 without a relevant document."""
        dcg = self.dcg(gains)
        return np.divide(dcg, self.ideal, out=np.ones_like(dcg), where=self.ideal != 0.0)

    def mean(self, scores: np.ndarray) -> float:
        return float(np.mean(self.ndcg(ranked_gains(self.ds, scores))))


def _check_scores(scores, ds: Dataset) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (ds.num_rows,):
        raise ValueError("scores must cover every row of the dataset")
    return scores


def per_query_ndcg(scores, ds: Dataset, k: int) -> np.ndarray:
    """NDCG@k of every query in file order."""
    scores = _check_scores(scores, ds)
    return QueryEvaluator(ds, k).ndcg(ranked_gains(ds, scores))


def mean_ndcg(scores, ds: Dataset, cutoffs=DEFAULT_CUTOFFS) -> NdcgReport:
    cutoffs = tuple(int(k) for k in cutoffs)
    gains = ranked_gains(ds, _check_scores(scores, ds))
    per_query = {k: QueryEvaluator(ds, k).ndcg(gains) for k in cutoffs}
    mean = {k: float(np.mean(per_query[k])) for k in cutoffs}
    return NdcgReport(cutoffs, per_query, mean, ds.num_queries)
