"""Seeded generator of WEB30K-shaped ranking data for the benchmark.

MSLR-WEB30K has 136 features of very different kinds (constant columns,
small counts, rounded ratios, sparse scores, heavy-tailed BM25/PageRank-like
values), grades 0-4 with most documents irrelevant, and query lengths with a
long right tail. Those properties drive the cost of ilmart's layers: split
search scans every column, binning sees many ties, and pairwise lambdas grow
with the square of the query length. This module reproduces them from a seed
alone; no external data is read.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np

from ilmart import Dataset

NUM_FEATURES = 136
# Query lengths: lognormal with this median and log-scale sigma, clipped to
# 1..MAX_QUERY. With 20 queries the longest has 630 documents.
QUERY_MEDIAN, QUERY_SIGMA, MAX_QUERY = 60.0, 1.2, 1000
# Feature ids (1-based) of the planted multiplicative interaction.
PLANTED_PAIR = (8, 107)

# Column layout, 0-based half-open ranges.
_CONSTANT = 0
_COUNTS = range(1, 31)        # small integers, heavy ties
_ROUNDED = range(31, 61)      # ratios rounded to 2 decimals
_SPARSE = range(61, 96)       # mostly zero reals
_LOGNORMAL = range(96, 136)   # heavy-tailed reals


def query_sizes(num_queries: int) -> np.ndarray:
    """Lognormal query lengths at evenly spaced quantiles, clipped to 1..MAX_QUERY.

    Taking quantiles instead of random draws fixes the multiset of lengths
    (and so the pairwise work, sum of n**2) for a given ``num_queries``;
    the seed only decides their order and the documents' contents.
    """
    dist = NormalDist(np.log(QUERY_MEDIAN), QUERY_SIGMA)
    sizes = [np.exp(dist.inv_cdf((i + 0.5) / num_queries)) for i in range(num_queries)]
    return np.clip(np.round(sizes), 1, MAX_QUERY).astype(np.int64)


def web30k_shaped(num_queries: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(query_sizes(num_queries))
    n = int(sizes.sum())
    X = np.empty((n, NUM_FEATURES))
    X[:, _CONSTANT] = 1.0
    for k in _COUNTS:
        X[:, k] = rng.integers(0, 2 + k % 12, n)
    for k in _ROUNDED:
        X[:, k] = np.round(rng.beta(1.0 + k % 3, 2.0, n), 2)
    for k in _SPARSE:
        X[:, k] = rng.random(n) * (rng.random(n) < 0.05 + 0.4 * ((k * 7) % 10) / 10)
    for k in _LOGNORMAL:
        X[:, k] = rng.lognormal(0.0, 0.5 + (k % 4) * 0.5, n)

    i, j = PLANTED_PAIR[0] - 1, PLANTED_PAIR[1] - 1
    base = (
        0.4 * X[:, 2]                              # count in 0..3
        + 2.0 * X[:, 40]                           # rounded ratio
        + 1.5 * np.tanh(X[:, 100])                 # heavy-tailed score
        + 1.5 * (X[:, 70] > 0)                     # sparse indicator
        + 2.0 * X[:, i] / 8 * np.tanh(X[:, j])     # planted interaction
        + rng.normal(0.0, 0.5, n)
        - 2.8
    )
    labels = np.clip(np.round(base), 0, 4).astype(int)
    qids = np.repeat([f"q{seed}_{q}" for q in range(num_queries)], sizes)
    return Dataset.from_rows(labels, qids, X)


def size_summary(ds: Dataset, truncation: int) -> dict:
    """Rows, queries, largest query, sum of n**2, and the share of pair cells
    that LambdaRank at ``truncation`` can make non-zero."""
    n = np.array([g.size for g in ds.query_groups], dtype=np.int64)
    cells = int(np.sum(n * n))
    tail = np.maximum(n - truncation, 0)
    return {
        "rows": int(n.sum()),
        "queries": int(n.size),
        "largest_query": int(n.max()),
        "pair_cells": cells,
        "nonzero_pair_share": float(np.sum(n * n - tail * tail) / cells),
    }
