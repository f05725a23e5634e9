"""Synthetic ranking datasets used across the test suite."""
from __future__ import annotations

import numpy as np

from ilmart import Dataset


def planted_interaction(num_queries: int, docs_per_query: int, seed: int,
                        num_features: int = 10, noise: float = 0.2) -> Dataset:
    """Relevance driven by two saturating main effects plus one genuine
    pairwise interaction: round(f(x1) + g(x2) + 2 * x4 * x5 + noise), clipped
    to grades 0..4. Features are 1-based, so the planted pair is (4, 5)."""
    rng = np.random.default_rng(seed)
    n = num_queries * docs_per_query
    X = rng.random((n, num_features))
    base = (
        1.3 * np.tanh(2.5 * X[:, 0])
        + 1.1 * np.sqrt(X[:, 1])
        + 2.0 * X[:, 3] * X[:, 4]
        + rng.normal(0.0, noise, n)
    )
    labels = np.clip(np.round(base), 0, 4).astype(int)
    qids = [f"q{seed}_{i // docs_per_query}" for i in range(n)]
    return Dataset.from_rows(labels, qids, X)


def single_signal(num_queries: int, docs_per_query: int, seed: int,
                  num_features: int = 6, signal_feature: int = 1) -> Dataset:
    """Labels monotone in a single feature, the rest is noise."""
    rng = np.random.default_rng(seed)
    n = num_queries * docs_per_query
    X = rng.random((n, num_features))
    base = 3.2 * X[:, signal_feature - 1] + rng.normal(0.0, 0.25, n)
    labels = np.clip(np.round(base), 0, 4).astype(int)
    qids = [f"q{seed}_{i // docs_per_query}" for i in range(n)]
    return Dataset.from_rows(labels, qids, X)


def letor_like(num_queries: int, docs_per_query: int, seed: int,
               num_features: int = 8) -> Dataset:
    """Discrete, tie-heavy features in the style of text ranking data:
    a constant column, small-integer counts, and a few sparse reals."""
    rng = np.random.default_rng(seed)
    n = num_queries * docs_per_query
    X = np.zeros((n, num_features))
    X[:, 0] = 1.0
    X[:, 1] = rng.integers(0, 5, n)
    X[:, 2] = rng.integers(0, 3, n)
    X[:, 3] = np.round(rng.random(n), 1)
    X[:, 4] = rng.random(n) * (rng.random(n) < 0.3)
    for k in range(5, num_features):
        X[:, k] = rng.random(n)
    base = 0.7 * X[:, 1] + 0.9 * X[:, 3] + 0.6 * X[:, 1] * X[:, 3] + rng.normal(0.0, 0.3, n)
    labels = np.clip(np.round(base * 0.8), 0, 4).astype(int)
    qids = [f"q{seed}_{i // docs_per_query}" for i in range(n)]
    return Dataset.from_rows(labels, qids, X)


def random_queries(num_queries: int, max_docs: int, seed: int,
                   max_label: int = 4) -> Dataset:
    """Pure-noise queries of varying size, for metric/gradient oracles."""
    rng = np.random.default_rng(seed)
    labels, qids, rows = [], [], []
    for q in range(num_queries):
        docs = int(rng.integers(1, max_docs + 1))
        for _ in range(docs):
            labels.append(int(rng.integers(0, max_label + 1)))
            qids.append(f"q{q}")
            rows.append(rng.random(3))
    return Dataset.from_rows(labels, qids, np.asarray(rows))


def one_query(labels) -> Dataset:
    """A dataset of one query with these labels and a single zero feature."""
    return Dataset.from_rows(labels, ["q"] * len(labels), np.zeros((len(labels), 1)))
