"""Two-sided Fisher randomization test for paired per-query metric values.

The null distribution comes from swapping each query's pair of values with
probability one half; the statistic is the absolute difference of the means.
Up to 20 queries all 2^n sign patterns are enumerated and the p-value is
exact; beyond that, sign patterns are sampled and the add-one-smoothed
Monte Carlo estimate (1 + hits) / (1 + draws) is reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PERMUTATIONS = 10_000
EXHAUSTIVE_MAX_QUERIES = 20  # 2^20 patterns is still cheap to enumerate
MAX_CHUNK_FLIPS = 2**20      # flips drawn at once by the Monte Carlo path


@dataclass
class SignificanceResult:
    mean_difference: float      # mean(a) - mean(b), in metric units
    p_value: float
    num_permutations: int
    exhaustive: bool


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of every subset of ``values``, indexed by bit mask."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def fisher_randomization(per_query_a, per_query_b,
                         num_permutations: int = DEFAULT_PERMUTATIONS,
                         seed: int = 0) -> SignificanceResult:
    a = np.asarray(per_query_a, dtype=np.float64)
    b = np.asarray(per_query_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired per-query vectors must have equal length")
    n = a.size
    if n == 0:
        raise ValueError("need at least one query")
    d = a - b

    if n <= EXHAUSTIVE_MAX_QUERIES:
        half = n // 2
        low = _subset_sums(d[:half])
        high = _subset_sums(d[half:])
        total = low[-1] + high[-1]
        observed = abs(total) / n
        # Flipping the signs of subset S changes the sum by -2 * sum(S).
        stats = np.abs(total - 2.0 * (low[:, None] + high[None, :])) / n
        hits = int(np.count_nonzero(stats >= observed))
        return SignificanceResult(float(total / n), hits / stats.size, stats.size, True)

    if num_permutations < 1:
        raise ValueError("num_permutations must be >= 1")
    rng = np.random.default_rng(seed)
    total = float(d.sum())
    observed = abs(total) / n
    hits = 0
    remaining = num_permutations
    while remaining > 0:
        # Chunks of whole rows draw the same flips as one call, so the chunk
        # size bounds memory without changing a p-value.
        chunk = min(remaining, max(1, MAX_CHUNK_FLIPS // n))
        flips = rng.integers(0, 2, size=(chunk, n)).astype(np.float64)
        stats = np.abs(total - 2.0 * (flips @ d)) / n
        hits += int(np.count_nonzero(stats >= observed))
        remaining -= chunk
    p = (1 + hits) / (1 + num_permutations)
    return SignificanceResult(total / n, p, num_permutations, False)
