"""Reference implementations that the tests hold the shipped kernels to.

Each computes one query or one row at a time, the plain way, so that a
batched kernel in ``ilmart`` has something independent to agree with.
"""
import math

import numpy as np


def rank_desc_stable(scores) -> np.ndarray:
    """Row indices ordered by descending score, ties by ascending index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def dcg_from_ranked(ranked_labels, k: int) -> float:
    top = np.asarray(ranked_labels[:k], dtype=np.float64)
    gains = np.exp2(top) - 1.0
    discounts = np.log2(np.arange(2, top.size + 2, dtype=np.float64))
    return float(np.sum(gains / discounts))


def ideal_dcg(labels, k: int) -> float:
    return dcg_from_ranked(np.sort(labels)[::-1], k)


def ndcg_at(labels, scores, k: int) -> float:
    """NDCG@k of one query; 1.0 when the query has no relevant document.

    It sums the same terms in the same order as ``QueryEvaluator``, so the
    two agree bit for bit.
    """
    labels = np.asarray(labels)
    ideal = ideal_dcg(labels, k)
    if ideal == 0.0:
        return 1.0
    return dcg_from_ranked(labels[rank_desc_stable(scores)], k) / ideal


def additive_score(shapes, surfaces, features) -> float:
    """One row's score rebuilt from the tables, one lookup per effect."""
    features = np.asarray(features, dtype=np.float64)
    total = sum(float(s.lookup_batch(features[s.feature - 1])) for s in shapes)
    total += sum(float(s.lookup_batch(features[s.pair[0] - 1], features[s.pair[1] - 1]))
                 for s in surfaces)
    return float(total)


def tree_sum(model, X) -> np.ndarray:
    """Scores of the trees the model's tables were summed from."""
    return sum(t.predict_batch(X) for t in model.main_trees + model.interaction_trees)


def swap_oracle(labels, scores, truncation):
    """For every document pair, directly compute the NDCG of the current
    ranking and of the ranking with the two documents' positions exchanged;
    the delta is their absolute difference."""
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


def lambda_oracle(ds, scores, sigma, truncation, lambdarank_norm):
    """Per-row gradients and hessians from a plain double loop over every
    label-discordant pair of each query, with |dZ| from :func:`swap_oracle`."""
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
