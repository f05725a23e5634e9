"""Reference implementations that the tests hold the shipped kernels to.

Each computes one query, one row or one tree leaf at a time, the plain way,
so that a batched kernel in ``ilmart`` has something independent to agree
with.
"""
import bisect
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


def oracle_effect_table(trees, features):
    """``(breakpoints, values)`` of one effect's table, built by painting
    boxes: each tree is walked from its root, and each leaf adds its value to
    the box of cells whose inputs reach it. A split on ``threshold ==
    breakpoints[m]`` sends cells ``<= m`` left and the rest right."""
    breakpoints = [np.unique(np.concatenate([t.thresholds_for(f) for t in trees]
                                            + [np.empty(0)])) for f in features]
    values = np.zeros(tuple(b.size + 1 for b in breakpoints))
    axis = {f: k for k, f in enumerate(features)}
    cuts = [b.tolist() for b in breakpoints]
    for tree in trees:
        stack = [(tree.root, tuple((0, n) for n in values.shape))]
        while stack:
            node, box = stack.pop()
            if node < 0:
                values[tuple(slice(lo, hi) for lo, hi in box)] += tree.leaf_value[~node]
                continue
            k = axis[tree.split_feature[node]]
            lo, hi = box[k]
            cut = bisect.bisect_left(cuts[k], tree.threshold[node]) + 1
            stack.append((tree.right_child[node], box[:k] + ((max(lo, cut), hi),) + box[k + 1:]))
            stack.append((tree.left_child[node], box[:k] + ((lo, min(hi, cut)),) + box[k + 1:]))
    return breakpoints, values


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
