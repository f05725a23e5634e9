"""Histogram-based regression trees grown under feature-interaction constraints.

Trees grow leaf-wise (best first): at every step the open leaf with the
highest-gain candidate split is expanded, where

    gain = G_L^2/(H_L + l2) + G_R^2/(H_R + l2) - G^2/(H + l2)

over gradient/hessian sums G, H of the rows routed to each side. Candidate
features at a node are restricted by a :class:`ConstraintRegime`:

* ``single``    - one feature per tree; the root's feature locks the tree.
* ``pair``      - both features of one pair, anywhere in the tree.
* ``discovery`` - at most 3 leaves and 2 splits, the second split must use a
                  feature different from the root's. Used to nominate pairs.

Split search works on histograms of the feature-major binned matrix (the
layout of LightGBM, Ke et al. 2017). Each step scores, in one pass, only the
leaves that need it: the root, then the two children of the last split (the
candidate features change only at the root split). A leaf with fewer than
``2 * min_data_in_leaf`` rows cannot split and is never scored. The result
is the same tree as scoring every leaf one feature at a time: each histogram
cell sums the same rows in the same order, and ties resolve to the lowest
gain-maximising feature id, then the lowest bin, then the oldest leaf.

A fitted tree is a set of flat split and leaf arrays, as in LightGBM. Splits
store raw thresholds (the boundary value between the two bins), so inference
never needs the bin mapper. Inputs are finite (the loader rejects
anything else); a NaN in a raw array compares false and goes right at every
split, which is the last interval of every distilled table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BinMapper


@dataclass
class ConstraintRegime:
    """Which features a tree may draw its splits from."""

    kind: str                                   # "single" | "pair" | "discovery"
    feature_pool: frozenset[int]
    leaf_budget: int
    min_data_in_leaf: int = 20
    min_gain: float = 0.0
    # Children below this hessian mass are rejected, and the Newton step
    # G/(H + l2) is clamped to +-max_leaf_output before learning-rate
    # scaling. Both keep leaves bounded when pairwise sigmoids saturate and
    # the hessian collapses while the gradient does not.
    min_child_hessian: float = 1e-3
    max_leaf_output: float = 10.0

    DISCOVERY_LEAVES = 3

    def __post_init__(self):
        if self.kind not in ("single", "pair", "discovery"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "discovery":
            self.leaf_budget = self.DISCOVERY_LEAVES
        if self.leaf_budget < 2:
            raise ValueError(f"leaf budget must be >= 2, got {self.leaf_budget}")

    @classmethod
    def single_feature(cls, features, leaf_budget, min_data_in_leaf=20, min_gain=0.0,
                       min_child_hessian=1e-3, max_leaf_output=10.0):
        pool = frozenset(int(f) for f in features)
        return cls("single", pool, leaf_budget, min_data_in_leaf, min_gain,
                   min_child_hessian, max_leaf_output)

    @classmethod
    def feature_pair(cls, pair, leaf_budget, min_data_in_leaf=20, min_gain=0.0,
                     min_child_hessian=1e-3, max_leaf_output=10.0):
        i, j = pair
        if i == j:
            raise ValueError(f"pair members must be distinct, got ({i}, {j})")
        return cls("pair", frozenset((int(i), int(j))), leaf_budget, min_data_in_leaf,
                   min_gain, min_child_hessian, max_leaf_output)

    @classmethod
    def pair_discovery(cls, features, min_data_in_leaf=20, min_gain=0.0,
                       min_child_hessian=1e-3, max_leaf_output=10.0):
        pool = frozenset(int(f) for f in features)
        return cls("discovery", pool, cls.DISCOVERY_LEAVES, min_data_in_leaf,
                   min_gain, min_child_hessian, max_leaf_output)

    def candidates(self, root_feature: int | None) -> list[int]:
        """Features a new split may use, given the root split's feature
        (None before the root is split)."""
        if root_feature is None or self.kind == "pair":
            return sorted(self.feature_pool)
        if self.kind == "single":
            return [root_feature]
        return sorted(self.feature_pool - {root_feature})


@dataclass
class DecisionTree:
    """A fitted tree in flat split and leaf arrays, plus its constraint tag.

    Split ``s`` sends an input ``x`` with ``x[split_feature[s] - 1] <=
    threshold[s]`` (feature ids are 1-based) to ``left_child[s]`` and any
    other input to ``right_child[s]``. A child ``c >= 0`` is split ``c``; a
    child ``c < 0`` is leaf ``~c``, which outputs ``leaf_value[~c]``. Splits
    are numbered in growth order, so split 0 is the root; a tree without
    splits is the single leaf 0.

    ``constraint_features`` carries the resolved allowed set: the single
    feature for main-effect trees and the assigned pair for interaction
    trees. It may be empty when the tree did not use enough features to pin
    the set down (the trainer resolves those).
    """

    split_feature: list[int]
    threshold: list[float]
    left_child: list[int]
    right_child: list[int]
    leaf_value: list[float]
    constraint_kind: str
    constraint_features: tuple[int, ...]

    @property
    def root(self) -> int:
        return 0 if self.split_feature else ~0

    @property
    def used_features(self) -> tuple[int, ...]:
        """The split features in order of first use."""
        return tuple(dict.fromkeys(self.split_feature))

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_value)

    @property
    def is_stump(self) -> bool:
        return not self.split_feature

    def thresholds_for(self, fid: int) -> list[float]:
        return [t for f, t in zip(self.split_feature, self.threshold) if f == fid]

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        out = np.empty(features.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(features.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if node < 0:
                out[idx] = self.leaf_value[~node]
                continue
            go_left = features[idx, self.split_feature[node] - 1] <= self.threshold[node]
            stack.append((self.right_child[node], idx[~go_left]))
            stack.append((self.left_child[node], idx[go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "constraint": [self.constraint_kind, list(self.constraint_features)],
            "split_feature": list(self.split_feature),
            "threshold": list(self.threshold),
            "left_child": list(self.left_child),
            "right_child": list(self.right_child),
            "leaf_value": list(self.leaf_value),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Rebuild a tree, refusing arrays that do not form one tree.

        Features, children and constraint features must be JSON integers,
        thresholds and leaf values JSON numbers; nothing is coerced (a
        string, a float id or a bool is refused). With S splits there must
        be S features, thresholds, left and right children and S + 1
        leaves; the 2S children must name every split but the root and
        every leaf exactly once, and a child split must come after its
        parent, so every node reaches the root.
        """
        kind, feats = data["constraint"]
        if not isinstance(kind, str):
            raise ValueError(f"tree constraint kind must be a string, got {kind!r}")
        tree = cls(
            _ints(data["split_feature"], "split_feature"),
            _numbers(data["threshold"], "threshold"),
            _ints(data["left_child"], "left_child"),
            _ints(data["right_child"], "right_child"),
            _numbers(data["leaf_value"], "leaf_value"),
            kind,
            tuple(_ints(feats, "constraint features")),
        )
        n = len(tree.split_feature)
        if not (len(tree.threshold) == len(tree.left_child) == len(tree.right_child) == n
                and len(tree.leaf_value) == n + 1):
            raise ValueError(f"tree arrays disagree in length ({n} split features need "
                             f"{n} thresholds and children and {n + 1} leaf values)")
        children = tree.left_child + tree.right_child
        if n and sorted(children) != list(range(-n - 1, 0)) + list(range(1, n)):
            raise ValueError("tree children must name every leaf and every split "
                             "but the root exactly once")
        if any(0 <= c <= s for s, pair in enumerate(zip(tree.left_child, tree.right_child))
               for c in pair):
            raise ValueError("a child split must come after its parent split")
        return tree


def _ints(values, what: str) -> list[int]:
    """``values`` if it is a list of integers (JSON integers; no bools)."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"tree {what} must be a list of integers")
    return list(values)


def _numbers(values, what: str) -> list[float]:
    """``values`` as floats if it is a list of JSON numbers (no bools)."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"tree {what} must be a list of numbers")
    return [float(v) for v in values]


class _GrowLeaf:
    __slots__ = ("rows", "index", "slot", "best")

    def __init__(self, rows, index, slot):
        self.rows = rows            # ascending row indices
        self.index = index          # leaf number in the finished tree
        self.slot = slot            # (child list, split) that points at the leaf; None at the root
        self.best = None            # (gain, feature, bin) or None


def _score_leaves(bins, leaves, gradients, hessians, cands, min_data, min_gain, l2,
                  min_hess):
    """Set ``leaf.best`` to each leaf's best (gain, feature, bin), or None.

    All leaves are scored in one pass. Per candidate feature, one
    ``bincount`` per statistic lays the leaves' histograms side by side
    (cell ``leaf * width + bin``) over their rows, concatenated leaf after
    leaf in ascending order, so every cell sums the same rows in the same
    order as a histogram of that leaf alone. Gains are then computed on one
    (leaves x features x bins) array. Ties resolve to the lowest feature id,
    then the lowest bin index.
    """
    sizes = [leaf.rows.size for leaf in leaves]
    num_bins = np.array([bins.num_bins(f) for f in cands])
    width = int(num_bins.max())
    cells = len(leaves) * width
    # hist[0], hist[1], hist[2]: gradient sums, hessian sums, row counts
    hist = np.zeros((3, len(leaves), len(cands), width))
    if sizes == [bins.num_rows]:            # the root: every row, cached counts
        grad, hess, rows = gradients, hessians, None
    else:
        rows = np.concatenate([leaf.rows for leaf in leaves])
        grad, hess = gradients[rows], hessians[rows]
        offset = np.repeat(np.arange(0, cells, width), sizes)
    for j, fid in enumerate(cands):
        idx = bins.binned[:, fid - 1]
        if rows is None:
            hist[2, 0, j, :num_bins[j]] = bins.counts[fid - 1]
        else:
            idx = idx[rows] + offset
            hist[2, :, j] = np.bincount(idx, minlength=cells).reshape(-1, width)
        hist[0, :, j] = np.bincount(idx, weights=grad, minlength=cells).reshape(-1, width)
        hist[1, :, j] = np.bincount(idx, weights=hess, minlength=cells).reshape(-1, width)

    totals = np.zeros((3, len(leaves)))
    parent = np.zeros(len(leaves))
    threshold = np.zeros(len(leaves))
    start = 0
    for i, size in enumerate(sizes):
        g_total = grad[start:start + size].sum()
        h_total = hess[start:start + size].sum()
        start += size
        denom = h_total + l2
        p = g_total * g_total / denom if denom > 0 else 0.0
        totals[:, i] = g_total, h_total, size
        parent[i] = p
        # Summation noise can make a mathematically zero gain come out at
        # ~1e-16; require the gain to clear min_gain by a margin scaled to
        # the parent.
        threshold[i] = min_gain + 1e-12 * max(1.0, abs(p))

    left = np.cumsum(hist, axis=3)[..., :-1]
    g_left, h_left, c_left = left
    g_right, h_right, c_right = totals[..., None, None] - left
    dl = h_left + l2
    dr = h_right + l2
    hess_floor = max(min_hess, np.finfo(np.float64).tiny)
    ok = (
        (c_left >= min_data)
        & (c_right >= min_data)
        & (dl >= hess_floor)
        & (dr >= hess_floor)
        & (np.arange(width - 1) < num_bins[:, None] - 1)     # real bins only
    )
    term_l = np.divide(g_left * g_left, dl, out=np.zeros_like(dl), where=ok)
    term_r = np.divide(g_right * g_right, dr, out=np.zeros_like(dr), where=ok)
    gains = np.where(ok, term_l + term_r - parent[:, None, None], -np.inf)
    # First maximum per feature, then the first feature whose maximum
    # clears the threshold and is largest.
    t = gains.argmax(axis=2)
    top = gains.max(axis=2)
    top = np.where(top > threshold[:, None], top, -np.inf)
    k = top.argmax(axis=1)
    for i, leaf in enumerate(leaves):
        gain = top[i, k[i]]
        leaf.best = None if gain == -np.inf else (float(gain), cands[k[i]], int(t[i, k[i]]))


def _leaf_value(rows, gradients, hessians, l2, learning_rate, max_output) -> float:
    denom = hessians[rows].sum() + l2
    if denom <= 0:
        return 0.0
    step = -(gradients[rows].sum()) / denom
    if max_output > 0:
        step = min(max(step, -max_output), max_output)
    return float(step * learning_rate)


def fit_tree(
    bins: BinMapper,
    gradients: np.ndarray,
    hessians: np.ndarray,
    regime: ConstraintRegime,
    learning_rate: float,
    lambda_l2: float = 0.0,
    leaf_of_row: np.ndarray | None = None,
) -> DecisionTree:
    """Grow one tree on binned data under the given constraint regime.

    Returns a single-leaf "stump" when no split clears ``min_gain`` and
    ``min_data_in_leaf`` at the root; the caller decides whether to stop
    boosting in that case. ``leaf_of_row``, an integer array with one entry
    per binned row, receives each row's leaf, so ``leaf_value[leaf_of_row]``
    is the tree's output on the training rows without routing them again
    (bin routing and raw-threshold routing agree on those rows).
    """
    n = bins.num_rows
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.shape != (n,) or hessians.shape != (n,):
        raise ValueError("gradients/hessians must align with the binned rows")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be > 0, got {learning_rate}")

    tree = DecisionTree([], [], [], [], [], regime.kind, ())
    open_leaves = [_GrowLeaf(np.arange(n, dtype=np.intp), 0, None)]   # in creation order
    new = open_leaves

    while len(open_leaves) < regime.leaf_budget:
        # The candidates change only at the root split, when every open leaf
        # is new, so only new leaves are scored. A leaf too small to give
        # both children min_data rows cannot split and is not scored.
        root_feature = tree.split_feature[0] if tree.split_feature else None
        cands = [f for f in regime.candidates(root_feature) if bins.num_bins(f) >= 2]
        new = [leaf for leaf in new if leaf.rows.size >= 2 * regime.min_data_in_leaf]
        if new and cands:
            _score_leaves(bins, new, gradients, hessians, cands,
                          regime.min_data_in_leaf, regime.min_gain, lambda_l2,
                          regime.min_child_hessian)
        scored = [leaf for leaf in open_leaves if leaf.best is not None]
        if not scored:
            break
        # min() returns the first of equal keys: the oldest leaf wins a tie.
        leaf = min(scored, key=lambda lf: (-lf.best[0], lf.best[1], lf.best[2]))

        _, fid, t = leaf.best
        go_left = bins.binned[:, fid - 1][leaf.rows] <= t
        split = len(tree.split_feature)
        if leaf.slot is not None:
            children, parent = leaf.slot
            children[parent] = split
        tree.split_feature.append(fid)
        tree.threshold.append(float(bins.boundaries[fid - 1][t]))
        tree.left_child.append(~leaf.index)
        tree.right_child.append(~(split + 1))
        new = [_GrowLeaf(leaf.rows[go_left], leaf.index, (tree.left_child, split)),
               _GrowLeaf(leaf.rows[~go_left], split + 1, (tree.right_child, split))]
        open_leaves.remove(leaf)
        open_leaves.extend(new)

    tree.leaf_value = [0.0] * len(open_leaves)
    for leaf in open_leaves:
        tree.leaf_value[leaf.index] = _leaf_value(leaf.rows, gradients, hessians, lambda_l2,
                                                  learning_rate, regime.max_leaf_output)
        if leaf_of_row is not None:
            leaf_of_row[leaf.rows] = leaf.index

    used = tree.used_features
    if regime.kind == "single":
        tree.constraint_features = used
    elif regime.kind == "pair" and len(used) == 2:
        tree.constraint_features = tuple(sorted(used))
    return tree
