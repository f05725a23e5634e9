"""Histogram-based regression trees grown under feature-interaction constraints.

Trees grow leaf-wise (best first): at every step the open leaf with the
highest-gain candidate split is expanded, where

    gain = G_L^2/(H_L + l2) + G_R^2/(H_R + l2) - G^2/(H + l2)

over gradient/hessian sums G, H of the rows routed to each side. Candidate
features at a node are restricted by a :class:`ConstraintRegime`:

* ``single``    - one feature per tree; the root's feature locks the tree.
* ``pair``      - an explicit list of feature pairs; once the used features
                  identify one pair, only that pair remains available.
* ``discovery`` - at most 3 leaves and 2 splits, the second split must use a
                  feature different from the root's. Used to nominate pairs.

Split search works on histograms of the feature-major binned matrix (the
layout of LightGBM, Ke et al. 2017). Each step scores, in one pass, only the
leaves that need it: the two children of the last split, or every open leaf
whose candidate list just changed. A leaf with fewer than
``2 * min_data_in_leaf`` rows cannot split and is never scored. The result
is the same tree as scoring every leaf one feature at a time: each histogram
cell sums the same rows in the same order, and ties resolve to the lowest
gain-maximising feature id, then the lowest bin, then the oldest leaf.

Splits store raw thresholds (the boundary value between the two bins), so
inference never needs the bin mapper. Inputs are finite (the loader rejects
anything else); a NaN in a raw array compares false and goes right at every
split, which is the last interval of every distilled table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import BinMapper


@dataclass
class TreeLeaf:
    value: float


@dataclass
class TreeNode:
    feature: int            # 1-based feature id
    threshold: float        # raw value; x <= threshold routes left
    left: "TreeNode | TreeLeaf"
    right: "TreeNode | TreeLeaf"


@dataclass
class ConstraintRegime:
    """Which feature sets a tree may draw its splits from."""

    kind: str                                   # "single" | "pair" | "discovery"
    allowed_sets: tuple[frozenset[int], ...]
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
        sets = tuple(frozenset((int(f),)) for f in features)
        pool = frozenset(int(f) for f in features)
        return cls("single", sets, pool, leaf_budget, min_data_in_leaf, min_gain,
                   min_child_hessian, max_leaf_output)

    @classmethod
    def feature_pairs(cls, pairs, leaf_budget, min_data_in_leaf=20, min_gain=0.0,
                      min_child_hessian=1e-3, max_leaf_output=10.0):
        sets = []
        for i, j in pairs:
            if i == j:
                raise ValueError(f"pair members must be distinct, got ({i}, {j})")
            sets.append(frozenset((int(i), int(j))))
        pool = frozenset().union(*sets) if sets else frozenset()
        return cls("pair", tuple(sets), pool, leaf_budget, min_data_in_leaf, min_gain,
                   min_child_hessian, max_leaf_output)

    @classmethod
    def pair_discovery(cls, features, min_data_in_leaf=20, min_gain=0.0,
                       min_child_hessian=1e-3, max_leaf_output=10.0):
        pool = frozenset(int(f) for f in features)
        return cls("discovery", (), pool, cls.DISCOVERY_LEAVES, min_data_in_leaf,
                   min_gain, min_child_hessian, max_leaf_output)

    def candidates(self, used: frozenset[int], root_feature: int | None) -> list[int]:
        """Features a new split may use, given the features used so far."""
        if self.kind == "discovery":
            pool = self.feature_pool
            if root_feature is not None:
                pool = pool - {root_feature}
            return sorted(pool)
        consistent = [s for s in self.allowed_sets if used <= s]
        return sorted(frozenset().union(*consistent)) if consistent else []


@dataclass
class DecisionTree:
    """A fitted tree: routing structure, constraint tag, and features used.

    ``constraint_features`` carries the resolved allowed set: the single
    feature for main-effect trees and the assigned pair for interaction
    trees. It may be empty when the tree did not use enough features to pin
    the set down (the trainer resolves those).
    """

    root: TreeNode | TreeLeaf
    constraint_kind: str
    constraint_features: tuple[int, ...]
    used_features: tuple[int, ...] = field(default_factory=tuple)

    @property
    def num_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def is_stump(self) -> bool:
        return isinstance(self.root, TreeLeaf)

    def leaves(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeLeaf):
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeNode):
                yield node
                stack.append(node.right)
                stack.append(node.left)

    def thresholds_for(self, fid: int) -> list[float]:
        return [n.threshold for n in self.nodes() if n.feature == fid]

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        out = np.empty(features.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(features.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if isinstance(node, TreeLeaf):
                out[idx] = node.value
                continue
            go_left = features[idx, node.feature - 1] <= node.threshold
            stack.append((node.right, idx[~go_left]))
            stack.append((node.left, idx[go_left]))
        return out

    def to_dict(self) -> dict:
        nodes: dict = {}
        stack = [(self.root, nodes)]
        while stack:
            node, out = stack.pop()
            if isinstance(node, TreeLeaf):
                out["value"] = node.value
                continue
            out.update(feature=node.feature, threshold=node.threshold, left={}, right={})
            stack.append((node.right, out["right"]))
            stack.append((node.left, out["left"]))
        return {
            "constraint": [self.constraint_kind, list(self.constraint_features)],
            "used_features": list(self.used_features),
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        holder = TreeNode(0, 0.0, None, None)      # the root goes in holder.left
        stack = [(data["nodes"], holder, "left")]
        while stack:
            item, parent, side = stack.pop()
            if "value" in item:
                node = TreeLeaf(float(item["value"]))
            else:
                node = TreeNode(int(item["feature"]), float(item["threshold"]), None, None)
                left, right = item["left"], item["right"]
                stack.append((right, node, "right"))
                stack.append((left, node, "left"))
            setattr(parent, side, node)

        kind, feats = data["constraint"]
        return cls(
            holder.left,
            str(kind),
            tuple(int(f) for f in feats),
            tuple(int(f) for f in data["used_features"]),
        )


class _GrowLeaf:
    __slots__ = ("rows", "order", "slot", "cands", "best")

    def __init__(self, rows, order, slot):
        self.rows = rows            # ascending row indices
        self.order = order          # creation order, the last tie-break
        self.slot = slot            # (node, "left" | "right") that will hold the leaf
        self.cands = None           # candidate features of the last scoring
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
) -> DecisionTree:
    """Grow one tree on binned data under the given constraint regime.

    Returns a single-leaf "stump" when no split clears ``min_gain`` and
    ``min_data_in_leaf`` at the root; the caller decides whether to stop
    boosting in that case.
    """
    n = bins.num_rows
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.shape != (n,) or hessians.shape != (n,):
        raise ValueError("gradients/hessians must align with the binned rows")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be > 0, got {learning_rate}")

    holder = TreeNode(0, 0.0, None, None)      # the root goes in holder.left
    open_leaves = [_GrowLeaf(np.arange(n, dtype=np.intp), 0, (holder, "left"))]
    used: list[int] = []
    root_feature: int | None = None
    cands = None
    next_order = 1

    while len(open_leaves) < regime.leaf_budget:
        if cands is None:
            cands = tuple(f for f in regime.candidates(frozenset(used), root_feature)
                          if bins.num_bins(f) >= 2)
        # Score the leaves whose candidate list changed (new children
        # included); a leaf too small to give both children min_data rows
        # cannot split and is not scored.
        stale = [leaf for leaf in open_leaves if leaf.cands != cands]
        for leaf in stale:
            leaf.cands = cands
            leaf.best = None
        stale = [leaf for leaf in stale if leaf.rows.size >= 2 * regime.min_data_in_leaf]
        if stale and cands:
            _score_leaves(bins, stale, gradients, hessians, cands,
                          regime.min_data_in_leaf, regime.min_gain, lambda_l2,
                          regime.min_child_hessian)
        scored = [leaf for leaf in open_leaves if leaf.best is not None]
        if not scored:
            break
        leaf = min(scored, key=lambda lf: (-lf.best[0], lf.best[1], lf.best[2], lf.order))

        _, fid, t = leaf.best
        go_left = bins.binned[:, fid - 1][leaf.rows] <= t
        node = TreeNode(fid, float(bins.boundaries[fid - 1][t]), None, None)
        setattr(*leaf.slot, node)
        left = _GrowLeaf(leaf.rows[go_left], next_order, (node, "left"))
        right = _GrowLeaf(leaf.rows[~go_left], next_order + 1, (node, "right"))
        next_order += 2
        open_leaves.remove(leaf)
        open_leaves.extend((left, right))
        if root_feature is None:
            root_feature = fid
            cands = None
        if fid not in used:
            used.append(fid)
            cands = None

    for leaf in open_leaves:
        value = _leaf_value(leaf.rows, gradients, hessians, lambda_l2, learning_rate,
                            regime.max_leaf_output)
        setattr(*leaf.slot, TreeLeaf(value))

    if regime.kind == "single":
        tag = tuple(used)
    elif regime.kind == "pair" and len(used) == 2:
        tag = tuple(sorted(used))
    else:
        tag = ()
    return DecisionTree(holder.left, regime.kind, tag, tuple(used))
