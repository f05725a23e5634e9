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

        def walk(node, idx):
            if isinstance(node, TreeLeaf):
                out[idx] = node.value
                return
            x = features[idx, node.feature - 1]
            go_left = x <= node.threshold
            walk(node.left, idx[go_left])
            walk(node.right, idx[~go_left])

        walk(self.root, np.arange(features.shape[0]))
        return out

    def to_dict(self) -> dict:
        def encode(node):
            if isinstance(node, TreeLeaf):
                return {"value": node.value}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return {
            "constraint": [self.constraint_kind, list(self.constraint_features)],
            "used_features": list(self.used_features),
            "nodes": encode(self.root),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        def decode(node):
            if "value" in node:
                return TreeLeaf(float(node["value"]))
            return TreeNode(
                int(node["feature"]),
                float(node["threshold"]),
                decode(node["left"]),
                decode(node["right"]),
            )

        kind, feats = data["constraint"]
        return cls(
            decode(data["nodes"]),
            str(kind),
            tuple(int(f) for f in feats),
            tuple(int(f) for f in data["used_features"]),
        )


class _GrowLeaf:
    __slots__ = ("rows", "order", "best", "best_version")

    def __init__(self, rows, order):
        self.rows = rows
        self.order = order
        self.best = None
        self.best_version = -1


class _GrowNode:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _best_split(bins, rows, gradients, hessians, cands, min_data, min_gain, l2,
                min_hess):
    """Best (gain, feature, bin) over the candidate features, or None.

    Ties resolve to the lowest feature id, then the lowest bin index.
    """
    grad = gradients[rows]
    hess = hessians[rows]
    g_total = grad.sum()
    h_total = hess.sum()
    denom = h_total + l2
    parent = g_total * g_total / denom if denom > 0 else 0.0
    hess_floor = max(min_hess, np.finfo(np.float64).tiny)
    # Summation noise can make a mathematically zero gain come out at ~1e-16;
    # require the gain to clear min_gain by a margin scaled to the parent.
    gain_eps = 1e-12 * max(1.0, abs(parent))
    best = None
    for fid in cands:
        nb = bins.num_bins(fid)
        if nb < 2:
            continue
        col = bins.binned[rows, fid - 1]
        hist_g = np.bincount(col, weights=grad, minlength=nb)
        hist_h = np.bincount(col, weights=hess, minlength=nb)
        hist_c = np.bincount(col, minlength=nb)
        g_left = np.cumsum(hist_g)[:-1]
        h_left = np.cumsum(hist_h)[:-1]
        c_left = np.cumsum(hist_c)[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        c_right = rows.size - c_left
        dl = h_left + l2
        dr = h_right + l2
        ok = (
            (c_left >= min_data)
            & (c_right >= min_data)
            & (dl >= hess_floor)
            & (dr >= hess_floor)
        )
        term_l = np.divide(g_left * g_left, dl, out=np.zeros_like(dl), where=ok)
        term_r = np.divide(g_right * g_right, dr, out=np.zeros_like(dr), where=ok)
        gains = np.where(ok, term_l + term_r - parent, -np.inf)
        t = int(np.argmax(gains))
        if gains[t] > min_gain + gain_eps and (best is None or gains[t] > best[0]):
            best = (float(gains[t]), fid, t)
    return best


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

    root = _GrowLeaf(np.arange(n, dtype=np.intp), 0)
    structure: _GrowNode | _GrowLeaf = root
    parents: dict[int, tuple[_GrowNode, str]] = {}
    open_leaves = [root]
    used: list[int] = []
    root_feature: int | None = None
    version = 0
    next_order = 1

    while len(open_leaves) < regime.leaf_budget:
        chosen = None
        for leaf in open_leaves:
            if leaf.best_version != version:
                cands = regime.candidates(frozenset(used), root_feature)
                leaf.best = _best_split(
                    bins, leaf.rows, gradients, hessians, cands,
                    regime.min_data_in_leaf, regime.min_gain, lambda_l2,
                    regime.min_child_hessian,
                )
                leaf.best_version = version
            if leaf.best is None:
                continue
            key = (-leaf.best[0], leaf.best[1], leaf.best[2], leaf.order)
            if chosen is None or key < chosen[0]:
                chosen = (key, leaf)
        if chosen is None:
            break

        leaf = chosen[1]
        _, fid, t = leaf.best
        col = bins.binned[leaf.rows, fid - 1]
        go_left = col <= t
        left = _GrowLeaf(leaf.rows[go_left], next_order)
        right = _GrowLeaf(leaf.rows[~go_left], next_order + 1)
        next_order += 2
        node = _GrowNode(fid, float(bins.boundaries[fid - 1][t]), left, right)
        parent = parents.pop(id(leaf), None)
        if parent is None:
            structure = node
        else:
            setattr(parent[0], parent[1], node)
        parents[id(left)] = (node, "left")
        parents[id(right)] = (node, "right")
        open_leaves.remove(leaf)
        open_leaves.extend((left, right))
        if root_feature is None:
            root_feature = fid
            version += 1
        if fid not in used:
            used.append(fid)
            version += 1

    def freeze(node):
        if isinstance(node, _GrowLeaf):
            return TreeLeaf(_leaf_value(node.rows, gradients, hessians, lambda_l2,
                                        learning_rate, regime.max_leaf_output))
        return TreeNode(node.feature, node.threshold, freeze(node.left), freeze(node.right))

    if regime.kind == "single":
        tag = tuple(used)
    elif regime.kind == "pair" and len(used) == 2:
        tag = tuple(sorted(used))
    else:
        tag = ()
    return DecisionTree(freeze(structure), regime.kind, tag, tuple(used))
