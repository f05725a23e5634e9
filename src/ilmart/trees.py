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

The regime says only which features a split may use; the discovery kind
also fixes the 3-leaf budget. Every other limit of the tree is the stage's
:class:`~ilmart.model.TrainConfig`, as LightGBM keeps interaction
constraints apart from its tree parameters.

Split search works on histograms of the feature-major binned matrix (the
layout of LightGBM, Ke et al. 2017), one leaf at a time. A scored leaf keeps
its histograms, one per candidate feature, each indexed by the feature's own
bins. When it splits on feature f at bin t, every bin of f goes wholly to
one child, so each child's histogram on f is the parent's on its side of t.

A tree sums its rows once, at the root, in row order. Below the root, every
child's totals, for its split search and its value alike, are the bin sums
of its parent's histogram on f over the child's side of t, within the
parent's bin range on f. In a single-feature tree that range is the leaf's
own range of the root feature's bins: each leaf is scored on that slice of
the root's histogram and reads no rows, and only ``leaf_of_row`` reads
them, through a leaf-of-bin table. In pair and discovery trees it is all of
f's bins; they partition each leaf's rows, and a scored child copies its
parent's histogram on f, empty on the other side of t, and bincounts the
other candidates over its own rows (a pair tree only the partner feature).
A leaf with fewer than ``2 * min_data_in_leaf`` rows cannot split and is
never scored. Every histogram cell sums the same rows in the same order as a
bincount of that leaf alone (the sibling is never the parent minus the other
child, which would round differently), so every cut's left sums are the ones
that scoring each leaf one feature at a time gives. A leaf's totals below
the root, bin sums rather than row sums, can differ from those in the last
bits. Its value then differs by that much, and its splits only at a
near-tie of that size; on inputs whose sums are exact in any order the
trees are the same. Ties resolve to the lowest gain-maximising
feature id, then the lowest bin, then the oldest leaf.

A fitted tree is a set of flat split and leaf arrays, as in LightGBM. Splits
store raw thresholds (the boundary value between the two bins), so inference
never needs the bin mapper. :meth:`DecisionTree.leaves` is the one walk of
those arrays: scoring rows and building a model's tables both route points
through it, and no other module reads the root or the child arrays. Inputs
are finite (the loader rejects anything else); a NaN in a raw array compares
false and goes right at every split, which is the last interval of every
distilled table.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .dataset import BinMapper
from .model import TrainConfig

DISCOVERY_LEAVES = 3


@dataclass
class ConstraintRegime:
    """Which features a tree may draw its splits from: a kind and its pool."""

    kind: str                                   # "single" | "pair" | "discovery"
    feature_pool: frozenset[int]

    def __post_init__(self):
        if self.kind not in ("single", "pair", "discovery"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        self.feature_pool = frozenset(int(f) for f in self.feature_pool)
        if self.kind == "pair" and len(self.feature_pool) != 2:
            raise ValueError(f"a pair regime needs two distinct features, "
                             f"got {sorted(self.feature_pool)}")

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

    ``constraint_features`` is the tree's tag, set from its regime alone:
    the root's feature for a ``single`` tree (none for a stump), the
    regime's pair, ascending, for a ``pair`` tree, and empty for a
    ``discovery`` tree.
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
    def is_stump(self) -> bool:
        return not self.split_feature

    def thresholds_for(self, fid: int) -> list[float]:
        return [t for f, t in zip(self.split_feature, self.threshold) if f == fid]

    def leaves(self, columns, n: int) -> np.ndarray:
        """The leaf each of ``n`` rows reaches, where ``columns[f]`` holds
        the rows' values of each feature ``f`` the tree splits on."""
        out = np.empty(n, dtype=np.intp)
        stack = [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if node < 0:
                out[idx] = ~node
                continue
            go_left = columns[self.split_feature[node]][idx] <= self.threshold[node]
            stack.append((self.right_child[node], idx[~go_left]))
            stack.append((self.left_child[node], idx[go_left]))
        return out

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        columns = {f: features[:, f - 1] for f in self.used_features}
        return np.asarray(self.leaf_value)[self.leaves(columns, features.shape[0])]


class _GrowLeaf:
    """A leaf of a growing tree and, once scored, the histograms it was
    scored on: ``hist[:, j, b]`` holds the gradient sum, hessian sum and row
    count of the leaf's rows in bin ``b`` of feature ``cands[j]``, the
    candidates side by side and padded with empty bins to the widest.

    The root's ``totals`` are summed over its rows; every other leaf's are
    bin sums of its parent's histogram. The root and a leaf of a pair or
    discovery tree hold their ``rows``. A leaf below the root of a
    single-feature tree knows its bins, not its rows: ``span`` is its
    inclusive bin range ``(lo, hi)`` of the tree's feature, and its ``hist``
    covers those bins alone (``hist[:, 0, b]`` is bin ``lo + b``)."""

    __slots__ = ("rows", "span", "index", "slot", "totals", "cands", "hist")

    def __init__(self, index, slot, totals, rows=None, span=None):
        self.index = index          # leaf number in the finished tree
        self.slot = slot            # (child list, split) that points at the leaf; None at the root
        self.totals = totals        # gradient sum, hessian sum and row count
        self.rows = rows            # ascending row indices
        self.span = span


def _row_totals(grad, hess):
    """The totals of a leaf whose rows hold ``grad`` and ``hess``, summed in
    row order; np.add.reduce is what .sum() calls, without its wrapper."""
    return np.array([np.add.reduce(grad), np.add.reduce(hess), grad.size])


def _root_histograms(bins, gradients, hessians, cands, widest):
    """The histograms of the leaf that holds every row; counts are cached."""
    hist = np.zeros((3, len(cands), widest))
    for j, fid in enumerate(cands):
        col = bins.binned[:, fid - 1].astype(np.intp)   # bincount would cast it twice
        width = bins.num_bins(fid)
        hist[0, j, :width] = np.bincount(col, weights=gradients, minlength=width)
        hist[1, j, :width] = np.bincount(col, weights=hessians, minlength=width)
        hist[2, j, :width] = bins.counts[fid - 1]
    return hist


def _child_histograms(bins, parent, rows, gradients, hessians, cands, widest, fid, t, left):
    """The histograms over ``cands`` of the ``left`` or right child of
    ``parent``, split on ``fid`` at bin ``t``; the child holds ``rows``.

    Every bin of ``fid`` goes wholly to one side, so the child's histogram
    on ``fid`` is the parent's on its side of ``t``: the same rows summed in
    the same order. Each other candidate is bincounted over the child's rows,
    whose gradients and hessians are gathered here, for a scored child only.
    """
    hist = np.zeros((3, len(cands), widest))
    grad, hess = gradients[rows], hessians[rows]
    for j, f in enumerate(cands):
        if f == fid:
            side = slice(None, t + 1) if left else slice(t + 1, bins.num_bins(f))
            hist[:, j, side] = parent.hist[:, parent.cands.index(f), side]
            continue
        col = bins.binned[:, f - 1][rows].astype(np.intp)
        width = bins.num_bins(f)
        hist[0, j, :width] = np.bincount(col, weights=grad, minlength=width)
        hist[1, j, :width] = np.bincount(col, weights=hess, minlength=width)
        hist[2, j, :width] = np.bincount(col, minlength=width)
    return hist


def _best_split(leaf, floors, min_gain, l2):
    """The leaf's best (gain, feature, bin) over ``leaf.hist``, or None.

    ``floors`` is the (2, 1, 1) array of the hessian floor and
    ``min_data``, the least hessian sum and row count of either side of a
    cut.

    One ``cumsum`` gives every cut's left sums and the totals its right
    sums, side by side in one array; the gains are formed in place in that
    array, and ``leaf.hist`` and ``leaf.totals`` are only read. A cut below
    a candidate's lowest nonempty bin has no rows on its left, and a cut at
    or past its highest, padding included, none on its right; both fail
    ``min_data >= 1``, so no mask of real bins is needed.
    The flat ``argmax`` finds the first maximum in (feature, bin) order: the
    lowest feature id, then the lowest bin. Division by a zero denominator
    (only ever at a cut that the hessian floor rejects) and overflow must be
    silenced by the caller.
    """
    g_total, h_total, _ = leaf.totals.tolist()   # floats: numpy scalars' bits, called faster
    denom = h_total + l2
    parent = g_total * g_total / denom if denom > 0 else 0.0
    # Summation noise can make a mathematically zero gain come out at
    # ~1e-16; require the gain to clear min_gain by a margin scaled to the
    # parent.
    threshold = min_gain + 1e-12 * max(1.0, abs(parent))
    sides = np.empty((2,) + leaf.hist.shape)         # left, right
    np.cumsum(leaf.hist, axis=2, out=sides[0])
    np.subtract(leaf.totals[:, None, None], sides[0], out=sides[1])
    g, h = sides[:, 0], sides[:, 1]
    if l2:                  # adding 0 changes no hessian that the floor keeps
        h += l2
    # A cut needs both sides' hessian sums and row counts at their floors.
    ok = np.logical_and.reduce(sides[:, 1:] >= floors, axis=(0, 1))
    g *= g
    g /= h
    gains = g[0]
    gains += g[1]
    gains -= parent
    np.copyto(gains, -np.inf, where=~ok)
    j, p = divmod(int(gains.argmax()), gains.shape[1])
    gain = gains[j, p]
    if not gain > threshold:
        return None
    return float(gain), leaf.cands[j], p


def _leaf_value(totals, l2, learning_rate, max_output) -> float:
    denom = totals[1] + l2
    if denom <= 0:
        return 0.0
    step = -totals[0] / denom
    if max_output > 0:
        step = min(max(step, -max_output), max_output)
    return float(step * learning_rate)


def fit_tree(
    bins: BinMapper,
    gradients: np.ndarray,
    hessians: np.ndarray,
    regime: ConstraintRegime,
    cfg: TrainConfig,
    leaf_of_row: np.ndarray | None = None,
) -> DecisionTree:
    """Grow one tree on binned data under the given constraint regime.

    The tree's limits come from ``cfg``, a checked :class:`TrainConfig`: at
    most ``num_leaves`` leaves (3 for a discovery tree), ``min_data_in_leaf``,
    ``min_child_hessian`` and ``min_gain`` per split, and leaf values clamped
    to ``max_leaf_output`` with ``lambda_l2`` before ``learning_rate`` scaling.

    Growth is best first. The root's histograms are bincounted over every
    row (the row counts are cached in ``bins``) and its totals summed over
    them in row order. Below the root, a leaf's totals are the bin sums of
    its parent's histogram on the split feature over its side of the cut,
    within the parent's bin range. A scored child of a pair or discovery
    tree inherits that histogram on its side of the cut and bincounts the
    other candidates over its own rows; a leaf below a single tree's root is
    scored on its slice of the root's histogram on the root feature. One
    ``cumsum`` over the leaf's (3 x candidates x bins) array, padded to the
    widest candidate, scores every cut.
    Open leaves wait on a heap keyed (-gain, feature, bin, creation order),
    so the lowest feature, then the lowest bin, then the oldest leaf wins a
    tie. A leaf's value is the clamped Newton step of its totals.

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
    budget = DISCOVERY_LEAVES if regime.kind == "discovery" else cfg.num_leaves
    min_data = cfg.min_data_in_leaf
    single = regime.kind == "single"

    tree = DecisionTree([], [], [], [], [], regime.kind, ())
    root = _GrowLeaf(0, None, _row_totals(gradients, hessians),
                     rows=np.arange(n, dtype=np.intp))
    leaves = [root]                     # by leaf number
    heap = []                           # (-gain, feature, bin, creation order, leaf)
    created = itertools.count()
    hess_floor = max(cfg.min_child_hessian, np.finfo(np.float64).tiny)
    floors = np.array([hess_floor, min_data], dtype=np.float64)[:, None, None]

    def score(leaf, cands, hist, lo=0):
        """Push the leaf's best split; bin b of ``hist`` is bin ``lo + b``."""
        leaf.cands, leaf.hist = cands, hist
        best = _best_split(leaf, floors, cfg.min_gain, cfg.lambda_l2)
        if best is None:
            leaf.hist = None
        else:
            heapq.heappush(heap, (-best[0], best[1], lo + best[2], next(created), leaf))

    # The candidates, and so the histograms' width (the widest candidate's
    # bin count), change only at the root split. A leaf too small to give
    # both children min_data rows cannot split and is not scored.
    cands = [f for f in regime.candidates(None) if bins.num_bins(f) >= 2]
    widest = max(map(bins.num_bins, cands), default=0)
    # At a tiny hessian floor G^2/H can overflow: an infinite gain wins its
    # leaf, and a NaN gain (inf - inf), which argmax picks first, fails the
    # threshold and leaves the leaf unsplit.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cands and n >= 2 * min_data:
            score(root, cands, _root_histograms(bins, gradients, hessians, cands, widest))
        while heap and len(leaves) < budget:
            _, fid, t, _, leaf = heapq.heappop(heap)
            split = len(tree.split_feature)
            if leaf.slot is not None:
                children, parent = leaf.slot
                children[parent] = split
            else:
                cands = [f for f in regime.candidates(fid) if bins.num_bins(f) >= 2]
                widest = max(map(bins.num_bins, cands), default=0)
            tree.split_feature.append(fid)
            tree.threshold.append(float(bins.boundaries[fid - 1][t]))
            tree.left_child.append(~leaf.index)
            tree.right_child.append(~(split + 1))
            if not single:
                go_left = bins.binned[:, fid - 1][leaf.rows] <= t
            # The leaf's bin range on fid, whose first bin is its histogram's bin 0.
            j = leaf.cands.index(fid)
            off, top = leaf.span or (0, bins.num_bins(fid) - 1)
            # The split that fills the budget leaves its children unscored.
            more = len(leaves) + 1 < budget
            for left, index, slot in ((True, leaf.index, (tree.left_child, split)),
                                      (False, split + 1, (tree.right_child, split))):
                lo, hi = (off, t) if left else (t + 1, top)
                hist = leaf.hist[:, j:j + 1, lo - off:hi + 1 - off]
                rows = None if single else leaf.rows[go_left if left else ~go_left]
                child = _GrowLeaf(index, slot, np.add.reduce(hist[:, 0], axis=1), rows,
                                  (lo, hi) if single else None)
                if left:
                    leaves[index] = child
                else:
                    leaves.append(child)
                if more and cands and child.totals[2] >= 2 * min_data:
                    if not single:
                        hist, lo = _child_histograms(bins, leaf, rows, gradients, hessians,
                                                     cands, widest, fid, t, left), 0
                    score(child, cands, hist, lo)
            leaf.hist = None

    with np.errstate(over="ignore"):    # an infinite leaf is the caller's to refuse
        tree.leaf_value = [_leaf_value(leaf.totals, cfg.lambda_l2, cfg.learning_rate,
                                       cfg.max_leaf_output) for leaf in leaves]
    if leaf_of_row is not None and single and tree.split_feature:
        fid = tree.split_feature[0]     # every leaf is a bin range of fid
        leaf_of_bin = np.empty(bins.num_bins(fid), dtype=np.intp)
        for leaf in leaves:
            leaf_of_bin[leaf.span[0]:leaf.span[1] + 1] = leaf.index
        leaf_of_row[:] = leaf_of_bin[bins.binned[:, fid - 1]]
    elif leaf_of_row is not None:
        for leaf in leaves:
            leaf_of_row[leaf.rows] = leaf.index

    if regime.kind == "single":
        tree.constraint_features = tuple(tree.split_feature[:1])
    elif regime.kind == "pair":
        tree.constraint_features = tuple(sorted(regime.feature_pool))
    return tree
