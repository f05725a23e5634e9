from dataclasses import replace

import numpy as np
import pytest

from ilmart import Dataset, build_bins
from ilmart.trees import ConstraintRegime, DecisionTree, fit_tree

from synthdata import random_queries
from treespec import make_tree


def make_bins(X, max_bins=32):
    ds = Dataset.from_rows(np.zeros(len(X), dtype=int), ["q"] * len(X), X)
    return build_bins(ds, max_bins=max_bins)


def exhaustive_root_split(bins, grad, hess, features, min_data=1, l2=0.0, min_hess=1e-3):
    """Oracle: scan every (feature, bin) split by direct row partitioning."""
    rows = np.arange(bins.num_rows)
    best = None
    for fid in features:
        for t in range(bins.num_bins(fid) - 1):
            mask = bins.binned[rows, fid - 1] <= t
            left, right = rows[mask], rows[~mask]
            if len(left) < min_data or len(right) < min_data:
                continue
            gl, hl = grad[left].sum(), hess[left].sum()
            gr, hr = grad[right].sum(), hess[right].sum()
            if hl + l2 < min_hess or hr + l2 < min_hess:
                continue
            g, h = gl + gr, hl + hr
            gain = gl * gl / (hl + l2) + gr * gr / (hr + l2) - g * g / (h + l2)
            if gain > 0 and (best is None or gain > best[0] + 1e-12):
                best = (gain, fid, t)
    return best


def leaf_rows(tree, X):
    """Group training rows by the leaf they route to, as (leaf value, rows)."""
    groups = {}
    for r in range(len(X)):
        node = tree.root
        while node >= 0:
            go_left = X[r, tree.split_feature[node] - 1] <= tree.threshold[node]
            node = tree.left_child[node] if go_left else tree.right_child[node]
        groups.setdefault(~node, []).append(r)
    return [(tree.leaf_value[leaf], rows) for leaf, rows in groups.items()]


def test_single_regime_uses_one_feature_everywhere():
    rng = np.random.default_rng(0)
    X = rng.random((300, 4))
    grad = X[:, 2] - 0.5 + 0.1 * rng.normal(size=300)
    hess = np.full(300, 0.25)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1, 2, 3, 4], 16, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.used_features == (3,)
    assert set(tree.split_feature) == {3}
    assert tree.constraint_kind == "single"
    assert tree.constraint_features == (3,)


def test_pair_regime_locks_to_one_pair():
    rng = np.random.default_rng(1)
    X = rng.random((400, 5))
    grad = (X[:, 0] - 0.5) * (X[:, 1] - 0.5) * 4 + 0.05 * rng.normal(size=400)
    hess = np.full(400, 0.25)
    bins = make_bins(X)
    regime = ConstraintRegime.feature_pair((1, 2), 12, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert set(tree.used_features) <= {1, 2}
    assert tree.num_leaves <= 12


def test_discovery_tree_caps_leaves_and_requires_distinct_features():
    rng = np.random.default_rng(2)
    X = rng.random((500, 3))
    grad = np.where((X[:, 0] > 0.5) == (X[:, 1] > 0.5), 1.0, -1.0)
    # slight imbalance so the root split alone already has positive gain
    grad += 0.2 * (X[:, 0] > 0.5)
    hess = np.ones(500)
    bins = make_bins(X)
    regime = ConstraintRegime.pair_discovery([1, 2, 3], min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.num_leaves <= 3
    feats = tree.split_feature
    assert len(feats) == len(set(feats)), "the two discovery splits must differ"
    assert set(tree.used_features) == {1, 2}


def test_discovery_with_single_informative_feature_stays_two_leaves():
    rng = np.random.default_rng(3)
    X = rng.random((400, 3))
    grad = np.where(X[:, 0] > 0.5, 1.0, -1.0)
    hess = np.ones(400)
    bins = make_bins(X)
    regime = ConstraintRegime.pair_discovery([1, 2, 3], min_data_in_leaf=5, min_gain=0.5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.used_features == (1,)
    assert tree.num_leaves == 2


def test_root_split_matches_exhaustive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        X = rng.random((150, 5))
        grad = rng.normal(size=150)
        hess = rng.uniform(0.1, 1.0, 150)
        bins = make_bins(X, max_bins=16)
        oracle = exhaustive_root_split(bins, grad, hess, [1, 2, 3, 4, 5], min_data=5)
        regime = ConstraintRegime.single_feature([1, 2, 3, 4, 5], 2, min_data_in_leaf=5)
        tree = fit_tree(bins, grad, hess, regime, 0.1)
        assert oracle is not None
        _, fid, t = oracle
        assert (tree.split_feature[0], tree.threshold[0]) == (fid, bins.boundaries[fid - 1][t])


def test_pair_root_split_matches_constrained_oracle():
    rng = np.random.default_rng(42)
    X = rng.random((200, 4))
    grad = rng.normal(size=200)
    hess = rng.uniform(0.2, 1.0, 200)
    bins = make_bins(X, max_bins=8)
    allowed = [1, 3]
    oracle = exhaustive_root_split(bins, grad, hess, allowed, min_data=10)
    regime = ConstraintRegime.feature_pair((1, 3), 2, min_data_in_leaf=10)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    _, fid, t = oracle
    assert (tree.split_feature[0], tree.threshold[0]) == (fid, bins.boundaries[fid - 1][t])


def test_leaf_values_are_newton_steps():
    for l2 in (0.0, 0.7):
        rng = np.random.default_rng(7)
        X = rng.random((300, 3))
        grad = rng.normal(size=300)
        hess = rng.uniform(0.2, 1.0, 300)
        bins = make_bins(X)
        regime = ConstraintRegime.single_feature([1, 2, 3], 8, min_data_in_leaf=10)
        lr = 0.3
        tree = fit_tree(bins, grad, hess, regime, lr, lambda_l2=l2)
        assert not tree.is_stump
        for value, rows in leaf_rows(tree, X):
            rows = np.asarray(rows)
            want = -grad[rows].sum() / (hess[rows].sum() + l2) * lr
            assert value == pytest.approx(want, abs=1e-10)


def test_leaf_budget_respected():
    rng = np.random.default_rng(8)
    X = rng.random((500, 2))
    grad = rng.normal(size=500)
    hess = np.ones(500)
    bins = make_bins(X)
    for budget in (2, 4, 9):
        regime = ConstraintRegime.single_feature([1, 2], budget, min_data_in_leaf=2)
        tree = fit_tree(bins, grad, hess, regime, 0.1)
        assert 2 <= tree.num_leaves <= budget


def test_min_data_in_leaf_enforced():
    rng = np.random.default_rng(9)
    X = rng.random((100, 2))
    grad = rng.normal(size=100)
    hess = np.ones(100)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1, 2], 32, min_data_in_leaf=25)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    for _, rows in leaf_rows(tree, X):
        assert len(rows) >= 25


def test_stump_when_no_positive_gain():
    X = np.linspace(0, 1, 50).reshape(-1, 1)
    grad = np.full(50, 0.3)  # constant gradient: every split has zero gain
    hess = np.ones(50)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1], 8, min_data_in_leaf=1)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.is_stump
    assert tree.used_features == ()


def test_raw_threshold_routing_matches_bin_routing():
    rng = np.random.default_rng(10)
    X = rng.random((1000, 3))
    grad = rng.normal(size=1000)
    hess = rng.uniform(0.3, 1.0, 1000)
    bins = make_bins(X, max_bins=24)
    regime = ConstraintRegime.single_feature([1, 2, 3], 16, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)

    def predict_by_bins(r):
        # A threshold is the boundary that closes bin t on the right.
        node = tree.root
        while node >= 0:
            fid = tree.split_feature[node]
            t = bins.boundaries[fid - 1].tolist().index(tree.threshold[node])
            go_left = bins.binned[r, fid - 1] <= t
            node = tree.left_child[node] if go_left else tree.right_child[node]
        return tree.leaf_value[~node]

    raw = tree.predict_batch(X)
    binned = np.array([predict_by_bins(r) for r in range(1000)])
    np.testing.assert_array_equal(raw, binned)


@pytest.mark.parametrize("regime", [
    ConstraintRegime.single_feature([1, 2, 3, 4], 16, min_data_in_leaf=5),
    ConstraintRegime.feature_pair((2, 4), 16, min_data_in_leaf=5),
    ConstraintRegime.pair_discovery([1, 2, 3, 4], min_data_in_leaf=5),
    ConstraintRegime.single_feature([1], 8, min_data_in_leaf=600),       # a stump
], ids=["single", "pair", "discovery", "stump"])
def test_leaf_of_row_is_the_predict_batch_routing(regime):
    rng = np.random.default_rng(11)
    X = np.round(rng.random((1000, 4)) * 40) / 40          # ties at the thresholds
    bins = make_bins(X, max_bins=24)
    leaf_of_row = np.full(1000, -1, dtype=np.intp)
    tree = fit_tree(bins, rng.normal(size=1000), rng.uniform(0.3, 1.0, 1000), regime, 0.1,
                    leaf_of_row=leaf_of_row)
    numbered = replace(tree, leaf_value=[float(i) for i in range(tree.num_leaves)])
    np.testing.assert_array_equal(leaf_of_row, numbered.predict_batch(X).astype(np.intp))
    np.testing.assert_array_equal(np.asarray(tree.leaf_value)[leaf_of_row],
                                  tree.predict_batch(X))


def test_tie_break_prefers_lowest_feature():
    rng = np.random.default_rng(12)
    col = rng.random(200)
    X = np.column_stack([rng.random(200), col, col])  # features 2 and 3 identical
    grad = np.where(col > 0.5, -1.0, 1.0)
    hess = np.ones(200)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1, 2, 3], 4, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.used_features == (2,)


def test_gain_tie_between_leaves_goes_to_the_oldest_leaf():
    # The root splits on feature 1; both children then have the same best
    # split (feature 2, bin 0) with exactly equal gains, and one split is left.
    x1, x2 = np.repeat([0.0, 1.0], 20), np.tile(np.repeat([0.0, 1.0], 10), 2)
    grad = 6.0 * (x1 - 0.5) + 2.0 * (x2 - 0.5)
    bins = make_bins(np.column_stack([x1, x2]))
    regime = ConstraintRegime.feature_pair((1, 2), 3, min_data_in_leaf=1)
    tree = fit_tree(bins, grad, np.ones(40), regime, 0.1)
    assert tree.split_feature == [1, 2]
    assert tree.left_child[0] == 1


def test_leaf_output_clamp_binds_on_degenerate_hessians():
    X = np.repeat([[0.0], [1.0]], 25, axis=0)
    grad = np.where(X[:, 0] > 0.5, -5.0, 5.0)
    hess = np.full(50, 1e-3)  # exactly at the floor: ratio would be 5000
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1], 2, min_data_in_leaf=1,
                                             max_leaf_output=10.0)
    tree = fit_tree(bins, grad, hess, regime, 1.0)
    values = sorted(tree.leaf_value)
    assert values == [-10.0, 10.0]


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    X = rng.random((300, 4))
    grad = rng.normal(size=300)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1, 2, 3, 4], 10, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, np.ones(300), regime, 0.1)
    clone = DecisionTree.from_dict(tree.to_dict())
    assert clone.to_dict() == tree.to_dict()
    np.testing.assert_array_equal(clone.predict_batch(X), tree.predict_batch(X))


def test_stump_predicts_its_value():
    tree = make_tree(0.0, "single", ())
    assert tree.predict_batch(np.array([[1.0, 2.0]])).tolist() == [0.0]
    assert DecisionTree.from_dict(tree.to_dict()) == tree


def test_manual_two_leaf_routing():
    tree = make_tree((1, 0.5, -0.1, 0.2), "single", (1,))
    x = np.array([[0.3], [0.5], [0.7], [-np.inf], [np.inf], [np.nan]])
    # NaN compares false at the split, so it goes right
    assert tree.predict_batch(x).tolist() == [-0.1, -0.1, 0.2, -0.1, 0.2, 0.2]


def test_input_validation():
    ds = random_queries(5, 4, seed=1)
    bins = build_bins(ds, 8)
    regime = ConstraintRegime.single_feature([1], 4)
    with pytest.raises(ValueError):
        fit_tree(bins, np.zeros(3), np.zeros(3), regime, 0.1)
    with pytest.raises(ValueError):
        fit_tree(bins, np.zeros(ds.num_rows), np.zeros(ds.num_rows), regime, 0.0)
    with pytest.raises(ValueError):
        ConstraintRegime.single_feature([1], 1)
    with pytest.raises(ValueError):
        ConstraintRegime.feature_pair((2, 2), 4)


# -- Whole-tree oracle: the plain per-leaf, per-feature split search ---------

def oracle_best_split(bins, rows, gradients, hessians, cands, min_data, min_gain, l2,
                      min_hess):
    """Best (gain, feature, bin) of one leaf, one feature at a time, or None."""
    grad = gradients[rows]
    hess = hessians[rows]
    g_total = grad.sum()
    h_total = hess.sum()
    denom = h_total + l2
    parent = g_total * g_total / denom if denom > 0 else 0.0
    hess_floor = max(min_hess, np.finfo(np.float64).tiny)
    gain_eps = 1e-12 * max(1.0, abs(parent))
    best = None
    for fid in cands:
        nb = bins.num_bins(fid)
        if nb < 2:
            continue
        col = bins.binned[rows, fid - 1]
        g_left = np.cumsum(np.bincount(col, weights=grad, minlength=nb))[:-1]
        h_left = np.cumsum(np.bincount(col, weights=hess, minlength=nb))[:-1]
        c_left = np.cumsum(np.bincount(col, minlength=nb))[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        c_right = rows.size - c_left
        dl = h_left + l2
        dr = h_right + l2
        ok = (c_left >= min_data) & (c_right >= min_data) & (dl >= hess_floor) \
            & (dr >= hess_floor)
        term_l = np.divide(g_left * g_left, dl, out=np.zeros_like(dl), where=ok)
        term_r = np.divide(g_right * g_right, dr, out=np.zeros_like(dr), where=ok)
        gains = np.where(ok, term_l + term_r - parent, -np.inf)
        t = int(np.argmax(gains))
        if gains[t] > min_gain + gain_eps and (best is None or gains[t] > best[0]):
            best = (float(gains[t]), fid, t)
    return best


def oracle_fit_tree(bins, gradients, hessians, regime, learning_rate, lambda_l2=0.0,
                    scored_sizes=None):
    """Leaf-wise growth that re-scores every open leaf, whatever its size,
    each time the features used so far change. ``scored_sizes`` collects
    the row count of every leaf scored. The left child of split ``s`` keeps
    its parent's leaf number and the right child takes number ``s + 1``."""
    tree = DecisionTree([], [], [], [], [], regime.kind, ())
    root = {"rows": np.arange(bins.num_rows), "order": 0, "version": -1, "index": 0,
            "slot": None}
    open_leaves = [root]
    used, root_feature, version, next_order = [], None, 0, 1
    while len(open_leaves) < regime.leaf_budget:
        chosen = None
        for pos, leaf in enumerate(open_leaves):
            if leaf["version"] != version:
                cands = regime.candidates(root_feature)
                leaf["best"] = oracle_best_split(
                    bins, leaf["rows"], gradients, hessians, cands, regime.min_data_in_leaf,
                    regime.min_gain, lambda_l2, regime.min_child_hessian)
                leaf["version"] = version
                if scored_sizes is not None:
                    scored_sizes.append(leaf["rows"].size)
            if leaf["best"] is None:
                continue
            key = (-leaf["best"][0], leaf["best"][1], leaf["best"][2], leaf["order"])
            if chosen is None or key < chosen[0]:
                chosen = (key, pos)
        if chosen is None:
            break
        leaf = open_leaves.pop(chosen[1])
        _, fid, t = leaf["best"]
        go_left = bins.binned[leaf["rows"], fid - 1] <= t
        split = len(tree.split_feature)
        if leaf["slot"] is not None:
            children, parent = leaf["slot"]
            children[parent] = split
        tree.split_feature.append(fid)
        tree.threshold.append(float(bins.boundaries[fid - 1][t]))
        tree.left_child.append(~leaf["index"])
        tree.right_child.append(~(split + 1))
        left = {"rows": leaf["rows"][go_left], "order": next_order, "version": -1,
                "index": leaf["index"], "slot": (tree.left_child, split)}
        right = {"rows": leaf["rows"][~go_left], "order": next_order + 1, "version": -1,
                 "index": split + 1, "slot": (tree.right_child, split)}
        next_order += 2
        open_leaves.extend((left, right))
        if root_feature is None:
            root_feature = fid
            version += 1
        if fid not in used:
            used.append(fid)
            version += 1

    def value(rows):
        denom = hessians[rows].sum() + lambda_l2
        if denom <= 0:
            return 0.0
        step = -(gradients[rows].sum()) / denom
        if regime.max_leaf_output > 0:
            step = min(max(step, -regime.max_leaf_output), regime.max_leaf_output)
        return float(step * learning_rate)

    tree.leaf_value = [0.0] * len(open_leaves)
    for leaf in open_leaves:
        tree.leaf_value[leaf["index"]] = value(leaf["rows"])
    if regime.kind == "single":
        tree.constraint_features = tuple(used)
    elif regime.kind == "pair" and len(used) == 2:
        tree.constraint_features = tuple(sorted(used))
    return tree


def oracle_case(seed):
    """Tie-heavy data and limits drawn at random; returns the fit_tree arguments."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    small = rng.integers(0, 3, n).astype(float)
    X = np.column_stack([
        small,                                  # three distinct values
        rng.integers(0, 6, n),                  # tie-heavy small integers
        np.full(n, 7.0),                        # constant: a single bin
        small,                                  # duplicate of feature 1: exact gain ties
        np.round(rng.random(n), 1),
        rng.random(n),                          # (nearly) all distinct
    ])
    max_bins = int(rng.choice([2, 4, 255]))
    ds = Dataset.from_rows(np.zeros(n, dtype=int), ["q"] * n, X)
    bins = build_bins(ds, max_bins=max_bins)
    grad = rng.normal(size=n)
    if rng.random() < 0.5:
        grad = np.round(grad)                   # ties between bins, leaves and features
    hess = rng.choice([np.ones(n), rng.uniform(0.0, 0.5, n), rng.uniform(0.5, 1.0, n)])
    limits = dict(
        min_data_in_leaf=int(rng.integers(1, max(2, n // 4))),
        min_gain=float(rng.choice([0.0, 0.0, 0.5])),
        min_child_hessian=float(rng.choice([0.0, 1e-3, 2.0])),   # 2.0 often binds
        max_leaf_output=float(rng.choice([0.0, 10.0, 0.05])),   # 0.05 binds
    )
    kind = ("single", "pair", "discovery")[seed % 3]
    budget = int(rng.integers(2, 33))
    if kind == "single":
        regime = ConstraintRegime.single_feature(range(1, 7), budget, **limits)
    elif kind == "pair":
        pair = (1, 2) if rng.random() < 0.5 else (5, 6)
        regime = ConstraintRegime.feature_pair(pair, budget, **limits)
    else:
        regime = ConstraintRegime.pair_discovery(range(1, 7), **limits)
    l2 = float(rng.choice([0.0, 0.5, 3.0]))
    lr = float(rng.choice([0.1, 1.0]))
    return bins, grad, hess, regime, lr, l2


def test_fit_tree_matches_per_leaf_oracle_node_for_node():
    offsets = []        # leaf size minus 2 * min_data_in_leaf, per oracle scoring
    splits = both_pair_features = 0
    for seed in range(1500):
        bins, grad, hess, regime, lr, l2 = oracle_case(seed)
        sizes = []
        want = oracle_fit_tree(bins, grad, hess, regime, lr, lambda_l2=l2,
                               scored_sizes=sizes)
        got = fit_tree(bins, grad, hess, regime, lr, lambda_l2=l2)
        assert got.to_dict() == want.to_dict(), f"seed {seed}"
        offsets += [s - 2 * regime.min_data_in_leaf for s in sizes[1:]]
        splits += len(want.split_feature)
        both_pair_features += regime.kind == "pair" and len(want.used_features) == 2
    # the cases reach leaves just below and exactly at the splittable size,
    # and pair trees that split on both features
    assert -1 in offsets and 0 in offsets
    assert splits > 4000 and both_pair_features > 100


@pytest.mark.parametrize("extra", [-1, 0])
def test_root_just_below_and_at_twice_min_data(extra):
    min_data = 6
    n = 2 * min_data + extra
    X = np.arange(n, dtype=float).reshape(-1, 1)
    grad = np.where(np.arange(n) < min_data, -1.0, 1.0)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1], 4, min_data_in_leaf=min_data)
    tree = fit_tree(bins, grad, np.ones(n), regime, 0.1)
    want = oracle_fit_tree(bins, grad, np.ones(n), regime, 0.1)
    assert tree.to_dict() == want.to_dict()
    assert tree.num_leaves == (1 if extra < 0 else 2)
