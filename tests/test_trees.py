import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ilmart import Dataset, TrainConfig, build_bins
from ilmart.trees import (ConstraintRegime, DecisionTree, _best_split, _GrowLeaf,
                          _root_histograms, _row_totals, fit_tree)

from synthdata import planted_interaction, random_queries
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
    regime = ConstraintRegime("single", [1, 2, 3, 4])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=16, min_data_in_leaf=5))
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
    regime = ConstraintRegime("pair", (1, 2))
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=12, min_data_in_leaf=5))
    assert set(tree.used_features) <= {1, 2}
    assert len(tree.leaf_value) <= 12


def test_discovery_tree_caps_leaves_and_requires_distinct_features():
    rng = np.random.default_rng(2)
    X = rng.random((500, 3))
    grad = np.where((X[:, 0] > 0.5) == (X[:, 1] > 0.5), 1.0, -1.0)
    # slight imbalance so the root split alone already has positive gain
    grad += 0.2 * (X[:, 0] > 0.5)
    hess = np.ones(500)
    bins = make_bins(X)
    regime = ConstraintRegime("discovery", [1, 2, 3])
    # The 3-leaf budget follows from the kind, whatever num_leaves the config holds.
    for num_leaves in (2, 64):
        tree = fit_tree(bins, grad, hess, regime,
                        TrainConfig(num_leaves=num_leaves, min_data_in_leaf=5))
        assert len(tree.leaf_value) <= 3 and len(tree.split_feature) <= 2
        feats = tree.split_feature
        assert len(feats) == len(set(feats)), "the two discovery splits must differ"
        assert set(tree.used_features) == {1, 2}


def test_discovery_with_single_informative_feature_stays_two_leaves():
    rng = np.random.default_rng(3)
    X = rng.random((400, 3))
    grad = np.where(X[:, 0] > 0.5, 1.0, -1.0)
    hess = np.ones(400)
    bins = make_bins(X)
    regime = ConstraintRegime("discovery", [1, 2, 3])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(min_data_in_leaf=5, min_gain=0.5))
    assert tree.used_features == (1,)
    assert len(tree.leaf_value) == 2


def test_root_split_matches_exhaustive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        X = rng.random((150, 5))
        grad = rng.normal(size=150)
        hess = rng.uniform(0.1, 1.0, 150)
        bins = make_bins(X, max_bins=16)
        oracle = exhaustive_root_split(bins, grad, hess, [1, 2, 3, 4, 5], min_data=5)
        regime = ConstraintRegime("single", [1, 2, 3, 4, 5])
        tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=2, min_data_in_leaf=5))
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
    regime = ConstraintRegime("pair", (1, 3))
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=2, min_data_in_leaf=10))
    _, fid, t = oracle
    assert (tree.split_feature[0], tree.threshold[0]) == (fid, bins.boundaries[fid - 1][t])


def test_leaf_values_are_newton_steps():
    for l2 in (0.0, 0.7):
        rng = np.random.default_rng(7)
        X = rng.random((300, 3))
        grad = rng.normal(size=300)
        hess = rng.uniform(0.2, 1.0, 300)
        bins = make_bins(X)
        regime = ConstraintRegime("single", [1, 2, 3])
        lr = 0.3
        cfg = TrainConfig(num_leaves=8, min_data_in_leaf=10, learning_rate=lr, lambda_l2=l2)
        tree = fit_tree(bins, grad, hess, regime, cfg)
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
        regime = ConstraintRegime("single", [1, 2])
        tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=budget, min_data_in_leaf=2))
        assert 2 <= len(tree.leaf_value) <= budget


def test_min_data_in_leaf_enforced():
    rng = np.random.default_rng(9)
    X = rng.random((100, 2))
    grad = rng.normal(size=100)
    hess = np.ones(100)
    bins = make_bins(X)
    regime = ConstraintRegime("single", [1, 2])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=32, min_data_in_leaf=25))
    for _, rows in leaf_rows(tree, X):
        assert len(rows) >= 25


def test_stump_when_no_positive_gain():
    X = np.linspace(0, 1, 50).reshape(-1, 1)
    grad = np.full(50, 0.3)  # constant gradient: every split has zero gain
    hess = np.ones(50)
    bins = make_bins(X)
    regime = ConstraintRegime("single", [1])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=8, min_data_in_leaf=1))
    assert tree.is_stump
    assert tree.used_features == ()


def test_raw_threshold_routing_matches_bin_routing():
    rng = np.random.default_rng(10)
    X = rng.random((1000, 3))
    grad = rng.normal(size=1000)
    hess = rng.uniform(0.3, 1.0, 1000)
    bins = make_bins(X, max_bins=24)
    regime = ConstraintRegime("single", [1, 2, 3])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=16, min_data_in_leaf=5))

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


@pytest.mark.parametrize("regime, cfg", [
    (ConstraintRegime("single", [1, 2, 3, 4]), TrainConfig(num_leaves=16, min_data_in_leaf=5)),
    (ConstraintRegime("pair", (2, 4)), TrainConfig(num_leaves=16, min_data_in_leaf=5)),
    (ConstraintRegime("discovery", [1, 2, 3, 4]), TrainConfig(min_data_in_leaf=5)),
    (ConstraintRegime("single", [1]), TrainConfig(num_leaves=8, min_data_in_leaf=600)),  # a stump
], ids=["single", "pair", "discovery", "stump"])
def test_leaf_of_row_is_the_predict_batch_routing(regime, cfg):
    rng = np.random.default_rng(11)
    X = np.round(rng.random((1000, 4)) * 40) / 40          # ties at the thresholds
    bins = make_bins(X, max_bins=24)
    leaf_of_row = np.full(1000, -1, dtype=np.intp)
    tree = fit_tree(bins, rng.normal(size=1000), rng.uniform(0.3, 1.0, 1000), regime, cfg,
                    leaf_of_row=leaf_of_row)
    numbered = replace(tree, leaf_value=[float(i) for i in range(len(tree.leaf_value))])
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
    regime = ConstraintRegime("single", [1, 2, 3])
    tree = fit_tree(bins, grad, hess, regime, TrainConfig(num_leaves=4, min_data_in_leaf=5))
    assert tree.used_features == (2,)


def test_gain_tie_between_leaves_goes_to_the_oldest_leaf():
    # The root splits on feature 1; both children then have the same best
    # split (feature 2, bin 0) with exactly equal gains, and one split is left.
    x1, x2 = np.repeat([0.0, 1.0], 20), np.tile(np.repeat([0.0, 1.0], 10), 2)
    grad = 6.0 * (x1 - 0.5) + 2.0 * (x2 - 0.5)
    bins = make_bins(np.column_stack([x1, x2]))
    regime = ConstraintRegime("pair", (1, 2))
    tree = fit_tree(bins, grad, np.ones(40), regime, TrainConfig(num_leaves=3, min_data_in_leaf=1))
    assert tree.split_feature == [1, 2]
    assert tree.left_child[0] == 1


def test_leaf_output_clamp_binds_on_degenerate_hessians():
    X = np.repeat([[0.0], [1.0]], 25, axis=0)
    grad = np.where(X[:, 0] > 0.5, -5.0, 5.0)
    hess = np.full(50, 1e-3)  # exactly at the floor: ratio would be 5000
    bins = make_bins(X)
    cfg = TrainConfig(num_leaves=2, min_data_in_leaf=1, max_leaf_output=10.0, learning_rate=1.0)
    tree = fit_tree(bins, grad, hess, ConstraintRegime("single", [1]), cfg)
    values = sorted(tree.leaf_value)
    assert values == [-10.0, 10.0]


@pytest.mark.parametrize("regime", [ConstraintRegime("single", range(1, 11)),
                                    ConstraintRegime("pair", (4, 5)),
                                    ConstraintRegime("discovery", range(1, 11))],
                         ids=["single", "pair", "discovery"])
@pytest.mark.parametrize("balanced", [False, True], ids=["normal", "balanced"])
def test_split_search_at_a_tiny_hessian_floor_raises_no_warning(regime, balanced):
    # G^2/H overflows to inf. With normal gradients the root's own term is
    # inf, so no gain clears it and the root stays a leaf; with gradients
    # that sum to zero the root's term is 0 and an infinite gain splits it.
    bins = build_bins(planted_interaction(4, 10, seed=1), 8)
    n = bins.num_rows
    grad = (np.where(np.arange(n) % 2 == 0, 1.0, -1.0) if balanced
            else np.random.default_rng(0).normal(size=n)) * 1e160
    hess = np.full(n, 1e-300)
    cfg = TrainConfig(min_child_hessian=0.0, min_data_in_leaf=1, num_leaves=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = fit_tree(bins, grad, hess, regime, cfg)
    assert bool(tree.split_feature) == balanced


def test_stump_predicts_its_value():
    tree = make_tree(0.0, "single", ())
    assert tree.predict_batch(np.array([[1.0, 2.0]])).tolist() == [0.0]


def test_manual_two_leaf_routing():
    tree = make_tree((1, 0.5, -0.1, 0.2), "single", (1,))
    x = np.array([[0.3], [0.5], [0.7], [-np.inf], [np.inf], [np.nan]])
    # NaN compares false at the split, so it goes right
    assert tree.predict_batch(x).tolist() == [-0.1, -0.1, 0.2, -0.1, 0.2, 0.2]


def test_input_validation():
    ds = random_queries(5, 4, seed=1)
    bins = build_bins(ds, 8)
    regime = ConstraintRegime("single", [1])
    zeros = np.zeros(ds.num_rows)
    with pytest.raises(ValueError):
        fit_tree(bins, np.zeros(3), np.zeros(3), regime, TrainConfig(num_leaves=4))
    with pytest.raises(ValueError):
        fit_tree(bins, zeros, zeros, regime, TrainConfig(num_leaves=4, learning_rate=0.0))
    with pytest.raises(ValueError):
        fit_tree(bins, zeros, zeros, regime, TrainConfig(num_leaves=1))
    with pytest.raises(ValueError):
        fit_tree(bins, zeros, zeros, regime, TrainConfig(num_leaves=4, min_data_in_leaf=0))
    with pytest.raises(ValueError):
        ConstraintRegime("pair", (2, 2))


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


def oracle_fit_tree(bins, gradients, hessians, regime, cfg, scored_sizes=None,
                    bin_sums=False):
    """Leaf-wise growth that re-scores every open leaf, whatever its size,
    each time the features used so far change. ``scored_sizes`` collects
    the row count of every leaf scored. The left child of split ``s`` keeps
    its parent's leaf number and the right child takes number ``s + 1``.

    A leaf's value comes from its row sums; with ``bin_sums``, a single
    tree's leaf below the root tracks its inclusive bin range ``[lo, hi]``
    of the root feature, and its value comes from the sums of that slice of
    the feature's bincount over all rows."""
    budget = 3 if regime.kind == "discovery" else cfg.num_leaves
    tree = DecisionTree([], [], [], [], [], regime.kind, ())
    root = {"rows": np.arange(bins.num_rows), "order": 0, "version": -1, "index": 0,
            "slot": None}
    open_leaves = [root]
    used, root_feature, version, next_order = [], None, 0, 1
    while len(open_leaves) < budget:
        chosen = None
        for pos, leaf in enumerate(open_leaves):
            if leaf["version"] != version:
                cands = regime.candidates(root_feature)
                leaf["best"] = oracle_best_split(
                    bins, leaf["rows"], gradients, hessians, cands, cfg.min_data_in_leaf,
                    cfg.min_gain, cfg.lambda_l2, cfg.min_child_hessian)
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
        if bin_sums and regime.kind == "single":
            lo, hi = leaf.get("span", (0, bins.num_bins(fid) - 1))
            left["span"], right["span"] = (lo, t), (t + 1, hi)
        open_leaves.extend((left, right))
        if root_feature is None:
            root_feature = fid
            version += 1
        if fid not in used:
            used.append(fid)
            version += 1

    def value(leaf):
        if "span" in leaf:
            lo, hi = leaf["span"]
            col, nb = bins.binned[:, root_feature - 1], bins.num_bins(root_feature)
            g_sum, h_sum = (np.add.reduce(np.bincount(col, weights=w, minlength=nb)[lo:hi + 1])
                            for w in (gradients, hessians))
        else:
            g_sum, h_sum = gradients[leaf["rows"]].sum(), hessians[leaf["rows"]].sum()
        denom = h_sum + cfg.lambda_l2
        if denom <= 0:
            return 0.0
        step = -g_sum / denom
        if cfg.max_leaf_output > 0:
            step = min(max(step, -cfg.max_leaf_output), cfg.max_leaf_output)
        return float(step * cfg.learning_rate)

    tree.leaf_value = [0.0] * len(open_leaves)
    for leaf in open_leaves:
        tree.leaf_value[leaf["index"]] = value(leaf)
    if regime.kind == "single":
        tree.constraint_features = () if root_feature is None else (root_feature,)
    elif regime.kind == "pair":
        tree.constraint_features = tuple(sorted(regime.feature_pool))
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
    budget = int(rng.integers(2, 33))       # a discovery tree ignores it
    pool = range(1, 7)
    if kind == "pair":
        pool = (1, 2) if rng.random() < 0.5 else (5, 6)
    l2 = float(rng.choice([0.0, 0.5, 3.0]))
    lr = float(rng.choice([0.1, 1.0]))
    cfg = TrainConfig(num_leaves=budget, learning_rate=lr, lambda_l2=l2, **limits)
    return bins, grad, hess, ConstraintRegime(kind, pool), cfg


def test_fit_tree_matches_per_leaf_oracle_node_for_node():
    offsets = []        # leaf size minus 2 * min_data_in_leaf, per oracle scoring
    splits = both_pair_features = 0
    for seed in range(1500):
        bins, grad, hess, regime, cfg = oracle_case(seed)
        sizes = []
        want = oracle_fit_tree(bins, grad, hess, regime, cfg, scored_sizes=sizes,
                               bin_sums=True)
        got = fit_tree(bins, grad, hess, regime, cfg)
        assert got == want, f"seed {seed}"
        offsets += [s - 2 * cfg.min_data_in_leaf for s in sizes[1:]]
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
    regime = ConstraintRegime("single", [1])
    cfg = TrainConfig(num_leaves=4, min_data_in_leaf=min_data)
    tree = fit_tree(bins, grad, np.ones(n), regime, cfg)
    want = oracle_fit_tree(bins, grad, np.ones(n), regime, cfg)
    assert tree == want
    assert len(tree.leaf_value) == (1 if extra < 0 else 2)


def bench_sized_case(seed, kind):
    """A few thousand rows at 255 bins, 32 leaves and tie-heavy gradients
    that keep changing sign along every feature, so that trees split the
    same feature again and again, deep into narrow bin ranges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2000, 5001))
    X = np.column_stack([
        rng.integers(0, 40, n),                 # 40 tied values
        np.round(rng.random(n), 2),             # about 100 tied values
        rng.random(n),                          # distinct: 255 quantile bins
        rng.integers(0, 300, n),                # 300 values over 255 bins
    ]).astype(float)
    ds = Dataset.from_rows(np.zeros(n, dtype=int), ["q"] * n, X)
    bins = build_bins(ds, max_bins=255)
    wave = np.sin(X[:, 0] / 3.0) + np.sin(7.0 * X[:, 1]) + np.sin(11.0 * X[:, 2]) \
        + np.sin(X[:, 3] / 20.0)
    grad = np.round(2.0 * wave + rng.normal(scale=0.5, size=n))   # ties everywhere
    hess = np.ones(n) if seed % 2 else rng.uniform(0.5, 1.0, n)
    pool = {"single": range(1, 5), "pair": ((1, 3), (2, 4), (3, 4))[seed % 3],
            "discovery": range(1, 5)}[kind]
    cfg = TrainConfig(num_leaves=32, min_data_in_leaf=int(rng.choice([1, 5, 20])),
                      lambda_l2=float(rng.choice([0.0, 1.0])))
    return bins, grad, hess, ConstraintRegime(kind, pool), cfg


def test_fit_tree_matches_per_leaf_oracle_at_bench_size():
    deep_single = deep_pair = 0
    for seed in range(24):
        for kind in ("single", "pair", "discovery"):
            bins, grad, hess, regime, cfg = bench_sized_case(seed, kind)
            want = oracle_fit_tree(bins, grad, hess, regime, cfg, bin_sums=True)
            got = fit_tree(bins, grad, hess, regime, cfg)
            assert got == want, f"seed {seed}, {kind}"
            uses = [want.split_feature.count(f) for f in want.used_features]
            deep_single += kind == "single" and uses == [31]
            deep_pair += kind == "pair" and len(uses) == 2 and min(uses) >= 5
    # single trees split one feature 31 times; pair trees split both often
    assert deep_single >= 20 and deep_pair >= 20


def exact(values):
    """``values`` rounded to multiples of 2^-10. A sum of a few thousand of
    them is exact in float64, whatever the order of the additions."""
    return np.round(values * 1024.0) / 1024.0


def test_fit_tree_matches_per_leaf_oracle_on_exact_inputs():
    # On such inputs a leaf's sums have one value however they are taken, so
    # the trees must match the oracle bit for bit in every regime, whether
    # the grower sums a leaf over its rows or over its bins.
    cases = itertools.chain(
        (oracle_case(seed) for seed in range(1500)),
        (bench_sized_case(seed, kind) for seed in range(24)
         for kind in ("single", "pair", "discovery")))
    splits = {"single": 0, "pair": 0, "discovery": 0}
    for case, (bins, grad, hess, regime, cfg) in enumerate(cases):
        grad, hess = exact(grad), exact(hess)
        want = oracle_fit_tree(bins, grad, hess, regime, cfg)
        assert fit_tree(bins, grad, hess, regime, cfg) == want, f"case {case}"
        splits[regime.kind] += len(want.split_feature)
    assert min(splits.values()) > 1000, splits


@pytest.mark.parametrize("cands, span", [([3], None), ([4, 5], None), ([3], (4, 20))],
                         ids=["single", "pair", "single_slice"])
@pytest.mark.parametrize("l2", [0.0, 1.0])
def test_split_scan_leaves_the_leaf_histograms_alone(cands, span, l2):
    bins = build_bins(planted_interaction(20, 20, seed=5), 32)
    rng = np.random.default_rng(6)
    n = bins.num_rows
    grad, hess = rng.normal(size=n), rng.random(n)
    leaf = _GrowLeaf(0, None, _row_totals(grad, hess), rows=np.arange(n))
    root = _root_histograms(bins, grad, hess, cands, max(map(bins.num_bins, cands)))
    leaf.cands, leaf.hist = cands, root
    if span is not None:
        # a leaf below the root of a single tree: its histogram is a view of a
        # slice of the root's, which a write would corrupt for every later leaf
        lo, hi = span
        leaf.hist = root[:, :, lo:hi + 1]
        leaf.totals = np.add.reduce(leaf.hist[:, 0], axis=1)
        assert np.shares_memory(leaf.hist, root)
    whole, hist, totals = root.copy(), leaf.hist.copy(), leaf.totals.copy()
    # The slice's totals are its bin sums, so at l2 = 0 its last cut divides
    # by an exactly empty hessian sum, which fit_tree silences as here.
    with np.errstate(**({} if span is None else {"divide": "ignore", "invalid": "ignore"})):
        best = _best_split(leaf, np.array([1e-3, 5.0])[:, None, None], 0.0, l2)
    assert best is not None and best[1] in cands
    assert np.array_equal(leaf.hist, hist) and np.array_equal(leaf.totals, totals)
    assert np.array_equal(root, whole)
