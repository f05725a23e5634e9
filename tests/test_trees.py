import numpy as np
import pytest

from ilmart import Dataset, build_bins
from ilmart.trees import ConstraintRegime, DecisionTree, TreeLeaf, TreeNode, fit_tree

from synthdata import random_queries


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
    """Group training rows by the leaf object they route to."""
    groups = {}
    for r in range(len(X)):
        node = tree.root
        while isinstance(node, TreeNode):
            node = node.left if X[r, node.feature - 1] <= node.threshold else node.right
        groups.setdefault(id(node), (node, []))[1].append(r)
    return list(groups.values())


def test_single_regime_uses_one_feature_everywhere():
    rng = np.random.default_rng(0)
    X = rng.random((300, 4))
    grad = X[:, 2] - 0.5 + 0.1 * rng.normal(size=300)
    hess = np.full(300, 0.25)
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1, 2, 3, 4], 16, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert tree.used_features == (3,)
    assert all(n.feature == 3 for n in tree.nodes())
    assert tree.constraint_kind == "single"
    assert tree.constraint_features == (3,)


def test_pair_regime_locks_to_one_pair():
    rng = np.random.default_rng(1)
    X = rng.random((400, 5))
    grad = (X[:, 0] - 0.5) * (X[:, 1] - 0.5) * 4 + 0.05 * rng.normal(size=400)
    hess = np.full(400, 0.25)
    bins = make_bins(X)
    regime = ConstraintRegime.feature_pairs([(1, 2), (3, 4)], 12, min_data_in_leaf=5)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    assert set(tree.used_features) <= {1, 2} or set(tree.used_features) <= {3, 4}
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
    feats = [n.feature for n in tree.nodes()]
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
        assert (tree.root.feature, tree.root.threshold) == (fid, bins.boundaries[fid - 1][t])


def test_pair_root_split_matches_constrained_oracle():
    rng = np.random.default_rng(42)
    X = rng.random((200, 4))
    grad = rng.normal(size=200)
    hess = rng.uniform(0.2, 1.0, 200)
    bins = make_bins(X, max_bins=8)
    allowed = [1, 3]
    oracle = exhaustive_root_split(bins, grad, hess, allowed, min_data=10)
    regime = ConstraintRegime.feature_pairs([(1, 3)], 2, min_data_in_leaf=10)
    tree = fit_tree(bins, grad, hess, regime, 0.1)
    _, fid, t = oracle
    assert (tree.root.feature, tree.root.threshold) == (fid, bins.boundaries[fid - 1][t])


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
        for leaf, rows in leaf_rows(tree, X):
            rows = np.asarray(rows)
            want = -grad[rows].sum() / (hess[rows].sum() + l2) * lr
            assert leaf.value == pytest.approx(want, abs=1e-10)


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
        while isinstance(node, TreeNode):
            boundaries = bins.boundaries[node.feature - 1]
            t = boundaries.tolist().index(node.threshold)
            node = node.left if bins.binned[r, node.feature - 1] <= t else node.right
        return node.value

    raw = tree.predict_batch(X)
    binned = np.array([predict_by_bins(r) for r in range(1000)])
    np.testing.assert_array_equal(raw, binned)


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


def test_leaf_output_clamp_binds_on_degenerate_hessians():
    X = np.repeat([[0.0], [1.0]], 25, axis=0)
    grad = np.where(X[:, 0] > 0.5, -5.0, 5.0)
    hess = np.full(50, 1e-3)  # exactly at the floor: ratio would be 5000
    bins = make_bins(X)
    regime = ConstraintRegime.single_feature([1], 2, min_data_in_leaf=1,
                                             max_leaf_output=10.0)
    tree = fit_tree(bins, grad, hess, regime, 1.0)
    values = sorted(leaf.value for leaf in tree.leaves())
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
    tree = DecisionTree(TreeLeaf(0.0), "single", (), ())
    assert tree.predict_batch(np.array([[1.0, 2.0]])).tolist() == [0.0]


def test_manual_two_leaf_routing():
    tree = DecisionTree(
        TreeNode(1, 0.5, TreeLeaf(-0.1), TreeLeaf(0.2)), "single", (1,), (1,)
    )
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
        ConstraintRegime.feature_pairs([(2, 2)], 4)
