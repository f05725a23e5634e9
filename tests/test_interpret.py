import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilmart import (
    IlmartModel,
    additive_score,
    build_bins,
    distill_shapes,
    effect_importance,
    export_shapes,
    import_shapes,
    select_interactions,
    train_interaction_effects,
    train_ilmart,
    train_main_effects,
    TrainConfig,
)
from ilmart.trees import DecisionTree

from synthdata import letor_like, planted_interaction
from treespec import make_tree


def two_leaf(feature, threshold, left, right):
    return make_tree((feature, threshold, left, right), "single", (feature,))


def pair_tree(i, j, threshold_i, threshold_j, values):
    """Root on i, right child split on j; values = (left, right-left, right-right)."""
    spec = (i, threshold_i, values[0], (j, threshold_j, values[1], values[2]))
    return make_tree(spec, "pair", tuple(sorted((i, j))))


@pytest.fixture(scope="module")
def trained():
    train = planted_interaction(120, 25, seed=60)
    valid = planted_interaction(40, 25, seed=61)
    cfg = TrainConfig(num_leaves=8, early_stopping_rounds=10, max_rounds_per_stage=50,
                      stage2_max_rounds=30, max_interactions=4, min_data_in_leaf=10,
                      max_bins=32, lambdarank_norm=True)
    bins = build_bins(train, cfg.max_bins)
    m1 = train_main_effects(train, valid, cfg, bins=bins)
    pairs = select_interactions(m1, train, valid, cfg, bins=bins)
    if pairs:
        return train_interaction_effects(m1, pairs, train, valid, cfg, bins=bins)
    return m1


def test_single_tree_shape():
    model = IlmartModel(num_features=2, main_trees=[two_leaf(1, 0.5, -0.1, 0.2)],
                        main_features=[1])
    shapes, surfaces = distill_shapes(model)
    assert surfaces == []
    (shape,) = shapes
    assert shape.feature == 1
    assert shape.breakpoints.tolist() == [0.5]
    assert shape.values.tolist() == [-0.1, 0.2]


def test_two_trees_merge_breakpoints():
    trees = [two_leaf(1, 0.5, -0.1, 0.2), two_leaf(1, 0.7, 0.05, -0.3)]
    model = IlmartModel(num_features=1, main_trees=trees, main_features=[1])
    (shape,), _ = distill_shapes(model)
    assert shape.breakpoints.tolist() == [0.5, 0.7]
    # probe each interval and compare against direct tree sums
    for probe in (0.4, 0.6, 0.8):
        want = sum(t.predict_batch(np.array([[probe]]))[0] for t in trees)
        assert shape.lookup(probe) == want


def test_interval_closed_on_the_right():
    model = IlmartModel(num_features=1, main_trees=[two_leaf(1, 0.5, -0.1, 0.2)],
                        main_features=[1])
    (shape,), _ = distill_shapes(model)
    assert shape.lookup(0.5) == -0.1         # threshold itself routes left
    assert shape.lookup(np.nextafter(0.5, 1)) == 0.2


def test_surface_grid_matches_tree_sums():
    tree = pair_tree(1, 2, 0.5, 0.3, (-1.0, 0.25, 0.75))
    model = IlmartModel(num_features=2, main_trees=[two_leaf(1, 0.2, 0.0, 0.1)],
                        main_features=[1], interaction_trees=[tree],
                        interaction_pairs=[(1, 2)])
    _, (surface,) = distill_shapes(model)
    assert surface.pair == (1, 2)
    for xi in (0.1, 0.5, 0.9):
        for xj in (0.1, 0.3, 0.9):
            want = tree.predict_batch(np.array([[xi, xj]]))[0]
            assert surface.lookup(xi, xj) == want


def test_nan_goes_right_in_tree_and_table():
    tree = two_leaf(1, 0.5, -0.1, 0.2)
    model = IlmartModel(num_features=1, main_trees=[tree], main_features=[1])
    (shape,), _ = distill_shapes(model)
    assert tree.predict_batch(np.array([[np.nan]])).tolist() == [0.2]
    assert shape.lookup(np.nan) == 0.2


def test_leaf_walk_skips_unreachable_branches():
    # The inner split at 0.7 sits under "x <= 0.5", so its right leaf is
    # unreachable; the pair tree splits on j first and on i below it.
    main = make_tree((1, 0.5, (1, 0.7, 1.0, 100.0), -1.0), "single", (1,))
    pair = make_tree((2, 0.3, (1, 0.6, 0.5, 0.25), -0.5), "pair", (1, 2))
    model = IlmartModel(num_features=2, main_trees=[main], main_features=[1],
                        interaction_trees=[pair], interaction_pairs=[(1, 2)])
    (shape,), (surface,) = distill_shapes(model)
    assert shape.breakpoints.tolist() == [0.5, 0.7]
    assert shape.values.tolist() == [1.0, -1.0, -1.0]
    assert surface.breakpoints_i.tolist() == [0.6]
    assert surface.breakpoints_j.tolist() == [0.3]
    assert surface.values.tolist() == [[0.5, -0.5], [0.25, -0.5]]


@pytest.fixture(scope="module", params=["planted", "letor"])
def edge_model(request, trained):
    """A trained model, its tables, and per-feature inputs at the table edges."""
    if request.param == "planted":
        model = trained
    else:
        cfg = TrainConfig(num_leaves=8, early_stopping_rounds=10, max_rounds_per_stage=40,
                          stage2_max_rounds=30, max_interactions=3, min_data_in_leaf=5,
                          max_bins=16, lambdarank_norm=True)
        model = train_ilmart(letor_like(80, 20, seed=40), letor_like(30, 20, seed=41), cfg)
    shapes, surfaces = distill_shapes(model)
    edges = []
    for f in range(1, model.num_features + 1):
        bps = [s.breakpoints for s in shapes if s.feature == f]
        bps += [s.breakpoints_i for s in surfaces if s.pair[0] == f]
        bps += [s.breakpoints_j for s in surfaces if s.pair[1] == f]
        bp = np.unique(np.concatenate(bps + [np.empty(0)]))
        far = [-np.inf, np.inf, -1e300, 1e300, -1e6, 1e6, 0.0, np.nan]
        edges.append([*bp, *np.nextafter(bp, np.inf), *np.nextafter(bp, -np.inf), *far])
    return model, shapes, surfaces, edges


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_additive_identity_at_the_edges(edge_model, data):
    # Inputs exactly at, and one ulp either side of, every breakpoint, at
    # +-inf and NaN, and far outside the training range: a table cell off by
    # one interval would show up as a whole leaf value.
    model, shapes, surfaces, edges = edge_model
    row = st.tuples(*(st.sampled_from(e) for e in edges))
    X = np.array(data.draw(st.lists(row, min_size=1, max_size=16)), dtype=np.float64)
    table = np.zeros(len(X))
    for s in shapes:
        table += s.lookup_batch(X[:, s.feature - 1])
    for s in surfaces:
        table += s.lookup_batch(X[:, s.pair[0] - 1], X[:, s.pair[1] - 1])
    np.testing.assert_allclose(table, model.predict_batch(X), rtol=0, atol=1e-9)


def test_additive_decomposition_on_trained_model(trained):
    shapes, surfaces = distill_shapes(trained)
    rng = np.random.default_rng(1)
    X = rng.random((1000, trained.num_features)) * 2 - 0.5
    direct = trained.predict_batch(X)
    rebuilt = np.array([additive_score(shapes, surfaces, x) for x in X])
    np.testing.assert_allclose(rebuilt, direct, atol=1e-9)


def test_distillation_idempotence(trained):
    shapes, _ = distill_shapes(trained)

    def interval_tree(feature, lo, hi, value):
        # value inside (lo, hi], zero outside; lo/hi None for open ends
        if lo is None:
            spec = (feature, hi, value, 0.0)
        elif hi is None:
            spec = (feature, lo, 0.0, value)
        else:
            spec = (feature, lo, 0.0, (feature, hi, value, 0.0))
        return make_tree(spec, "single", (feature,))

    trees = []
    order = []
    for s in shapes:
        bp = s.breakpoints.tolist()
        bounds = [None] + bp
        uppers = bp + [None]
        for lo, hi, v in zip(bounds, uppers, s.values):
            trees.append(interval_tree(s.feature, lo, hi, float(v)))
        if s.feature not in order:
            order.append(s.feature)
    rebuilt = IlmartModel(num_features=trained.num_features, main_trees=trees,
                          main_features=order)
    shapes2, _ = distill_shapes(rebuilt)
    by_feature = {s.feature: s for s in shapes2}
    for s in shapes:
        s2 = by_feature[s.feature]
        assert s2.breakpoints.tolist() == s.breakpoints.tolist()
        assert s2.values.tolist() == s.values.tolist()


def reference_rows(n, d, seed=3):
    from ilmart import Dataset

    rng = np.random.default_rng(seed)
    return Dataset.from_rows([0] * n, ["q"] * n, rng.random((n, d)))


def test_importance_single_effect_ranks_first():
    model = IlmartModel(num_features=1, main_trees=[two_leaf(1, 0.5, -0.1, 0.2)],
                        main_features=[1])
    imp = effect_importance(model, reference_rows(50, 1))
    assert len(imp.effects) == 1
    assert imp.effects[0].rank == 1


def test_importance_zero_shape_scores_zero():
    model = IlmartModel(num_features=1, main_trees=[two_leaf(1, 0.5, 0.0, 0.0)],
                        main_features=[1])
    imp = effect_importance(model, reference_rows(50, 1))
    assert imp.effects[0].importance == 0.0


def test_importance_orders_by_mean_absolute_contribution():
    trees = [two_leaf(1, 0.5, -1.0, 1.0), two_leaf(2, 0.5, -0.1, 0.1)]
    model = IlmartModel(num_features=2, main_trees=trees, main_features=[1, 2])
    rng = np.random.default_rng(0)
    from ilmart import Dataset
    ref = Dataset.from_rows([0] * 50, ["q"] * 50, rng.random((50, 2)))
    imp = effect_importance(model, ref)
    scores = {e.features: (e.importance, e.rank) for e in imp.effects}
    assert scores[(1,)] == (1.0, 1)
    assert scores[(2,)][0] == pytest.approx(0.1)
    assert scores[(2,)][1] == 2


def test_export_csv_rows_exact(tmp_path):
    model = IlmartModel(num_features=1, main_trees=[two_leaf(1, 0.5, -0.1, 0.2)],
                        main_features=[1])
    shapes, surfaces = distill_shapes(model)
    export_shapes(shapes, surfaces, tmp_path, fmt="csv")
    rows = list(csv.reader(open(tmp_path / "main_1.csv")))
    assert rows[0] == ["upper_bound", "value"]
    assert rows[1] == ["0.5", "-0.1"]
    assert rows[2] == ["inf", "0.2"]


def test_export_empty_model_writes_only_index(tmp_path):
    model = IlmartModel(num_features=3)
    shapes, surfaces = distill_shapes(model)
    written = export_shapes(shapes, surfaces, tmp_path, fmt="csv")
    assert len(written) == 1
    assert written[0].endswith("index.csv")
    rows = list(csv.reader(open(written[0])))
    assert len(rows) == 1  # header only


def test_export_json_round_trip(trained, tmp_path):
    shapes, surfaces = distill_shapes(trained)
    export_shapes(shapes, surfaces, tmp_path, fmt="json")
    shapes2, surfaces2 = import_shapes(tmp_path)
    rng = np.random.default_rng(9)
    probes = rng.random(100) * 3 - 1
    for s, s2 in zip(shapes, shapes2):
        assert s.feature == s2.feature
        for x in probes:
            assert s.lookup(x) == s2.lookup(x)
    for s, s2 in zip(surfaces, surfaces2):
        assert s.pair == s2.pair
        for x in probes[:10]:
            for y in probes[10:20]:
                assert s.lookup(x, y) == s2.lookup(x, y)


def test_export_top_n(trained, tmp_path):
    shapes, surfaces = distill_shapes(trained)
    ref = planted_interaction(20, 10, seed=77, num_features=trained.num_features)
    imp = effect_importance(trained, ref)
    out = tmp_path / "top"
    written = export_shapes(shapes, surfaces, out, fmt="csv", importance=imp, top=2)
    effect_files = [p for p in written if not p.endswith("index.csv")]
    assert len(effect_files) == 2
    with pytest.raises(ValueError, match="importance"):
        export_shapes(shapes, surfaces, out, fmt="csv", top=2)


def test_importance_present_in_index(tmp_path, trained):
    shapes, surfaces = distill_shapes(trained)
    ref = planted_interaction(20, 10, seed=78, num_features=trained.num_features)
    imp = effect_importance(trained, ref)
    export_shapes(shapes, surfaces, tmp_path, fmt="csv", importance=imp)
    rows = list(csv.reader(open(tmp_path / "index.csv")))
    header, body = rows[0], rows[1:]
    assert header == ["effect", "kind", "features", "file", "importance", "rank"]
    ranks = sorted(int(r[5]) for r in body)
    assert ranks == list(range(1, len(body) + 1))


def chain_tree(features, thresholds, values, kind, tag):
    """A chain: split ``i`` sends ``x <= thresholds[i]`` to leaf ``values[i]``
    and everything else on to split ``i + 1``; the last leaf takes the rest."""
    spec = values[-1]
    for f, t, v in zip(features[::-1], thresholds[::-1], values[-2::-1]):
        spec = (f, t, v, spec)
    return make_tree(spec, kind, tag)


def test_5000_deep_chain_round_trips_scores_and_distils():
    # Deeper than the interpreter's recursion limit: scoring and distilling
    # walk the tree with an explicit stack.
    depth = 5000
    rng = np.random.default_rng(17)
    cuts = np.sort(rng.random(depth))
    pair_features = rng.integers(1, 3, depth)
    pair_cuts = rng.choice(np.linspace(0.05, 0.95, 8), depth)
    model = IlmartModel(
        num_features=2,
        main_trees=[chain_tree([1] * depth, cuts, rng.normal(size=depth + 1), "single", (1,)),
                    chain_tree([2] * depth, cuts, rng.normal(size=depth + 1), "single", (2,))],
        interaction_trees=[chain_tree(pair_features, pair_cuts, rng.normal(size=depth + 1),
                                      "pair", (1, 2))],
        main_features=[1, 2],
        interaction_pairs=[(1, 2)],
    )
    model.validate()
    loaded = [DecisionTree.from_dict(t.to_dict()) for t in model.trees]
    assert [t.to_dict() for t in loaded] == [t.to_dict() for t in model.trees]
    assert loaded[0].num_leaves == depth + 1
    back = IlmartModel(num_features=2, main_trees=loaded[:2], interaction_trees=loaded[2:],
                       main_features=[1, 2], interaction_pairs=[(1, 2)])
    back.validate()

    inputs = np.concatenate([cuts, np.nextafter(cuts, 2), rng.random(500)])
    X = rng.choice(inputs, (3000, 2))
    score = back.predict_batch(X)
    np.testing.assert_array_equal(score, model.predict_batch(X))
    shapes, surfaces = distill_shapes(back)
    assert [s.breakpoints.size for s in shapes] == [depth, depth]
    table = sum(s.lookup_batch(X[:, s.feature - 1]) for s in shapes)
    table += sum(s.lookup_batch(X[:, 0], X[:, 1]) for s in surfaces)
    np.testing.assert_allclose(table, score, rtol=0, atol=1e-9)
