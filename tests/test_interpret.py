import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ilmart
from ilmart import (
    IlmartModel,
    ModelError,
    build_bins,
    Dataset,
    effect_importance,
    export_shapes,
    InteractionSurface,
    load_model,
    save_model,
    ShapeFunction,
    train_ilmart,
    TrainConfig,
)

from ilmart.interpret import distill_shapes
from ilmart.model import tables
from ilmart.trainer import (_Booster, select_interactions, train_interaction_effects,
                            train_main_effects)
from ilmart.trees import ConstraintRegime, fit_tree

from oracles import additive_score, oracle_effect_table, tree_sum
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
    booster = _Booster(train, valid, cfg)
    m1 = train_main_effects(booster)
    pairs = select_interactions(m1, booster)
    if pairs:
        return train_interaction_effects(m1, pairs, booster)
    return m1


def test_trained_model_logs_all_three_stages(trained):
    assert trained.interaction_pairs, "stage 3 kept no trees"
    assert {stage for stage, _, _ in trained.training_log} == {1, 2, 3}


def test_single_tree_shape():
    model = IlmartModel.from_trees(2, [two_leaf(1, 0.5, -0.1, 0.2)])
    shapes, surfaces = distill_shapes(model)
    assert surfaces == ()
    (shape,) = shapes
    assert shape.feature == 1
    assert shape.breakpoints.tolist() == [0.5]
    assert shape.values.tolist() == [-0.1, 0.2]


def test_tables_are_read_from_the_model():
    # distill_shapes stays in interpret only for the benchmark, which wraps it
    assert "distill_shapes" not in ilmart.__all__
    model = IlmartModel.from_trees(2, [two_leaf(1, 0.5, -0.1, 0.2)])
    shapes, surfaces = distill_shapes(model)
    assert shapes is model.shapes and surfaces is model.surfaces


def test_two_trees_merge_breakpoints():
    trees = [two_leaf(1, 0.5, -0.1, 0.2), two_leaf(1, 0.7, 0.05, -0.3)]
    model = IlmartModel.from_trees(1, trees)
    (shape,), _ = distill_shapes(model)
    assert shape.breakpoints.tolist() == [0.5, 0.7]
    # probe each interval and compare against direct tree sums
    for probe in (0.4, 0.6, 0.8):
        want = sum(t.predict_batch(np.array([[probe]]))[0] for t in trees)
        assert shape.lookup_batch(probe) == want


def test_interval_closed_on_the_right():
    model = IlmartModel.from_trees(1, [two_leaf(1, 0.5, -0.1, 0.2)])
    (shape,), _ = distill_shapes(model)
    assert shape.lookup_batch(0.5) == -0.1         # threshold itself routes left
    assert shape.lookup_batch(np.nextafter(0.5, 1)) == 0.2


def test_surface_grid_matches_tree_sums():
    tree = pair_tree(1, 2, 0.5, 0.3, (-1.0, 0.25, 0.75))
    (surface,) = tables([tree])
    assert surface.pair == (1, 2)
    for xi in (0.1, 0.5, 0.9):
        for xj in (0.1, 0.3, 0.9):
            want = tree.predict_batch(np.array([[xi, xj]]))[0]
            assert surface.lookup_batch(xi, xj) == want


def test_nan_goes_right_in_tree_and_table():
    tree = two_leaf(1, 0.5, -0.1, 0.2)
    model = IlmartModel.from_trees(1, [tree])
    (shape,), _ = distill_shapes(model)
    assert tree.predict_batch(np.array([[np.nan]])).tolist() == [0.2]
    assert shape.lookup_batch(np.nan) == 0.2


def test_leaf_walk_skips_unreachable_branches():
    # The inner split at 0.7 sits under "x <= 0.5", so its right leaf is
    # unreachable; the pair tree splits on j first and on i below it.
    main = make_tree((1, 0.5, (1, 0.7, 1.0, 100.0), -1.0), "single", (1,))
    pair = make_tree((2, 0.3, (1, 0.6, 0.5, 0.25), -0.5), "pair", (1, 2))
    (shape,), (surface,) = tables([main]), tables([pair])
    assert shape.breakpoints.tolist() == [0.5, 0.7]
    assert shape.values.tolist() == [1.0, -1.0, -1.0]
    assert surface.breakpoints_i.tolist() == [0.6]
    assert surface.breakpoints_j.tolist() == [0.3]
    assert surface.values.tolist() == [[0.5, -0.5], [0.25, -0.5]]


def fitted_effect_trees(seed):
    """Trees from ``fit_tree`` at 255 bins on tie-heavy gradients, several
    per effect: single trees on features 1-3 and pair trees on (1, 3) and
    (2, 4), the two-leaf ones splitting only one of their pair's features."""
    rng = np.random.default_rng(seed)
    n = 3000
    X = np.column_stack([rng.integers(0, 40, n), np.round(rng.random(n), 2),
                         rng.random(n), rng.integers(0, 300, n)]).astype(float)
    bins = build_bins(Dataset.from_rows(np.zeros(n, dtype=int), ["q"] * n, X), max_bins=255)
    regimes = [ConstraintRegime("single", [f]) for f in (1, 2, 3)]
    regimes += [ConstraintRegime("pair", p) for p in ((1, 3), (2, 4))]
    trees = []
    for num_leaves in (2, 8, 32, 32):
        cfg = TrainConfig(num_leaves=num_leaves, min_data_in_leaf=5)
        for regime in regimes:
            grad = np.round(2.0 * np.sin(X @ rng.normal(size=4)) + rng.normal(size=n))
            trees.append(fit_tree(bins, grad, np.ones(n), regime, cfg))
    return trees


@pytest.mark.parametrize("seed", range(3))
def test_tables_equal_the_box_painting_oracle(seed):
    trees = fitted_effect_trees(seed)
    pair_uses = {len(t.used_features) for t in trees if t.constraint_kind == "pair"}
    assert pair_uses == {1, 2}
    effects = tables(trees)
    assert [e.features for e in effects] == [(1,), (2,), (3,), (1, 3), (2, 4)]
    for effect in effects:
        group = [t for t in trees if t.constraint_features == effect.features]
        assert len(group) == 4
        breakpoints, values = oracle_effect_table(group, effect.features)
        assert all(np.array_equal(a, b) for a, b in zip(effect.axes, breakpoints, strict=True))
        assert np.array_equal(effect.values, values)
        # Each cell's upper breakpoint (+inf past the last) looks up its own value.
        points = np.meshgrid(*(np.append(bp, np.inf) for bp in effect.axes), indexing="ij")
        assert np.array_equal(effect.lookup_batch(*points), effect.values)


def shared_feature_model():
    """A hand-built model: feature 2 is read by its shape and by two
    surfaces, whose breakpoints on it partly coincide; the shape of feature
    4 has no breakpoints; feature 5 is read by no table."""
    main = [
        make_tree((1, 0.5, -0.1, (1, 0.75, 0.2, 0.4)), "single", (1,)),
        make_tree((2, 0.25, 0.3, -0.3), "single", (2,)),
        make_tree((2, 0.0, 0.05, (2, 1.5, -0.05, 0.15)), "single", (2,)),
        make_tree((3, -1.0, 1.0, 0.0), "single", (3,)),
        make_tree(0.7, "single", (4,)),
    ]
    pairs = [
        pair_tree(1, 2, 0.6, 0.25, (0.0, 0.5, -0.5)),
        pair_tree(2, 3, 0.1, 2.0, (0.25, 0.2, -0.2)),
        pair_tree(2, 3, 0.0, -1.0, (-0.125, 0.0625, 0.5)),
    ]
    return IlmartModel.from_trees(5, main, pairs)


@pytest.fixture(scope="module", params=["planted", "letor", "shared"])
def edge_model(request, trained):
    """A model, its tables, and per-feature inputs at the table edges."""
    if request.param == "planted":
        model = trained
    elif request.param == "shared":
        model = shared_feature_model()
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
        far = [-np.inf, np.inf, -1e300, 1e300, -1e6, 1e6, 0.0, -0.0, np.nan]
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
    np.testing.assert_array_equal(table, model.predict_batch(X))
    np.testing.assert_array_equal(table, list(model.scores_by_pair_rank(X))[-1])
    # The terms read an index built once per model: every call gives the
    # same bits, each its table's own lookup.
    first, again = list(model.terms(X)), list(model.terms(X))
    for (effect, term), (effect2, term2) in zip(first, again, strict=True):
        assert effect is effect2 and term.tobytes() == term2.tobytes()
        lookup = effect.lookup_batch(*(X[:, f - 1] for f in effect.features))
        assert term.tobytes() == lookup.tobytes()
    # An importance is the mean absolute lookup of its table.
    reference = Dataset(X, np.zeros(len(X), np.int32), ["q"] * len(X), [np.arange(len(X))])
    lookups = {(s.kind, s.features): s.lookup_batch(*(X[:, f - 1] for f in s.features))
               for s in shapes + surfaces}
    imp = effect_importance(model, reference)
    assert len(imp) == len(lookups)
    for e in imp:
        assert e.importance == float(np.mean(np.abs(lookups[e.kind, e.features])))
    # the independent oracle: the trees the tables were summed from
    np.testing.assert_allclose(table, tree_sum(model, X), rtol=0, atol=1e-9)


def test_additive_decomposition_on_trained_model(trained):
    shapes, surfaces = distill_shapes(trained)
    rng = np.random.default_rng(1)
    X = rng.random((1000, trained.num_features)) * 2 - 0.5
    direct = tree_sum(trained, X)
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
    for s in shapes:
        bp = s.breakpoints.tolist()
        bounds = [None] + bp
        uppers = bp + [None]
        for lo, hi, v in zip(bounds, uppers, s.values):
            trees.append(interval_tree(s.feature, lo, hi, float(v)))
    rebuilt = IlmartModel.from_trees(trained.num_features, trees)
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
    model = IlmartModel.from_trees(1, [two_leaf(1, 0.5, -0.1, 0.2)])
    imp = effect_importance(model, reference_rows(50, 1))
    assert len(imp) == 1
    assert imp[0].rank == 1


def test_importance_zero_shape_scores_zero():
    model = IlmartModel.from_trees(1, [two_leaf(1, 0.5, 0.0, 0.0)])
    imp = effect_importance(model, reference_rows(50, 1))
    assert imp[0].importance == 0.0


def test_importance_orders_by_mean_absolute_contribution():
    trees = [two_leaf(1, 0.5, -1.0, 1.0), two_leaf(2, 0.5, -0.1, 0.1)]
    model = IlmartModel.from_trees(2, trees)
    rng = np.random.default_rng(0)
    from ilmart import Dataset
    ref = Dataset.from_rows([0] * 50, ["q"] * 50, rng.random((50, 2)))
    imp = effect_importance(model, ref)
    scores = {e.features: (e.importance, e.rank) for e in imp}
    assert scores[(1,)] == (1.0, 1)
    assert scores[(2,)][0] == pytest.approx(0.1)
    assert scores[(2,)][1] == 2


def test_export_csv_rows_exact(tmp_path):
    model = IlmartModel.from_trees(1, [two_leaf(1, 0.5, -0.1, 0.2)])
    shapes, surfaces = distill_shapes(model)
    export_shapes(shapes, surfaces, tmp_path, fmt="csv")
    with open(tmp_path / "main_1.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["upper_bound", "value"]
    assert rows[1] == ["0.5", "-0.1"]
    assert rows[2] == ["inf", "0.2"]


def test_export_empty_model_writes_only_index(tmp_path):
    model = IlmartModel(num_features=3)
    shapes, surfaces = distill_shapes(model)
    written = export_shapes(shapes, surfaces, tmp_path, fmt="csv")
    assert len(written) == 1
    assert written[0].endswith("index.csv")
    with open(written[0]) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1  # header only


def test_export_json_round_trip(trained, tmp_path):
    shapes, surfaces = distill_shapes(trained)
    export_shapes(shapes, surfaces, tmp_path, fmt="json")

    def read_back(table, effect):
        return table.from_json(json.loads((tmp_path / f"{effect.key}.json").read_text()))

    shapes2 = [read_back(ShapeFunction, s) for s in shapes]
    surfaces2 = [read_back(InteractionSurface, s) for s in surfaces]
    rng = np.random.default_rng(9)
    probes = rng.random(100) * 3 - 1
    for s, s2 in zip(shapes, shapes2):
        assert s.feature == s2.feature
        for x in probes:
            assert s.lookup_batch(x) == s2.lookup_batch(x)
    for s, s2 in zip(surfaces, surfaces2):
        assert s.pair == s2.pair
        for x in probes[:10]:
            for y in probes[10:20]:
                assert s.lookup_batch(x, y) == s2.lookup_batch(x, y)


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
    with open(tmp_path / "index.csv") as f:
        rows = list(csv.reader(f))
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


def test_5000_deep_chain_round_trips_scores_and_distils(tmp_path):
    # Deeper than the interpreter's recursion limit: scoring and distilling
    # walk the tree with an explicit stack.
    depth = 5000
    rng = np.random.default_rng(17)
    cuts = np.sort(rng.random(depth))
    pair_features = rng.integers(1, 3, depth)
    pair_cuts = rng.choice(np.linspace(0.05, 0.95, 8), depth)
    model = IlmartModel.from_trees(
        2,
        [chain_tree([1] * depth, cuts, rng.normal(size=depth + 1), "single", (1,)),
         chain_tree([2] * depth, cuts, rng.normal(size=depth + 1), "single", (2,))],
        [chain_tree(pair_features, pair_cuts, rng.normal(size=depth + 1), "pair", (1, 2))],
    )
    assert len(model.main_trees[0].leaf_value) == depth + 1
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")

    inputs = np.concatenate([cuts, np.nextafter(cuts, 2), rng.random(500)])
    X = rng.choice(inputs, (3000, 2))
    score = back.predict_batch(X)
    np.testing.assert_array_equal(score, model.predict_batch(X))
    shapes, surfaces = distill_shapes(back)
    assert [s.breakpoints.size for s in shapes] == [depth, depth]
    np.testing.assert_allclose(tree_sum(model, X), score, rtol=0, atol=1e-9)


def test_json_export_matches_the_model_file_tables(trained, tmp_path):
    save_model(trained, tmp_path / "model.json")
    data = json.loads((tmp_path / "model.json").read_text())
    stored = {f"main_{e['feature']}": e for e in data["main_effects"]}
    stored.update({f"pair_{e['pair'][0]}_{e['pair'][1]}": e for e in data["pair_effects"]})
    export_shapes(*distill_shapes(trained), tmp_path / "shapes", fmt="json")
    index = json.loads((tmp_path / "shapes" / "index.json").read_text())["effects"]
    assert [e["effect"] for e in index] == list(stored)
    for entry in index:
        exported = json.loads((tmp_path / "shapes" / entry["file"]).read_text())
        want = stored[entry["effect"]]
        assert exported.keys() == want.keys()
        for key in exported:
            assert np.array_equal(np.array(exported[key]), np.array(want[key])), key



@pytest.mark.parametrize("damage, message", [
    (lambda e: e["values"].pop(), "values have shape"),
    (lambda e: e["breakpoints"].reverse(), "strictly increasing"),
    (lambda e: e["values"].__setitem__(0, "0.5"), "JSON numbers only"),
    (lambda e: e.__setitem__("feature", 0), "feature id"),
])
def test_import_shapes_refuses_a_damaged_export(trained, tmp_path, damage, message):
    # A damaged main-effect file of a JSON export is refused when read back
    # as a shape function; ``damage`` edits the effect in place.
    export_shapes(*distill_shapes(trained), tmp_path, fmt="json")
    path = tmp_path / f"main_{trained.main_features[0]}.json"
    effect = json.loads(path.read_text())
    damage(effect)
    path.write_text(json.dumps(effect))
    with pytest.raises(ModelError, match=message):
        ShapeFunction.from_json(json.loads(path.read_text()))
