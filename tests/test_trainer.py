import itertools
import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilmart import (
    Dataset,
    IlmartModel,
    ModelError,
    TrainConfig,
    build_bins,
    distill_shapes,
    load_model,
    mean_ndcg,
    save_model,
    select_interactions,
    train_ilmart,
    train_interaction_effects,
    train_main_effects,
)

from synthdata import planted_interaction, single_signal
from treespec import make_tree


def small_cfg(**overrides):
    base = dict(
        num_leaves=8,
        learning_rate=0.1,
        early_stopping_rounds=10,
        max_rounds_per_stage=60,
        stage2_max_rounds=40,
        max_interactions=5,
        min_data_in_leaf=10,
        max_bins=32,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def planted_run():
    train = planted_interaction(120, 25, seed=50)
    valid = planted_interaction(40, 25, seed=51)
    cfg = small_cfg()
    bins = build_bins(train, cfg.max_bins)
    stage1 = train_main_effects(train, valid, cfg, bins=bins)
    stage2_log = []
    pairs = select_interactions(stage1, train, valid, cfg, bins=bins, log=stage2_log)
    full = train_interaction_effects(stage1, pairs, train, valid, cfg, bins=bins,
                                     stage2_log=stage2_log)
    return dict(train=train, valid=valid, cfg=cfg, bins=bins,
                stage1=stage1, pairs=pairs, full=full)


def test_single_feature_dataset_uses_only_that_feature():
    train = single_signal(60, 15, seed=1, num_features=1)
    valid = single_signal(20, 15, seed=2, num_features=1)
    model = train_main_effects(train, valid, small_cfg())
    assert model.main_features == [1]
    assert all(t.constraint_features == (1,) for t in model.main_trees)
    assert model.p == 1


def test_signal_feature_dominates_leaf_mass():
    # Oracle: labels are monotone in feature 1, everything else is noise, so
    # feature 1 must be picked up and carry the largest total |leaf| mass.
    train = single_signal(150, 20, seed=3)
    valid = single_signal(50, 20, seed=4)
    model = train_main_effects(train, valid, small_cfg())
    assert 1 in model.main_features
    mass = {f: 0.0 for f in model.main_features}
    for tree in model.main_trees:
        mass[tree.used_features[0]] += sum(abs(v) for v in tree.leaf_value)
    assert max(mass, key=mass.get) == 1


def test_main_trees_are_all_single_feature(planted_run):
    model = planted_run["stage1"]
    assert model.main_trees, "stage 1 kept no trees"
    for tree in model.main_trees:
        assert tree.constraint_kind == "single"
        assert len(tree.used_features) == 1
    assert model.main_features == sorted(set(model.main_features), key=model.main_features.index)
    assert model.p <= len(model.main_trees)


def test_selection_returns_hereditary_pairs_in_order(planted_run):
    pairs = planted_run["pairs"]
    j = set(planted_run["stage1"].main_features)
    assert pairs, "no pairs selected"
    assert len(pairs) == len(set(pairs))
    for i, k in pairs:
        assert i < k and i in j and k in j


def test_selection_with_single_main_effect_returns_empty():
    train = single_signal(60, 15, seed=5, num_features=1)
    valid = single_signal(20, 15, seed=6, num_features=1)
    model = train_main_effects(train, valid, small_cfg())
    assert select_interactions(model, train, valid, small_cfg()) == []


def test_p2_selection_bounded_by_one_pair():
    def two_feature(num_queries, docs, seed):
        rng = np.random.default_rng(seed)
        n = num_queries * docs
        X = rng.random((n, 2))
        base = X[:, 0] + X[:, 1] + 2.0 * X[:, 0] * X[:, 1] + rng.normal(0, 0.2, n)
        labels = np.clip(np.round(base), 0, 4).astype(int)
        return Dataset.from_rows(labels, [f"q{i // docs}" for i in range(n)], X)

    train = two_feature(80, 20, seed=7)
    valid = two_feature(30, 20, seed=8)
    cfg = small_cfg()
    model = train_main_effects(train, valid, cfg)
    assert model.p == 2
    pairs = select_interactions(model, train, valid, cfg)
    assert pairs in ([], [(1, 2)])


def test_selection_does_not_touch_the_model(planted_run):
    model = planted_run["stage1"]
    before = [t.to_dict() for t in model.main_trees]
    select_interactions(model, planted_run["train"], planted_run["valid"],
                        planted_run["cfg"], bins=planted_run["bins"])
    assert [t.to_dict() for t in model.main_trees] == before
    assert model.interaction_trees == []


def test_interaction_trees_stay_inside_selected_pairs(planted_run):
    full = planted_run["full"]
    assert full.interaction_trees, "stage 3 kept no trees"
    pair_set = set(full.interaction_pairs)
    for tree in full.interaction_trees:
        assert tuple(tree.constraint_features) in pair_set
        assert set(tree.used_features) <= set(tree.constraint_features)
    assert set(full.interaction_pairs) <= set(planted_run["pairs"])


def test_stage_separation(planted_run):
    # Dropping the interaction trees reproduces stage-1 predictions exactly.
    full, stage1 = planted_run["full"], planted_run["stage1"]
    X = planted_run["valid"].features
    main_only = np.zeros(X.shape[0])
    for tree in full.main_trees:
        main_only += tree.predict_batch(X)
    np.testing.assert_array_equal(main_only, stage1.predict_batch(X))


def test_discovery_trees_leave_no_trace(planted_run):
    # Stage 3 starts from stage-1 scores, so the final model's main trees are
    # the stage-1 trees themselves, object for object.
    assert planted_run["full"].main_trees is planted_run["stage1"].main_trees


def test_rollback_matches_best_curve_point(planted_run):
    full = planted_run["full"]
    cfg = planted_run["cfg"]
    stage3 = [v for s, _, v in full.training_log if s == 3]
    assert stage3, "stage 3 never logged a round"
    got = mean_ndcg(full.predict_dataset(planted_run["valid"]),
                    planted_run["valid"], (cfg.ndcg_cutoff,)).mean[cfg.ndcg_cutoff]
    assert got == pytest.approx(max(stage3), abs=1e-12)
    assert got == pytest.approx(full.best_valid_ndcg, abs=1e-12)


def test_stage1_rollback_matches_best_curve_point(planted_run):
    stage1 = planted_run["stage1"]
    cfg = planted_run["cfg"]
    curve = [v for s, _, v in stage1.training_log if s == 1]
    got = mean_ndcg(stage1.predict_dataset(planted_run["valid"]),
                    planted_run["valid"], (cfg.ndcg_cutoff,)).mean[cfg.ndcg_cutoff]
    assert got == pytest.approx(max(curve), abs=1e-12)


def test_training_log_has_all_three_stages(planted_run):
    stages = {s for s, _, _ in planted_run["full"].training_log}
    assert stages == {1, 2, 3}


def test_empty_model_predicts_zero():
    model = train_main_effects(
        single_signal(30, 10, seed=9),
        single_signal(10, 10, seed=10),
        small_cfg(max_rounds_per_stage=1, early_stopping_rounds=1),
    )
    probe = np.zeros((1, 6))
    if not model.main_trees:  # nothing improved in one round
        assert model.predict_batch(probe).tolist() == [0.0]
    got = model.predict_batch(probe)[0]
    assert got == sum(t.predict_batch(probe)[0] for t in model.main_trees)


def test_learning_rate_zero_rejected():
    with pytest.raises(ModelError, match="learning_rate"):
        small_cfg(learning_rate=0.0).validate()


@pytest.mark.parametrize("overrides, message", [
    ({"bogus": 1}, "unknown stage3_overrides key"),
    ({"stage3_overrides": {}}, "unknown stage3_overrides key"),
    ({"num_leaves": 1}, "num_leaves must be >= 2 (in stage3_overrides)"),
    ([["num_leaves", 8]], "stage3_overrides must be an object"),
])
def test_bad_stage3_overrides_rejected_by_validate(overrides, message):
    with pytest.raises(ModelError) as info:
        small_cfg(stage3_overrides=overrides).validate()
    assert message in str(info.value)


@pytest.mark.parametrize("overrides, leaves", [({}, 8), ({"num_leaves": 4}, 4)])
def test_good_stage3_overrides_pass_validate(overrides, leaves):
    cfg = small_cfg(stage3_overrides=overrides)
    cfg.validate()
    assert cfg.for_stage3().num_leaves == leaves


def test_stage3_requires_pairs(planted_run):
    with pytest.raises(ModelError, match="pair"):
        train_interaction_effects(planted_run["stage1"], [], planted_run["train"],
                                  planted_run["valid"], planted_run["cfg"])


def test_stage3_rejects_non_hereditary_pairs(planted_run):
    bad = (97, 98)
    with pytest.raises(ModelError, match="heredity"):
        train_interaction_effects(planted_run["stage1"], [bad], planted_run["train"],
                                  planted_run["valid"], planted_run["cfg"])


def test_save_load_round_trip(tmp_path, planted_run):
    full = planted_run["full"]
    path = tmp_path / "model.json"
    save_model(full, path)
    back = load_model(path)
    rng = np.random.default_rng(0)
    X = rng.random((100, full.num_features))
    np.testing.assert_array_equal(back.predict_batch(X), full.predict_batch(X))
    assert back.main_features == full.main_features
    assert back.interaction_pairs == full.interaction_pairs
    assert [t.to_dict() for t in back.main_trees] == [t.to_dict() for t in full.main_trees]
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_stage1_model_round_trips_with_no_interactions(tmp_path, planted_run):
    path = tmp_path / "stage1.json"
    save_model(planted_run["stage1"], path)
    back = load_model(path)
    assert back.interaction_pairs == []
    assert back.interaction_trees == []
    X = planted_run["valid"].features[:50]
    np.testing.assert_array_equal(back.predict_batch(X),
                                  planted_run["stage1"].predict_batch(X))


@pytest.mark.parametrize("change, message", [
    ({"learning_rate": -1}, "learning_rate must be > 0"),
    ({"stage3_overrides": {"bogus": 1}}, "unknown stage3_overrides key(s) ['bogus']"),
    ({"stage3_overrides": {"num_leaves": 1}}, "num_leaves must be >= 2 (in stage3_overrides)"),
])
def test_load_model_validates_stored_config(tmp_path, planted_run, change, message):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["config"].update(change)
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: invalid config: {message}"


def draw_tree(data, features, kind, tag, depth=3):
    """A random tree over ``features`` whose root is a split."""
    thresholds = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 0.5, 5e-324]))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, 1.7e308]))

    def grow(level):
        if level > 0 and (level == depth or data.draw(st.booleans())):
            return data.draw(values)
        return (data.draw(st.sampled_from(features)), data.draw(thresholds),
                grow(level + 1), grow(level + 1))

    return make_tree(grow(0), kind, tag)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_saved_model_scores_bit_identically(data):
    width = 4
    main = data.draw(st.lists(st.integers(1, width), min_size=1, max_size=3, unique=True))
    main_trees = [draw_tree(data, [f], "single", (f,))
                  for f in main for _ in range(data.draw(st.integers(1, 2)))]
    main_trees.sort(key=lambda t: main.index(t.used_features[0]))
    candidates = [tuple(sorted(p)) for p in itertools.combinations(main, 2)]
    pairs = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=2)
                      if candidates else st.just([]))
    pair_trees = [draw_tree(data, list(p), "pair", p)
                  for p in pairs for _ in range(data.draw(st.integers(1, 2)))]
    model = IlmartModel(num_features=width, main_trees=main_trees, main_features=main,
                        interaction_trees=pair_trees, interaction_pairs=pairs)
    model.validate()
    inputs = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.5]))
    X = np.array(data.draw(st.lists(st.lists(inputs, min_size=width, max_size=width),
                                    min_size=1, max_size=8)), dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        back = load_model(path)
    with np.errstate(over="ignore", invalid="ignore"):     # sums of +-1.7e308 leaves
        assert back.predict_batch(X).tobytes() == model.predict_batch(X).tobytes()


def test_5000_deep_chain_saves_and_loads_bit_identically(tmp_path):
    spec = 0.0
    for k in range(5000):
        spec = (1, float(k), 1.0, spec)
    model = IlmartModel(num_features=1, main_trees=[make_tree(spec, "single", (1,))],
                        main_features=[1])
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    X = np.arange(-1.0, 5001.0, 0.5).reshape(-1, 1)
    assert back.predict_batch(X).tobytes() == model.predict_batch(X).tobytes()
    (want,), _ = distill_shapes(model)
    (got,), _ = distill_shapes(back)
    assert np.array_equal(got.breakpoints, want.breakpoints)
    assert np.array_equal(got.values, want.values)


def test_deeply_nested_model_file_is_a_model_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")


def test_tampered_model_rejected(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["full"], path)
    data = json.loads(path.read_text())
    tree = data["interaction_trees"][0]
    # rewrite one split to use a feature outside the assigned pair
    tree["split_feature"][0] = 99 if tree["split_feature"][0] != 99 else 98
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="constraint violation"):
        load_model(path)


def test_schema_version_checked(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="schema version") as err:
        load_model(path)
    assert str(err.value) == f"{path}: unsupported model schema version 999, expected 3"


def test_stage_1_scores_carry_into_stages_2_and_3(planted_run):
    train, valid, cfg, bins = (planted_run[k] for k in ("train", "valid", "cfg", "bins"))
    scores = {}
    stage1 = train_main_effects(train, valid, cfg, bins=bins, scores_out=scores)
    assert np.array_equal(scores["train"], stage1.predict_dataset(train))
    assert np.array_equal(scores["valid"], stage1.predict_dataset(valid))
    kept = {k: v.copy() for k, v in scores.items()}
    carried_log, computed_log = [], []
    pairs = select_interactions(stage1, train, valid, cfg, bins=bins, log=carried_log,
                                start_scores=scores)
    assert pairs == planted_run["pairs"]
    select_interactions(stage1, train, valid, cfg, bins=bins, log=computed_log)
    assert carried_log == computed_log
    full = train_interaction_effects(stage1, pairs, train, valid, cfg, bins=bins,
                                     start_scores=scores)
    want = train_interaction_effects(stage1, pairs, train, valid, cfg, bins=bins)
    assert [t.to_dict() for t in full.trees] == [t.to_dict() for t in want.trees]
    assert full.training_log == want.training_log
    assert all(np.array_equal(scores[k], kept[k]) for k in kept)     # read, not modified


def test_carried_scores_equal_model_scores_after_every_stage(monkeypatch):
    """Each boosting stage's best-round scores, built from leaf values of
    the training partition and tree outputs on validation rows, equal the
    model's own scores bit for bit."""
    import ilmart.trainer as trainer

    calls = []
    boost = trainer._boost_stage

    def recording(*args):
        trees, best_train, best_valid, best = boost(*args)
        calls.append((list(trees), best_train.copy(), best_valid.copy()))
        return trees, best_train, best_valid, best

    monkeypatch.setattr(trainer, "_boost_stage", recording)
    train = planted_interaction(100, 25, seed=64)
    valid = planted_interaction(40, 25, seed=65)
    model = train_ilmart(train, valid, small_cfg())
    # one stage-1 call, then one per nominated pair
    assert model.num_interactions >= 2 and len(calls) >= 1 + model.num_interactions
    running = [np.zeros(train.num_rows), np.zeros(valid.num_rows)]
    for trees, best_train, best_valid in calls:
        for tree in trees:
            running[0] += tree.predict_batch(train.features)
            running[1] += tree.predict_batch(valid.features)
        assert np.array_equal(best_train, running[0])
        assert np.array_equal(best_valid, running[1])
    assert np.array_equal(running[0], model.predict_batch(train.features))
    assert np.array_equal(running[1], model.predict_batch(valid.features))


def test_training_is_deterministic(tmp_path):
    train = planted_interaction(60, 15, seed=21)
    valid = planted_interaction(20, 15, seed=22)
    cfg = small_cfg(max_rounds_per_stage=30, stage2_max_rounds=15, max_interactions=3)
    a = train_ilmart(train, valid, cfg)
    b = train_ilmart(train, valid, cfg)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, pa)
    save_model(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_train_ilmart_with_interactions_disabled():
    train = planted_interaction(60, 15, seed=31)
    valid = planted_interaction(20, 15, seed=32)
    model = train_ilmart(train, valid, small_cfg(max_interactions=0))
    assert model.interaction_trees == []
    assert model.interaction_pairs == []


def test_mismatched_dimensions_rejected():
    train = single_signal(30, 10, seed=1, num_features=4)
    valid = single_signal(10, 10, seed=2, num_features=5)
    with pytest.raises(ModelError, match="number of features"):
        train_main_effects(train, valid, small_cfg())


def test_predict_requires_enough_features(planted_run):
    with pytest.raises(ModelError, match="feature"):
        planted_run["full"].predict_batch(np.zeros((1, 2)))


def test_heredity_validated_on_trained_model(planted_run):
    planted_run["full"].validate()
    j = set(planted_run["full"].main_features)
    for i, k in planted_run["full"].interaction_pairs:
        assert i in j and k in j


def test_scores_by_pair_rank_runs_from_stage1_to_full(planted_run):
    full, stage1 = planted_run["full"], planted_run["stage1"]
    X = planted_run["valid"].features
    prefix = list(full.scores_by_pair_rank(X))
    assert len(prefix) == full.num_interactions + 1
    np.testing.assert_array_equal(prefix[0], stage1.predict_batch(X))
    np.testing.assert_array_equal(prefix[-1], full.predict_batch(X))


def _pair_tree(i, j, value):
    return make_tree((i, 0.5, 0.0, (j, 0.5, 0.0, value)), "pair", (i, j))


def test_validate_requires_trees_grouped_by_pair_in_k_set_order():
    main = [make_tree((f, 0.5, -0.25, 0.25), "single", (f,)) for f in (1, 2, 3)]
    a1, a2, b1 = _pair_tree(1, 2, 0.5), _pair_tree(1, 2, 1.0), _pair_tree(1, 3, 2.0)
    good = IlmartModel(num_features=3, main_trees=main, main_features=[1, 2, 3],
                       interaction_trees=[a1, a2, b1], interaction_pairs=[(1, 2), (1, 3)])
    good.validate()
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert [s.tolist() for s in good.scores_by_pair_rank(X)] == [
        [-0.75, 0.25, 0.75], [-0.75, 1.75, 2.25], [-0.75, 1.75, 4.25]]
    for trees, pairs in (([a1, b1, a2], [(1, 2), (1, 3)]),    # pair (1, 2) split in two runs
                         ([a1, a2, b1], [(1, 3), (1, 2)])):   # runs out of K_set order
        with pytest.raises(ModelError, match="grouped by pair in K_set order"):
            replace(good, interaction_trees=trees, interaction_pairs=pairs).validate()


def test_failed_save_leaves_the_old_file(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    before = path.read_bytes()
    broken = replace(planted_run["stage1"], dataset_digest=object())  # not JSON-serialisable
    with pytest.raises(TypeError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]
