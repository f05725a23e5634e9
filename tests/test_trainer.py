import copy
import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ilmart import (
    ConstraintRegime,
    Dataset,
    IlmartModel,
    ModelError,
    TrainConfig,
    load_model,
    mean_ndcg,
    save_model,
    train_ilmart,
)
from ilmart.interpret import distill_shapes
from ilmart.model import tables
from ilmart.trainer import (
    _Booster,
    select_interactions,
    train_interaction_effects,
    train_main_effects,
)

from oracles import oracle_effect_table, tree_sum
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
    booster = _Booster(train, valid, cfg)
    stage1 = train_main_effects(booster)
    after_stage1 = copy.deepcopy(booster)
    pairs = select_interactions(stage1, booster)
    full = train_interaction_effects(stage1, pairs, booster)
    return dict(train=train, valid=valid, cfg=cfg, after_stage1=after_stage1,
                stage1=stage1, pairs=pairs, full=full)


def booster_after_stage1(planted_run):
    """A booster where the fixture's stage 1 left it, for stages 2 and 3 to continue."""
    return copy.deepcopy(planted_run["after_stage1"])


def stages_1_and_2(train, valid, cfg):
    """The stage-1 model and the pairs stage 2 nominates on top of it."""
    booster = _Booster(train, valid, cfg)
    model = train_main_effects(booster)
    return model, select_interactions(model, booster)


def test_single_feature_dataset_uses_only_that_feature():
    train = single_signal(60, 15, seed=1, num_features=1)
    valid = single_signal(20, 15, seed=2, num_features=1)
    model = train_main_effects(_Booster(train, valid, small_cfg()))
    assert model.main_features == [1]
    assert all(t.constraint_features == (1,) for t in model.main_trees)
    assert model.p == 1


def test_signal_feature_dominates_leaf_mass():
    # Oracle: labels are monotone in feature 1, everything else is noise, so
    # feature 1 must be picked up and carry the largest total |leaf| mass.
    train = single_signal(150, 20, seed=3)
    valid = single_signal(50, 20, seed=4)
    model = train_main_effects(_Booster(train, valid, small_cfg()))
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
    model, pairs = stages_1_and_2(train, valid, small_cfg())
    assert model.p == 1 and pairs == []


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
    model, pairs = stages_1_and_2(train, valid, small_cfg())
    assert model.p == 2
    assert pairs in ([], [(1, 2)])


def test_selection_does_not_touch_the_model(planted_run):
    model = planted_run["stage1"]
    before = copy.deepcopy(model)
    select_interactions(model, booster_after_stage1(planted_run))
    assert model.main_trees == before.main_trees
    assert all(np.array_equal(a.values, b.values) for a, b in zip(model.shapes, before.shapes))
    assert model.interaction_trees == () and model.surfaces == ()


def test_interaction_trees_stay_inside_selected_pairs(planted_run):
    full = planted_run["full"]
    assert full.interaction_trees, "stage 3 kept no trees"
    pair_set = set(full.interaction_pairs)
    for tree in full.interaction_trees:
        assert tuple(tree.constraint_features) in pair_set
        assert set(tree.used_features) <= set(tree.constraint_features)
    assert set(full.interaction_pairs) <= set(planted_run["pairs"])


def test_stage_separation(planted_run):
    # Dropping the interaction surfaces reproduces stage-1 predictions exactly.
    full, stage1 = planted_run["full"], planted_run["stage1"]
    X = planted_run["valid"].features
    np.testing.assert_array_equal(replace(full, surfaces=[]).predict_batch(X),
                                  stage1.predict_batch(X))


def test_discovery_trees_leave_no_trace(planted_run):
    # Stage 3 starts from stage-1 scores, so the final model's main trees and
    # shapes are the stage-1 ones themselves, object for object.
    assert planted_run["full"].main_trees is planted_run["stage1"].main_trees
    assert planted_run["full"].shapes is planted_run["stage1"].shapes


def test_rollback_matches_best_curve_point(planted_run):
    full = planted_run["full"]
    cfg = planted_run["cfg"]
    stage3 = [v for s, _, v in full.training_log if s == 3]
    assert stage3, "stage 3 never logged a round"
    got = mean_ndcg(full.predict_batch(planted_run["valid"].features),
                    planted_run["valid"], (cfg.ndcg_cutoff,)).mean[cfg.ndcg_cutoff]
    assert got == pytest.approx(max(stage3), abs=1e-12)
    assert got == pytest.approx(full.best_valid_ndcg, abs=1e-12)


def test_stage1_rollback_matches_best_curve_point(planted_run):
    stage1 = planted_run["stage1"]
    cfg = planted_run["cfg"]
    curve = [v for s, _, v in stage1.training_log if s == 1]
    got = mean_ndcg(stage1.predict_batch(planted_run["valid"].features),
                    planted_run["valid"], (cfg.ndcg_cutoff,)).mean[cfg.ndcg_cutoff]
    assert got == pytest.approx(max(curve), abs=1e-12)


def test_training_log_has_all_three_stages(planted_run):
    stages = {s for s, _, _ in planted_run["full"].training_log}
    assert stages == {1, 2, 3}


def test_empty_model_predicts_zero():
    train = single_signal(30, 10, seed=9)
    model = train_main_effects(_Booster(
        train,
        single_signal(10, 10, seed=10),
        small_cfg(max_rounds_per_stage=1, early_stopping_rounds=1),
    ))
    probe = np.zeros((1, 6))
    if not model.main_trees:  # nothing improved in one round
        assert model.predict_batch(probe).tolist() == [0.0]
    got = model.predict_batch(probe)[0]
    assert got == sum(t.predict_batch(probe)[0] for t in model.main_trees)


def test_learning_rate_zero_rejected():
    with pytest.raises(ModelError, match="learning_rate"):
        small_cfg(learning_rate=0.0).validate()


def test_config_is_frozen_and_checked_whenever_made():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().learning_rate = 0.0
    for make in (lambda: TrainConfig(learning_rate=0.0),
                 lambda: replace(TrainConfig(), learning_rate=0.0),
                 lambda: TrainConfig.from_json({"learning_rate": 0})):
        with pytest.raises(ModelError) as info:
            make()
        assert str(info.value) == "invalid config: learning_rate must be > 0"


def test_stage3_overrides_edited_in_place_are_refused_on_save(tmp_path):
    # The overrides are a dict, which a frozen config still lets a caller edit.
    model = IlmartModel(3, config=small_cfg(stage3_overrides={}))
    model.config.stage3_overrides["max_bins"] = 4
    with pytest.raises(ModelError, match="max_bins has no effect in stage 3"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("config, message", [
    # Every hessian is finite, but their sum is not.
    (dict(sigma=1e154), "stage 1, round 1: training diverged (lambdas are not finite)"),
    (dict(learning_rate=1e308, sigma=0.1, max_leaf_output=0.0),
     "stage 1, round 1: training diverged (leaf values are not finite)"),
])
def test_diverging_training_is_refused(recwarn, config, message):
    train = planted_interaction(30, 10, seed=1)
    valid = planted_interaction(10, 10, seed=2)
    with pytest.raises(ModelError) as info:
        train_ilmart(train, valid, TrainConfig(max_interactions=0, **config))
    assert str(info.value) == f"{message}; lower learning_rate"
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_a_round_refuses_validation_scores_that_overflow():
    import ilmart.trainer as trainer

    train = planted_interaction(30, 10, seed=1)
    valid = planted_interaction(10, 10, seed=2)
    booster = trainer._Booster(train, valid, TrainConfig(learning_rate=1e308))
    booster.scores_valid[:] = 1.7e308
    with pytest.raises(ModelError) as info:
        booster.round(ConstraintRegime("single", range(1, train.num_features + 1)))
    assert str(info.value) == ("stage 1, round 1: training diverged (scores are not finite); "
                               "lower learning_rate")


@pytest.mark.parametrize("field, value, kind", [
    ("lambdarank_norm", "false", "true or false"),
    ("lambdarank_norm", 1, "true or false"),
    ("num_leaves", 8.5, "an integer"),
    ("num_leaves", True, "an integer"),
    ("max_bins", 16.5, "an integer"),
    ("early_stopping_rounds", 2.5, "an integer"),
    ("learning_rate", True, "a number"),
    ("lambda_l2", "0", "a number"),
    ("learning_rate", math.inf, "finite"),
    ("sigma", math.inf, "finite"),
    ("lambda_l2", math.inf, "finite"),
    ("min_gain", math.inf, "finite"),
    ("min_child_hessian", math.inf, "finite"),
    ("max_leaf_output", math.inf, "finite"),
    ("learning_rate", -math.inf, "finite"),
    ("sigma", np.float32(math.inf), "finite"),
    ("min_gain", math.nan, "finite"),
    ("learning_rate", 10**400, "finite"),       # an integer beyond float64's range
    ("max_leaf_output", -10**309, "finite"),
    ("truncation", 2**63, "a 64-bit integer"),
    ("ndcg_cutoff", 10**400, "a 64-bit integer"),
    ("min_data_in_leaf", -2**63 - 1, "a 64-bit integer"),
])
def test_wrong_type_config_value_rejected_by_validate(field, value, kind):
    with pytest.raises(ModelError) as info:
        small_cfg(**{field: value}).validate()
    assert str(info.value) == f"invalid config: {field} must be {kind}, got {value!r}"


def test_numpy_scalar_config_values_pass_validate():
    small_cfg(num_leaves=np.int64(8), learning_rate=np.float32(0.1), lambda_l2=np.int32(0),
              max_bins=np.uint16(32)).validate()


@pytest.mark.parametrize("overrides, message", [
    ({"bogus": 1}, "unknown stage3_overrides key"),
    ({"stage3_overrides": {}}, "unknown stage3_overrides key"),
    ({"num_leaves": 1}, "num_leaves must be >= 2 (in stage3_overrides)"),
    ([["num_leaves", 8]], "stage3_overrides must be an object"),
    ({"max_bins": 4}, "max_bins has no effect in stage 3 (in stage3_overrides)"),
    ({"max_interactions": 1}, "max_interactions has no effect in stage 3 (in stage3_overrides)"),
    ({"stage2_max_rounds": 1},
     "stage2_max_rounds has no effect in stage 3 (in stage3_overrides)"),
    ({"num_leaves": 4.0}, "num_leaves must be an integer, got 4.0 (in stage3_overrides)"),
    ({"max_leaf_output": math.inf},
     "max_leaf_output must be finite, got inf (in stage3_overrides)"),
])
def test_bad_stage3_overrides_rejected_by_validate(overrides, message):
    with pytest.raises(ModelError) as info:
        small_cfg(stage3_overrides=overrides).validate()
    assert message in str(info.value)


@pytest.mark.parametrize("overrides, leaves", [
    ({}, 8), ({"num_leaves": 4}, 4),
    ({"early_stopping_rounds": 6, "max_rounds_per_stage": 6}, 8),
])
def test_good_stage3_overrides_pass_validate(overrides, leaves):
    cfg = small_cfg(stage3_overrides=overrides)
    cfg.validate()
    assert cfg.for_stage3().num_leaves == leaves


def test_stage3_requires_pairs(planted_run):
    with pytest.raises(ModelError, match="pair"):
        train_interaction_effects(planted_run["stage1"], [], booster_after_stage1(planted_run))


def test_stage3_rejects_duplicate_pairs(planted_run):
    i, j = planted_run["stage1"].main_features[:2]
    # the same pair twice, once in each order
    with pytest.raises(ModelError, match="duplicate pairs"):
        train_interaction_effects(planted_run["stage1"], [(i, j), (j, i)],
                                  booster_after_stage1(planted_run))


def test_stage3_rejects_non_hereditary_pairs(planted_run):
    bad = (97, 98)
    with pytest.raises(ModelError, match="heredity"):
        train_interaction_effects(planted_run["stage1"], [bad], booster_after_stage1(planted_run))


def test_stage3_overrides_reach_stage_3():
    train = planted_interaction(100, 25, seed=64)
    valid = planted_interaction(40, 25, seed=65)
    cfg = small_cfg(stage3_overrides={"num_leaves": 3, "max_leaf_output": 0.5})
    model = train_ilmart(train, valid, cfg)
    assert model.interaction_trees, "stage 3 kept no trees"
    for tree in model.interaction_trees:
        assert len(tree.leaf_value) <= 3
        assert max(abs(v) for v in tree.leaf_value) <= 0.5 * cfg.learning_rate
    # stage 1 keeps the top-level limits
    assert max(len(t.leaf_value) for t in model.main_trees) > 3
    assert max(abs(v) for t in model.main_trees for v in t.leaf_value) > 0.5 * cfg.learning_rate


def _count_builds(monkeypatch):
    """Counts of the lambda plans and NDCG evaluators the trainer builds."""
    import ilmart.trainer as trainer

    counts = {"plan": 0, "evaluator": 0}

    def counting(key, cls):
        def build(*args):
            counts[key] += 1
            return cls(*args)
        return build

    monkeypatch.setattr(trainer, "LambdaPlan", counting("plan", trainer.LambdaPlan))
    monkeypatch.setattr(trainer, "QueryEvaluator", counting("evaluator", trainer.QueryEvaluator))
    return counts


def test_a_run_builds_one_plan_and_one_evaluator(monkeypatch):
    counts = _count_builds(monkeypatch)
    model = train_ilmart(planted_interaction(100, 25, seed=64), planted_interaction(40, 25, seed=65),
                         small_cfg())
    assert model.interaction_trees, "stage 3 kept no trees"
    assert counts == {"plan": 1, "evaluator": 1}


def test_stage_3_builds_its_own_plan_and_evaluator_when_overridden(monkeypatch):
    import ilmart.trainer as trainer

    counts = _count_builds(monkeypatch)
    rounds = []     # [stage, truncation of the plan its lambdas used] per round
    boost_round, lambdas = trainer._Booster.round, trainer.compute_lambdas

    def recording_round(booster, regime):
        rounds.append([booster.stage])
        return boost_round(booster, regime)

    def recording_lambdas(plan, *args):
        rounds[-1].append(plan.truncation)
        return lambdas(plan, *args)

    monkeypatch.setattr(trainer._Booster, "round", recording_round)
    monkeypatch.setattr(trainer, "compute_lambdas", recording_lambdas)
    train = planted_interaction(100, 25, seed=64)
    valid = planted_interaction(40, 25, seed=65)
    cfg = small_cfg(stage3_overrides={"truncation": 3, "ndcg_cutoff": 5})
    model = train_ilmart(train, valid, cfg)
    assert model.interaction_trees, "stage 3 kept no trees"
    assert counts == {"plan": 2, "evaluator": 2}
    assert {stage for stage, _ in rounds} == {1, 2, 3}
    assert all(t == (3 if stage == 3 else cfg.truncation) for stage, t in rounds)
    # stage 3's rollback NDCG is at its own cutoff
    got = mean_ndcg(tree_sum(model, valid.features), valid, (5,)).mean[5]
    assert model.best_valid_ndcg == got
    assert model.config == cfg


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
    for got, want in zip(back.shapes + back.surfaces, full.shapes + full.surfaces):
        assert all(np.array_equal(a, b) for a, b in zip(got.axes, want.axes))
        assert np.array_equal(got.values, want.values)
    assert back.main_trees == back.interaction_trees == ()     # trees are not saved
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_stage1_model_round_trips_with_no_interactions(tmp_path, planted_run):
    path = tmp_path / "stage1.json"
    save_model(planted_run["stage1"], path)
    back = load_model(path)
    assert back.interaction_pairs == []
    assert back.interaction_trees == ()
    X = planted_run["valid"].features[:50]
    np.testing.assert_array_equal(back.predict_batch(X),
                                  planted_run["stage1"].predict_batch(X))


@pytest.mark.parametrize("change, message", [
    ({"learning_rate": -1}, "learning_rate must be > 0"),
    ({"stage3_overrides": {"bogus": 1}}, "unknown stage3_overrides key(s) ['bogus']"),
    ({"stage3_overrides": {"num_leaves": 1}}, "num_leaves must be >= 2 (in stage3_overrides)"),
    ({"num_leaves": 8.5}, "num_leaves must be an integer, got 8.5"),
    ({"lambdarank_norm": "false"}, "lambdarank_norm must be true or false, got 'false'"),
    ({"sigma": math.inf}, "sigma must be finite, got inf"),
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


def test_a_loaded_stage_1_model_continues_like_the_trained_one(tmp_path, planted_run):
    # Stages 2 and 3 continue the booster's scores, so the model's tables
    # are all they need of it.
    booster = _Booster(planted_run["train"], planted_run["valid"], planted_run["cfg"])
    path = tmp_path / "stage1.json"
    save_model(train_main_effects(booster), path)
    loaded = load_model(path)
    assert loaded.main_trees == loaded.interaction_trees == ()
    pairs = select_interactions(loaded, booster)
    assert pairs == planted_run["pairs"]
    full = train_interaction_effects(loaded, pairs, booster)
    want = planted_run["full"]
    assert full.interaction_trees == want.interaction_trees
    assert full.training_log == want.training_log
    for got, exp in zip(full.surfaces, want.surfaces):
        assert got.pair == exp.pair and np.array_equal(got.values, exp.values)


def test_selection_on_a_model_without_main_effects_is_empty(planted_run):
    empty = IlmartModel.from_trees(planted_run["train"].num_features, [])
    assert select_interactions(empty, booster_after_stage1(planted_run)) == []


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
    with np.errstate(over="ignore", invalid="ignore"):     # sums of +-1.7e308 leaves
        # The box-painting oracle's tables, in the model's order; the model
        # must refuse non-finite values, and tables whose scores can overflow.
        sums = [oracle_effect_table([t for t in main_trees + pair_trees
                                     if t.constraint_features == tag], tag)[1]
                for tag in dict.fromkeys(tuple(t.constraint_features)
                                         for t in main_trees + pair_trees)]
        bound = 0.0
        for values in sums:
            bound += np.abs(values).max()
        finite = all(np.isfinite(v).all() for v in sums)
        if not (finite and np.isfinite(bound)):
            refusal = "scores can overflow" if finite else "values must be finite"
            with pytest.raises(ModelError, match=refusal):
                IlmartModel.from_trees(width, main_trees, pair_trees)
            return
        model = IlmartModel.from_trees(width, main_trees, pair_trees)
    assert model.main_features == main and model.interaction_pairs == pairs
    inputs = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.5]))
    X = np.array(data.draw(st.lists(st.lists(inputs, min_size=width, max_size=width),
                                    min_size=1, max_size=8)), dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        back = load_model(path)
    for got, want in zip(back.shapes + back.surfaces, model.shapes + model.surfaces):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.axes, want.axes))
        assert got.values.tobytes() == want.values.tobytes()
    assert back.predict_batch(X).tobytes() == model.predict_batch(X).tobytes()


def test_5000_deep_chain_saves_and_loads_bit_identically(tmp_path):
    spec = 0.0
    for k in range(5000):
        spec = (1, float(k), 1.0, spec)
    model = IlmartModel.from_trees(1, [make_tree(spec, "single", (1,))])
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    X = np.arange(-1.0, 5001.0, 0.5).reshape(-1, 1)
    assert back.predict_batch(X).tobytes() == model.predict_batch(X).tobytes()
    assert back.predict_batch(X).tobytes() == model.main_trees[0].predict_batch(X).tobytes()
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


def test_model_file_with_a_too_long_integer_is_a_model_error(tmp_path):
    # json refuses integers of more than 4300 digits with a plain ValueError
    path = tmp_path / "model.json"
    path.write_text('{"schema_version": 1' + "0" * 5000 + "}")
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: not a JSON model")


def test_tampered_model_rejected(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["full"], path)
    data = json.loads(path.read_text())
    # drop the main effect of a pair's first feature: the pair loses heredity
    first = data["pair_effects"][0]["pair"][0]
    data["main_effects"] = [e for e in data["main_effects"] if e["feature"] != first]
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="constraint violation"):
        load_model(path)


@pytest.mark.parametrize("damage, message", [
    (lambda d: d.update(J=[9]), "unknown model file key(s) ['J']"),
    (lambda d: d.update(main_trees=[]), "unknown model file key(s) ['main_trees']"),
    (lambda d: d["metadata"].update(extra=1), "unknown metadata key(s) ['extra']"),
    (lambda d: d["main_effects"][0].update(trees=[]), "unknown main effect key(s) ['trees']"),
    (lambda d: d["pair_effects"][0].update(trees=[]), "unknown pair effect key(s) ['trees']"),
    # a file that still carries what earlier schema versions stored
    (lambda d: (d.update(J=[9], main_trees=[]), d["metadata"].update(extra=1),
                d["main_effects"][0].update(trees=[])),
     "unknown model file key(s) ['J', 'main_trees']"),
    # the message a --config file with this key gets
    (lambda d: d["config"].update(bogus=1), "unknown config key(s) ['bogus']"),
], ids=["J", "main_trees", "metadata", "main_effect", "pair_effect", "stale_v3_keys", "config"])
def test_load_model_refuses_unknown_keys(tmp_path, planted_run, damage, message):
    path = tmp_path / "model.json"
    save_model(planted_run["full"], path)
    data = json.loads(path.read_text())
    damage(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("entry", [["1", True, "0.5"], [1, True, 0.5], [1.0, 2, 0.5],
                                   [1, 2, "0.5"], [1, 2], [1, 2, 0.5, 0], [1, 2, float("inf")],
                                   [1, 2, None]])
def test_load_model_refuses_a_malformed_log_entry(tmp_path, planted_run, entry):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["training_log"][0] = entry
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="training_log"):
        load_model(path)


@pytest.mark.parametrize("value", ["high", True, [0.5], float("nan")])
def test_load_model_refuses_a_best_ndcg_that_is_not_a_number(tmp_path, planted_run, value):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["metadata"]["best_valid_ndcg"] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="best_valid_ndcg"):
        load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("num_features", "10", "num_features must be a non-negative integer, got '10'"),
    ("num_features", 10.7, "num_features must be a non-negative integer, got 10.7"),
    ("num_features", True, "num_features must be a non-negative integer, got True"),
    ("dataset_digest", 12345, "dataset_digest must be a string, got 12345"),
    ("dataset_digest", None, "dataset_digest must be a string, got None"),
])
def test_load_model_refuses_malformed_metadata(tmp_path, planted_run, key, value, message):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["metadata"][key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


def test_schema_version_checked(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="schema version") as err:
        load_model(path)
    assert str(err.value) == f"{path}: unsupported model schema version 999, expected 4"


def test_stage_1_scores_carry_into_stages_2_and_3(planted_run):
    train, valid, cfg = (planted_run[k] for k in ("train", "valid", "cfg"))
    booster = _Booster(train, valid, cfg)
    stage1 = train_main_effects(booster)
    kept = (booster.scores_train.copy(), booster.scores_valid.copy())
    for scores, ds in zip(kept, (train, valid)):
        assert np.array_equal(scores, tree_sum(stage1, ds.features))
        np.testing.assert_allclose(scores, stage1.predict_batch(ds.features), rtol=0, atol=1e-12)
    pairs = select_interactions(stage1, booster)
    assert pairs == planted_run["pairs"]
    # stage 2 rolls back to where stage 1 left the scores, bit for bit
    assert np.array_equal(booster.scores_train, kept[0])
    assert np.array_equal(booster.scores_valid, kept[1])
    full = train_interaction_effects(stage1, pairs, booster)
    assert full.interaction_trees == planted_run["full"].interaction_trees


def test_carried_scores_equal_model_scores_after_every_stage(monkeypatch):
    """Each boosting stage's best-round scores, built from leaf values of
    the training partition and tree outputs on validation rows, equal the
    sums of the model's trees bit for bit, and its table sums to 1e-12."""
    import ilmart.trainer as trainer

    calls = []
    boost = trainer._boost_stage

    def recording(booster, regime):
        trees, best = boost(booster, regime)
        # the scores are rolled back to the best round
        calls.append((list(trees), booster.scores_train.copy(), booster.scores_valid.copy()))
        return trees, best

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
    fitted = sum(len(trees) for trees, _, _ in calls)
    assert fitted == len(model.main_trees) + len(model.interaction_trees)
    for ds, scores in zip((train, valid), running):
        assert np.array_equal(scores, tree_sum(model, ds.features))
        np.testing.assert_allclose(scores, model.predict_batch(ds.features), rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("interactions, warnings", [(5, 1), (0, 0)])
def test_stage_2_alone_decides_whether_it_runs(caplog, interactions, warnings):
    def one_varying_feature(seed):
        ds = single_signal(60, 15, seed=seed, num_features=3)
        X = ds.features.copy()
        X[:, 1:] = 0.5
        return Dataset.from_rows(ds.labels, ds.qids, X)

    with caplog.at_level("INFO", logger="ilmart"):
        model = train_ilmart(one_varying_feature(7), one_varying_feature(8),
                             small_cfg(max_interactions=interactions))
    assert model.main_features == [1] and model.surfaces == ()
    skipped = [r for r in caplog.records if r.getMessage().startswith("stage 2 skipped")]
    assert len(skipped) == warnings
    assert [r for r in caplog.records if r.levelname == "WARNING"] == skipped
    assert not any(r.getMessage().startswith("stage 2:") for r in caplog.records)


def test_train_ilmart_with_interactions_disabled():
    train = planted_interaction(60, 15, seed=31)
    valid = planted_interaction(20, 15, seed=32)
    model = train_ilmart(train, valid, small_cfg(max_interactions=0))
    assert model.interaction_trees == ()
    assert model.interaction_pairs == []


def test_missing_validation_set_rejected():
    train = single_signal(30, 10, seed=1)
    with pytest.raises(ModelError, match="a validation dataset is required"):
        train_ilmart(train, None, small_cfg())


def test_mismatched_dimensions_rejected():
    train = single_signal(30, 10, seed=1, num_features=4)
    valid = single_signal(10, 10, seed=2, num_features=5)
    with pytest.raises(ModelError, match="number of features"):
        train_ilmart(train, valid, small_cfg())


def test_predict_requires_enough_features(planted_run):
    with pytest.raises(ModelError, match="feature"):
        planted_run["full"].predict_batch(np.zeros((1, 2)))


def test_heredity_validated_on_trained_model(planted_run):
    full = planted_run["full"]
    replace(full)               # made again, the trained model passes the construction check
    j = set(full.main_features)
    for i, k in full.interaction_pairs:
        assert i in j and k in j


def test_models_and_their_tables_are_frozen(tmp_path, planted_run):
    full = planted_run["full"]
    path = tmp_path / "model.json"
    save_model(full, path)
    X = planted_run["valid"].features
    models = []
    for source in (full, load_model(path)):
        want = source.predict_batch(X)      # builds the source's scoring index
        copies = [copy.copy(source), copy.deepcopy(source), pickle.loads(pickle.dumps(source))]
        for model in copies:                # rebuilt through the constructor
            assert "_scoring_index" not in vars(model)
            assert model.predict_batch(X).tobytes() == want.tobytes()
            for effect, term in model.terms(X):
                assert term.tobytes() == effect.lookup_batch(
                    *(X[:, f - 1] for f in effect.features)).tobytes()
        models += [source, *copies]
    for model in models:
        for effect in model.shapes + model.surfaces:
            for array in (*effect.axes, effect.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                effect.values = np.zeros_like(effect.values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.surfaces = ()


def test_replace_refuses_a_duplicate_or_non_hereditary_pair(planted_run):
    full = planted_run["full"]
    surface = full.surfaces[0]
    with pytest.raises(ModelError, match="constraint violation: duplicate pair"):
        replace(full, surfaces=[surface, surface])
    i = full.main_features[0]
    outside = next(f for f in range(1, full.num_features + 1) if f not in full.main_features)
    pair = tuple(sorted((i, outside)))
    (stray,) = tables([make_tree((i, 0.5, 0.0, (outside, 0.5, 0.0, 1.0)), "pair", pair)])
    with pytest.raises(ModelError, match=re.escape(f"pair {pair} breaks the heredity")):
        replace(full, surfaces=[*full.surfaces, stray])


def test_scores_by_pair_rank_runs_from_stage1_to_full(planted_run):
    full, stage1 = planted_run["full"], planted_run["stage1"]
    X = planted_run["valid"].features
    prefix = list(full.scores_by_pair_rank(X))
    assert len(prefix) == full.num_interactions + 1
    np.testing.assert_array_equal(prefix[0], stage1.predict_batch(X))
    np.testing.assert_array_equal(prefix[-1], full.predict_batch(X))


def _pair_tree(i, j, value):
    return make_tree((i, 0.5, 0.0, (j, 0.5, 0.0, value)), "pair", (i, j))


def test_scores_by_pair_rank_adds_surfaces_in_k_set_order():
    main = [make_tree((f, 0.5, -0.25, 0.25), "single", (f,)) for f in (1, 2, 3)]
    a1, a2, b1 = _pair_tree(1, 2, 0.5), _pair_tree(1, 2, 1.0), _pair_tree(1, 3, 2.0)
    model = IlmartModel.from_trees(3, main, [a1, b1, a2])
    assert model.interaction_pairs == [(1, 2), (1, 3)]
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert [s.tolist() for s in model.scores_by_pair_rank(X)] == [
        [-0.75, 0.25, 0.75], [-0.75, 1.75, 2.25], [-0.75, 1.75, 4.25]]


@pytest.mark.parametrize("features", [np.zeros(3), np.float64(0.0), np.zeros((1, 3, 1))],
                         ids=["row", "scalar", "3-d"])
def test_scoring_refuses_input_that_is_not_a_matrix(features):
    main = [make_tree((f, 0.5, -0.25, 0.25), "single", (f,)) for f in (1, 2, 3)]
    model = IlmartModel.from_trees(3, main, [_pair_tree(1, 2, 0.5)])
    match = r"shape \(rows, features\), got shape \("
    with pytest.raises(ModelError, match=match):
        model.predict_batch(features)
    with pytest.raises(ModelError, match=match):
        next(model.scores_by_pair_rank(features))
    with pytest.raises(ModelError, match=match):
        next(model.terms(features))


def test_failed_save_leaves_the_old_file(tmp_path, planted_run):
    path = tmp_path / "model.json"
    save_model(planted_run["stage1"], path)
    before = path.read_bytes()
    broken = replace(planted_run["stage1"], dataset_digest=object())  # not JSON-serialisable
    with pytest.raises(TypeError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]
