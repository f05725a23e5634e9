"""Acceptance suite: one test per criterion, one printed PASS line each.

Criteria 1-7 are self-contained (synthetic data only). Criterion 8 is the
long public-benchmark reproduction and only runs with `--extended` plus an
ILMART_WEB30K_DIR environment variable pointing at the Fold1 text files.
"""
import itertools
import math
import os

import numpy as np
import pytest

from ilmart import (
    Dataset,
    TrainConfig,
    compute_lambdas,
    fisher_randomization,
    load_model,
    load_svmlight,
    mean_ndcg,
    save_model,
    train_ilmart,
)
from ilmart.interpret import distill_shapes
from ilmart.lambdas import LambdaPlan
from ilmart.trainer import (_Booster, select_interactions, train_interaction_effects,
                            train_main_effects)

from oracles import additive_score, lambda_oracle, tree_sum
from synthdata import letor_like, one_query, planted_interaction, random_queries, single_signal

SEEDS = (0, 1, 2, 3, 4)


def acceptance_config():
    return TrainConfig(
        num_leaves=32,
        learning_rate=0.1,
        early_stopping_rounds=30,
        max_rounds_per_stage=400,
        stage2_max_rounds=150,
        max_interactions=6,
        min_data_in_leaf=20,
        max_leaf_output=2.0,
        stage3_overrides={"early_stopping_rounds": 50},
    )


def _train_planted(seed):
    train = planted_interaction(500, 40, seed=1000 + seed)
    valid = planted_interaction(100, 40, seed=2000 + seed)
    test = planted_interaction(100, 40, seed=3000 + seed)
    cfg = acceptance_config()
    booster = _Booster(train, valid, cfg)
    stage1 = train_main_effects(booster)
    pairs = select_interactions(stage1, booster)
    full = stage1
    if pairs:
        full = train_interaction_effects(stage1, pairs, booster)
    return dict(stage1=stage1, full=full, pairs=pairs, train=train, valid=valid, test=test)


@pytest.fixture(scope="module")
def planted_runs():
    return {seed: _train_planted(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def model_zoo(planted_runs):
    """Five trained models over different data regimes (criteria 1 and 2)."""
    zoo = [planted_runs[s]["full"] for s in SEEDS[:3]]

    cfg = TrainConfig(num_leaves=16, early_stopping_rounds=10, max_rounds_per_stage=60,
                      stage2_max_rounds=40, max_interactions=4, min_data_in_leaf=10,
                      max_bins=64, max_leaf_output=2.0)
    letor_train = letor_like(150, 20, seed=5)
    letor_valid = letor_like(50, 20, seed=6)
    zoo.append(train_ilmart(letor_train, letor_valid, cfg))

    mono_train = single_signal(100, 15, seed=7)
    mono_valid = single_signal(30, 15, seed=8)
    zoo.append(train_ilmart(mono_train, mono_valid, cfg))
    return zoo


def test_full_models_log_all_three_stages(planted_runs):
    # The stages share one booster and its log, so stage 2's rounds cannot
    # drop out of a full model's log.
    with_pairs = [run["full"] for run in planted_runs.values() if run["pairs"]]
    assert with_pairs
    for full in with_pairs:
        assert {stage for stage, _, _ in full.training_log} == {1, 2, 3}


def test_criterion_1_gam_exactness(model_zoo):
    # The oracle is independent of the tables: the trees they were summed from.
    rng = np.random.default_rng(99)
    worst = 0.0
    for model in model_zoo:
        shapes, surfaces = distill_shapes(model)
        X = rng.random((1000, model.num_features)) * 2.0 - 0.5
        direct = tree_sum(model, X)
        rebuilt = np.array([additive_score(shapes, surfaces, x) for x in X])
        for scores in (rebuilt, model.predict_batch(X)):
            worst = max(worst, float(np.max(np.abs(scores - direct))))
    assert worst <= 1e-9
    print(f"\n[PASS] criterion 1: GAM exactness, max |predict - sum of lookups| = {worst:.2e}")


def test_criterion_2_constraint_soundness(model_zoo, tmp_path):
    for idx, model in enumerate(model_zoo):
        for tree in model.main_trees:
            assert tree.constraint_kind == "single"
            assert len(set(tree.used_features)) == 1
            assert tree.used_features[0] in model.main_features
        for tree in model.interaction_trees:
            assert tree.constraint_kind == "pair"
            assert set(tree.used_features) <= set(tree.constraint_features)
            assert tuple(tree.constraint_features) in set(model.interaction_pairs)
        assert all(t.constraint_kind != "discovery"
                   for t in model.main_trees + model.interaction_trees)
        path = tmp_path / f"model_{idx}.json"
        save_model(model, path)
        loaded = load_model(path)  # load_model re-checks every invariant
        assert loaded.main_features == model.main_features
        assert loaded.interaction_pairs == model.interaction_pairs
        j = set(loaded.main_features)
        for pair in loaded.interaction_pairs:
            assert set(pair) <= j and pair[0] < pair[1]
    print(f"\n[PASS] criterion 2: constraint soundness on {len(model_zoo)} serialized models")


def test_criterion_3_ndcg_oracle_equivalence():
    def oracle(labels, scores, k):
        def dcg(order):
            return sum((2 ** labels[d] - 1) / math.log2(r + 2)
                       for r, d in enumerate(order[:k]))
        ideal = max(dcg(p) for p in itertools.permutations(range(len(labels))))
        if ideal == 0:
            return 1.0
        order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
        return dcg(order) / ideal

    rng = np.random.default_rng(42)
    checked = zero_label_queries = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        labels = rng.integers(0, 5, n).tolist()
        scores = rng.normal(size=n).tolist()
        k = int(rng.integers(1, 11))
        got = float(mean_ndcg(scores, one_query(labels), (k,)).per_query[k][0])
        assert abs(got - oracle(labels, scores, k)) <= 1e-12
        if max(labels) == 0:
            assert got == 1.0
            zero_label_queries += 1
        checked += 1
    assert checked == 200 and zero_label_queries > 0
    print(f"\n[PASS] criterion 3: NDCG matches the factorial oracle on {checked} queries "
          f"({zero_label_queries} all-zero-label queries scored exactly 1.0)")


def test_criterion_4_lambda_correctness():
    # zero-sum per query
    ds = random_queries(60, 8, seed=13)
    rng = np.random.default_rng(3)
    scores = rng.normal(size=ds.num_rows)
    gradient, _ = compute_lambdas(LambdaPlan(ds, 10), scores, sigma=1.0)
    worst_sum = max(abs(gradient[rows].sum()) for rows in ds.query_groups)
    assert worst_sum <= 1e-10

    # lambdas equal a loop over all pairs of small queries whose |dZ| are
    # direct swapped-NDCG differences
    worst_delta = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        labels = rng.integers(0, 5, n).tolist()
        s = rng.normal(size=n)
        trunc = int(rng.integers(1, 8))
        query = one_query(labels)
        got = compute_lambdas(LambdaPlan(query, trunc), s, sigma=1.0)
        want = lambda_oracle(query, s, 1.0, trunc, False)
        for g, w in zip(got, want):
            worst_delta = max(worst_delta, float(np.abs(g - w).max()))
    assert worst_delta <= 1e-12

    # two-document closed form: rho = 1/2, |dZ| = 1 - 1/log2(3), ideal = 1
    two = Dataset.from_rows([1, 0], ["q", "q"], np.zeros((2, 1)))
    gradient, _ = compute_lambdas(LambdaPlan(two, 2), np.zeros(2), sigma=1.0)
    expected = 0.5 * (1.0 - 1.0 / math.log2(3))  # = 0.18453512321427128
    assert abs(gradient[0] - expected) <= 1e-5
    assert abs(gradient[1] + expected) <= 1e-5
    print(f"\n[PASS] criterion 4: lambdas zero-sum (worst {worst_sum:.1e}), match the "
          f"pairwise swap-delta oracle (worst {worst_delta:.1e}), closed form "
          f"+-{expected:.6f} reproduced")


def test_criterion_5_planted_interaction_recovery(planted_runs):
    top3_hits = 0
    for seed in SEEDS:
        run = planted_runs[seed]
        j = set(run["stage1"].main_features)
        assert {1, 2, 4, 5} <= j, f"seed {seed}: J = {sorted(j)} misses a planted feature"
        if (4, 5) in run["pairs"][:3]:
            top3_hits += 1
        nd_stage1 = mean_ndcg(run["stage1"].predict_batch(run["test"].features),
                              run["test"], (10,)).mean[10]
        nd_full = mean_ndcg(run["full"].predict_batch(run["test"].features),
                            run["test"], (10,)).mean[10]
        assert nd_full >= nd_stage1, (
            f"seed {seed}: interactions hurt test NDCG@10 ({nd_full:.4f} < {nd_stage1:.4f})"
        )
    assert top3_hits >= 4, f"pair (4,5) in top-3 for only {top3_hits}/5 seeds"
    print(f"\n[PASS] criterion 5: planted features recovered in 5/5 seeds, "
          f"pair (4,5) in the top-3 selections for {top3_hits}/5 seeds, "
          f"NDCG@10 never degraded by stage 3")


def test_criterion_6_steep_early_gain(planted_runs):
    run = planted_runs[0]
    model, test = run["full"], run["test"]
    assert model.num_interactions >= 1
    curve = [mean_ndcg(scores, test, (10,)).mean[10]
             for scores in model.scores_by_pair_rank(test.features)]
    nd0, nd1, ndk = curve[0], curve[1], curve[-1]
    total_gain = ndk - nd0
    assert total_gain > 0, "no interaction gain to decompose"
    frac = (nd1 - nd0) / total_gain
    assert frac >= 0.5, f"first pair captured only {frac:.0%} of the gain"
    print(f"\n[PASS] criterion 6: first interaction pair captures {frac:.0%} of the "
          f"total NDCG@10 gain ({nd0:.4f} -> {nd1:.4f} -> {ndk:.4f})")


def test_criterion_7_fisher_calibration():
    # exact-enumeration examples
    a = np.array([0.3, 0.5, 0.9, 0.1])
    same = fisher_randomization(a, a.copy())
    assert same.exhaustive and same.p_value == 1.0
    one = fisher_randomization([1.0], [0.0])
    assert one.exhaustive and one.p_value == 1.0 and one.num_permutations == 2
    b = np.linspace(0.2, 0.8, 10)
    shift = fisher_randomization(b + 0.1, b)
    assert shift.exhaustive and abs(shift.p_value - 2 / 1024) <= 1e-15

    # null calibration at alpha = 0.05
    rng = np.random.default_rng(2024)
    trials = 200
    rejections = 0
    for t in range(trials):
        x = rng.random(50)
        y = rng.random(50)
        out = fisher_randomization(x, y, num_permutations=2000, seed=t)
        rejections += out.p_value < 0.05
    rate = rejections / trials
    assert 0.01 <= rate <= 0.10, f"null rejection rate {rate} outside [0.01, 0.10]"
    print(f"\n[PASS] criterion 7: exact enumeration cases reproduced, "
          f"null rejection rate {rate:.3f} in [0.01, 0.10] over {trials} trials")


@pytest.mark.extended
def test_criterion_8_web30k_reproduction(tmp_path):
    data_dir = os.environ.get("ILMART_WEB30K_DIR")
    if not data_dir:
        pytest.skip("set ILMART_WEB30K_DIR to the Fold1 directory")
    train = load_svmlight(os.path.join(data_dir, "train.txt"), num_features=136)
    valid = load_svmlight(os.path.join(data_dir, "vali.txt"), num_features=136)
    test = load_svmlight(os.path.join(data_dir, "test.txt"), num_features=136)

    def fit(num_leaves, lr, interactions):
        cfg = TrainConfig(num_leaves=num_leaves, learning_rate=lr,
                          early_stopping_rounds=100, max_interactions=interactions,
                          lambdarank_norm=True)
        return train_ilmart(train, valid, cfg)

    grid = [(leaves, lr) for leaves in (32, 64, 128) for lr in (0.001, 0.01, 0.1)]

    def best_model(interactions):
        best = None
        for leaves, lr in grid:
            model = fit(leaves, lr, interactions)
            score = mean_ndcg(model.predict_batch(valid.features), valid, (10,)).mean[10]
            if best is None or score > best[0]:
                best = (score, model)
        return best[1]

    stage1 = best_model(0)
    full = best_model(50)

    nd_stage1 = mean_ndcg(stage1.predict_batch(test.features), test, (10,)).mean[10] * 100
    nd_full = mean_ndcg(full.predict_batch(test.features), test, (10,)).mean[10] * 100
    assert abs(nd_stage1 - 47.05) <= 1.0
    assert abs(nd_full - 49.55) <= 1.0
    assert abs(stage1.p - 79) <= 15
    assert full.num_interactions <= 50

    pq_full = mean_ndcg(full.predict_batch(test.features), test, (10,)).per_query[10]
    pq_stage1 = mean_ndcg(stage1.predict_batch(test.features), test, (10,)).per_query[10]
    result = fisher_randomization(pq_full, pq_stage1, num_permutations=10_000, seed=42)
    assert result.p_value < 0.05
    print(f"\n[PASS] criterion 8: NDCG@10 {nd_stage1:.2f}/{nd_full:.2f}, "
          f"p={stage1.p}, K={full.num_interactions}, fisher p={result.p_value:.4g}")
