"""Three-stage boosting that produces an additively interpretable ranker.

Stage 1 (main effects) boosts with single-feature trees; the features that
survive early stopping form the main-effect set J. Stage 2 (interaction
selection) continues boosting with 3-leaf discovery trees restricted to J and
records, in order of first appearance, the distinct feature pairs they use.
Those discovery trees are then thrown away. Stage 3 (interaction effects)
restarts from the stage-1 scores and boosts trees constrained to the selected
pairs. The model is one table per main feature and per pair, each summed
from its trees, and its prediction is the plain sum of their lookups with no
intercept: an exact additive decomposition over features and feature pairs.

A training run is one LambdaMART booster, which the three stages continue
under their constraint regimes. Its round (:meth:`_Booster.round`) is:
lambdas of the training scores, a tree fitted under the stage's regime and
:class:`TrainConfig`, its leaf values added to the training scores through
the row partition :func:`fit_tree` reports and its output to the validation
scores, and the validation NDCG logged; a stump ends the stage. Stages 1 and
3 wrap the round in early stopping with rollback to the best round
(:func:`_boost_stage`). Stage 2 wraps it in pair nomination, then rolls back
to where it started, so stage 3 starts from stage 1's best round and no
stage scores the training rows tree by tree.

:func:`save_model` and :func:`load_model` write and read the file format of
:mod:`ilmart.model`, which holds the model and its :class:`TrainConfig`.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import replace

import numpy as np

from .dataset import Dataset, build_bins
from .lambdas import LambdaPlan, compute_lambdas
from .metrics import QueryEvaluator
from .model import IlmartModel, ModelError, TrainConfig, read_json, tables
from .trees import ConstraintRegime, DecisionTree, fit_tree

logger = logging.getLogger(__name__)

# A round counts as an improvement only if it beats the best by more than
# this, so float noise cannot keep a stage alive.
IMPROVEMENT_EPS = 1e-7


class _Booster:
    """One training run's boosting state, which the three stages continue.

    It holds what every round reuses (the bins, the lambda plan, the NDCG
    evaluator and the row-to-leaf buffer), the training and validation
    scores, which start at zero and which every round updates in place, and
    the run's log. ``cfg`` is the current stage's config, ``run_cfg`` the run's.
    """

    def __init__(self, train: Dataset, valid: Dataset, cfg: TrainConfig):
        if valid is None:
            raise ModelError("a validation dataset is required for early stopping")
        if train.num_features != valid.num_features:
            raise ModelError("train and validation datasets disagree on the number of features")
        self.train, self.valid, self.run_cfg = train, valid, cfg
        self.bins = build_bins(train, cfg.max_bins)
        self.plan = LambdaPlan(train, cfg.truncation)
        self.evaluator = QueryEvaluator(valid, cfg.ndcg_cutoff)
        self.leaf_of_row = np.empty(train.num_rows, dtype=np.intp)
        self.scores_train = np.zeros(train.num_rows)
        self.scores_valid = np.zeros(valid.num_rows)
        self.log: list[tuple[int, int, float]] = []
        self.start_stage(1, cfg)

    def start_stage(self, stage: int, cfg: TrainConfig) -> None:
        """Number the next rounds from 1 as ``stage``'s, boosted under ``cfg``;
        the plan and evaluator are rebuilt only for a new truncation or cutoff."""
        if cfg.truncation != self.plan.truncation:
            self.plan = LambdaPlan(self.train, cfg.truncation)
        if cfg.ndcg_cutoff != self.evaluator.k:
            self.evaluator = QueryEvaluator(self.valid, cfg.ndcg_cutoff)
        self.stage, self.cfg, self.stage_start = stage, cfg, len(self.log)

    def round(self, regime: ConstraintRegime) -> DecisionTree | None:
        """Fit a tree to the lambdas of the current scores, add its leaf
        values to both score vectors and log the validation NDCG. Returns
        the tree, or None, changing nothing, when it is a stump. A round
        whose lambdas, leaf values or scores are not all finite raises
        :class:`ModelError`."""
        cfg = self.cfg
        rnd = len(self.log) - self.stage_start + 1
        # What overflows here is refused below, so numpy need not warn. Every
        # sum the tree takes of the lambdas is bounded by their total mass.
        with np.errstate(over="ignore", invalid="ignore"):
            gradient, hessian = compute_lambdas(self.plan, self.scores_train, cfg.sigma,
                                                cfg.lambdarank_norm)
            mass = np.abs(gradient).sum() + hessian.sum()
        self._refuse_non_finite(rnd, "lambdas", mass)
        tree = fit_tree(self.bins, -gradient, hessian, regime, cfg, self.leaf_of_row)
        if tree.is_stump:
            logger.info("stage %d: stopping at round %d (no split has positive gain)",
                        self.stage, rnd)
            return None
        self._refuse_non_finite(rnd, "leaf values", tree.leaf_value)
        with np.errstate(over="ignore"):
            self.scores_train += np.asarray(tree.leaf_value)[self.leaf_of_row]
            self.scores_valid += tree.predict_batch(self.valid.features)
        self._refuse_non_finite(rnd, "scores", self.scores_train, self.scores_valid)
        self.log.append((self.stage, rnd, self.evaluator.mean(self.scores_valid)))
        return tree

    def _refuse_non_finite(self, rnd: int, what: str, *arrays) -> None:
        # A bound on learning_rate could not rule this out: many rounds, a
        # huge sigma or an unclamped leaf (max_leaf_output 0) overflow too.
        if not all(np.isfinite(a).all() for a in arrays):
            raise ModelError(f"stage {self.stage}, round {rnd}: training diverged "
                             f"({what} are not finite); lower learning_rate")


def _boost_stage(booster: _Booster, regime: ConstraintRegime):
    """Boost until early stopping, then roll the scores back to the best round.

    Returns the kept trees and the best validation NDCG.
    """
    cfg = booster.cfg
    trees: list[DecisionTree] = []
    best_ndcg = booster.evaluator.mean(booster.scores_valid)
    best_len = since_best = 0
    best_train = booster.scores_train.copy()
    best_valid = booster.scores_valid.copy()
    for _ in range(cfg.max_rounds_per_stage):
        tree = booster.round(regime)
        if tree is None:
            break
        trees.append(tree)
        ndcg = booster.log[-1][2]
        if ndcg > best_ndcg + IMPROVEMENT_EPS:
            best_ndcg = ndcg
            best_len = len(trees)
            since_best = 0
            np.copyto(best_train, booster.scores_train)
            np.copyto(best_valid, booster.scores_valid)
        else:
            since_best += 1
            if since_best >= cfg.early_stopping_rounds:
                break
    booster.scores_train, booster.scores_valid = best_train, best_valid
    logger.info("stage %d: kept %d of %d trees, best valid NDCG@%d = %.5f",
                booster.stage, best_len, len(trees), cfg.ndcg_cutoff, best_ndcg)
    return trees[:best_len], best_ndcg


def train_main_effects(booster: _Booster) -> IlmartModel:
    """Stage 1: boost single-feature trees from zero, on a new ``booster``,
    with validation early stopping."""
    train = booster.train
    digest = train.digest()     # hashes the arrays in place: no copy of the features
    trees, best = _boost_stage(booster, ConstraintRegime("single", range(1, train.num_features + 1)))
    return IlmartModel.from_trees(train.num_features, trees, config=booster.run_cfg,
                                  dataset_digest=digest, training_log=list(booster.log),
                                  best_valid_ndcg=best)


def select_interactions(model: IlmartModel, booster: _Booster) -> list[tuple[int, int]]:
    """Stage 2: nominate feature pairs with discardable 3-leaf trees.

    Boosting continues from where stage 1 left the ``booster``; every
    discovery tree that manages to use two distinct features nominates that
    pair on first appearance. The trees never reach the model: the scores
    roll back to where the stage started, and only its log entries stay.
    Returns the pairs in nomination order, which doubles as their importance
    ranking; none, without a round, at ``max_interactions`` 0, or (with a
    warning) when stage 1 kept fewer than two features.
    """
    cfg = booster.run_cfg
    if cfg.max_interactions == 0:
        return []
    if model.p < 2:
        logger.warning("stage 2 skipped: only %d main effect(s), pairs need two", model.p)
        return []
    target = min(cfg.max_interactions, math.comb(model.p, 2))
    booster.start_stage(2, cfg)
    start = booster.scores_train.copy(), booster.scores_valid.copy()
    regime = ConstraintRegime("discovery", model.main_features)
    pairs: list[tuple[int, int]] = []
    for _ in range(cfg.stage2_max_rounds):
        tree = booster.round(regime)
        if tree is None:
            break
        pair = tuple(sorted(tree.used_features))
        if len(pair) == 2 and pair not in pairs:
            pairs.append(pair)
            if len(pairs) >= target:
                break
    booster.scores_train, booster.scores_valid = start
    logger.info("stage 2: selected %d pair(s) out of a target of %d", len(pairs), target)
    return pairs


def train_interaction_effects(model: IlmartModel, pairs, booster: _Booster) -> IlmartModel:
    """Stage 3: boost pair-constrained trees on top of the stage-1 model.

    Boosting continues from the ``booster``'s scores, which stage 2 left at
    stage 1's, under the run config's ``for_stage3()``, so the result keeps
    the stage-1 shapes and adds one surface per pair that kept a tree. Pairs
    are trained one at a time in nomination order, each with its own early
    stopping: the model grown with the first k pairs is therefore its first
    k surfaces, which is what makes rank-truncated evaluation of the pair
    list behave like the training curve itself.
    """
    pairs = [tuple(sorted(int(f) for f in p)) for p in pairs]
    if not pairs:
        raise ModelError("stage 3 needs a non-empty pair list")
    if len(set(pairs)) != len(pairs):
        raise ModelError("duplicate pairs in the selection")
    j_set = set(model.main_features)
    for i, j in pairs:
        if i == j or i not in j_set or j not in j_set:
            raise ModelError(f"pair ({i}, {j}) breaks the heredity requirement")
    booster.start_stage(3, booster.run_cfg.for_stage3())
    trees: list[DecisionTree] = []
    for pair in pairs:
        phase_trees, best = _boost_stage(booster, ConstraintRegime("pair", pair))
        trees.extend(phase_trees)
    return replace(model, surfaces=tables(trees), interaction_trees=trees,
                   training_log=list(booster.log), best_valid_ndcg=best)


def train_ilmart(train: Dataset, valid: Dataset, cfg: TrainConfig) -> IlmartModel:
    """Run the full pipeline on one booster; stage 3 runs when stage 2 nominates a pair."""
    booster = _Booster(train, valid, cfg)
    model = train_main_effects(booster)
    pairs = select_interactions(model, booster)
    return train_interaction_effects(model, pairs, booster) if pairs else model


@contextlib.contextmanager
def write_atomically(path):
    """Write a text file next to ``path`` and move it there once complete,
    so a crash leaves either the old file or the new one, never a torn one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_model(model: IlmartModel, path) -> None:
    """Serialize the tables to schema-versioned JSON (floats as shortest
    round-trip text). A model is checked when made; its config is checked
    again, because its ``stage3_overrides`` is a dict a caller can edit."""
    model.config.validate()
    with write_atomically(path) as fh:
        json.dump(model.to_json(), fh)
        fh.write("\n")


def load_model(path) -> IlmartModel:
    """The checked model of the file at ``path`` (:meth:`IlmartModel.from_json`)."""
    data = read_json(path, "model file")
    try:
        return IlmartModel.from_json(data)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
