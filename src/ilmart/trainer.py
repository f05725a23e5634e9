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

The stages are one LambdaMART booster under three constraint regimes and
share one round (:meth:`_Booster.round`): lambdas of the training scores, a
tree fitted under the stage's regime and :class:`TrainConfig`, its leaf
values added to the training scores through the row partition
:func:`fit_tree` reports and its output to the validation scores, and the
validation NDCG logged; a stump ends the stage. Stages 1 and 3 wrap the
round in early stopping with rollback to the best round
(:func:`_boost_stage`), stage 2 in pair nomination. Stage 1 starts from
zero and hands its best-round scores to stages 2 and 3, so no stage scores
the training rows tree by tree.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataset import BinMapper, Dataset, build_bins, DEFAULT_MAX_BINS
from .interpret import (InteractionSurface, ModelError, ShapeFunction, _known_keys, _numbers,
                        _read_json, effect_from_trees)
from .lambdas import LambdaPlan, compute_lambdas
from .metrics import QueryEvaluator
from .trees import ConstraintRegime, DecisionTree, fit_tree

logger = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 4

# A round counts as an improvement only if it beats the best by more than
# this, so float noise cannot keep a stage alive.
IMPROVEMENT_EPS = 1e-7

# What each annotation of a TrainConfig field accepts. Integers and reals
# include numpy scalars; a bool counts as neither.
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}

# Fields stage 3 never reads: bins are built once, before stage 1, and the
# pairs are chosen by stage 2.
STAGE3_INERT = ("max_bins", "max_interactions", "stage2_max_rounds")


@dataclass
class TrainConfig:
    """Hyper-parameters and stopping rules shared by all three stages."""

    num_leaves: int = 64
    learning_rate: float = 0.1
    early_stopping_rounds: int = 100
    ndcg_cutoff: int = 10
    max_interactions: int = 50
    stage2_max_rounds: int = 5000
    max_rounds_per_stage: int = 10000
    sigma: float = 1.0
    truncation: int = 10
    lambdarank_norm: bool = False
    lambda_l2: float = 0.0
    min_data_in_leaf: int = 20
    min_gain: float = 0.0
    # Children below this hessian mass are rejected, and the Newton step
    # G/(H + l2) is clamped to +-max_leaf_output before learning-rate
    # scaling. Both keep leaves bounded when pairwise sigmoids saturate and
    # the hessian collapses while the gradient does not.
    min_child_hessian: float = 1e-3
    max_leaf_output: float = 10.0
    max_bins: int = DEFAULT_MAX_BINS
    stage3_overrides: dict | None = None

    def validate(self) -> None:
        for f in fields(self):
            accepts, kind = _FIELD_TYPES.get(f.type, (None, None))
            value = getattr(self, f.name)
            if accepts and not accepts(value):
                raise ModelError(f"invalid config: {f.name} must be {kind}, got {value!r}")
        checks = [
            (self.num_leaves >= 2, "num_leaves must be >= 2"),
            (self.learning_rate > 0, "learning_rate must be > 0"),
            (self.early_stopping_rounds >= 1, "early_stopping_rounds must be >= 1"),
            (self.ndcg_cutoff >= 1, "ndcg_cutoff must be >= 1"),
            (self.max_interactions >= 0, "max_interactions must be >= 0"),
            (self.stage2_max_rounds >= 1, "stage2_max_rounds must be >= 1"),
            (self.max_rounds_per_stage >= 1, "max_rounds_per_stage must be >= 1"),
            (self.sigma > 0, "sigma must be > 0"),
            (self.truncation >= 1, "truncation must be >= 1"),
            (self.lambda_l2 >= 0, "lambda_l2 must be >= 0"),
            (self.min_data_in_leaf >= 1, "min_data_in_leaf must be >= 1"),
            (self.min_gain >= 0, "min_gain must be >= 0"),
            (self.min_child_hessian >= 0, "min_child_hessian must be >= 0"),
            (self.max_leaf_output >= 0, "max_leaf_output must be >= 0"),
            (self.max_bins >= 2, "max_bins must be >= 2"),
        ]
        for ok, message in checks:
            if not ok:
                raise ModelError(f"invalid config: {message}")
        overrides = self.stage3_overrides
        if overrides is None:
            return
        if not isinstance(overrides, dict):
            raise ModelError("invalid config: stage3_overrides must be an object")
        names = {f.name for f in fields(self)} - {"stage3_overrides"}
        unknown = sorted(set(overrides) - names)
        if unknown:
            raise ModelError(f"invalid config: unknown stage3_overrides key(s) {unknown}")
        inert = [k for k in STAGE3_INERT if k in overrides]
        if inert:
            raise ModelError(f"invalid config: {inert[0]} has no effect in stage 3 "
                             "(in stage3_overrides)")
        try:
            replace(self, **overrides, stage3_overrides=None).validate()
        except ModelError as exc:
            raise ModelError(f"{exc} (in stage3_overrides)") from None

    def for_stage3(self) -> "TrainConfig":
        if not self.stage3_overrides:
            return self
        return replace(self, **self.stage3_overrides, stage3_overrides=None)


@dataclass
class IlmartModel:
    """An additive ranker: one shape per main feature, one surface per pair.

    A row's score is the sum of its lookups, shapes in order and then
    surfaces in order. Those orders are ``main_features`` (J, in order of
    first use by stage 1) and ``interaction_pairs`` (K_set, in the order
    stage 2 nominated the pairs, which is their importance ranking).

    ``main_trees`` and ``interaction_trees`` are the trees the tables were
    summed from: a training artifact, which a loaded model does not have.
    Stages 2 and 3 continue from stage 1's scores, not from its trees.
    """

    num_features: int
    shapes: list[ShapeFunction] = field(default_factory=list)
    surfaces: list[InteractionSurface] = field(default_factory=list)
    config: TrainConfig = field(default_factory=TrainConfig)
    dataset_digest: str = ""
    training_log: list[tuple[int, int, float]] = field(default_factory=list)
    best_valid_ndcg: float | None = None
    main_trees: list[DecisionTree] = field(default_factory=list)
    interaction_trees: list[DecisionTree] = field(default_factory=list)

    @classmethod
    def from_trees(cls, num_features: int, main_trees, interaction_trees=(),
                   **fields) -> "IlmartModel":
        """The model whose tables sum ``main_trees`` and ``interaction_trees``
        by constraint tag (see :func:`_tables`)."""
        main_trees, interaction_trees = list(main_trees), list(interaction_trees)
        return cls(num_features, _tables(main_trees), _tables(interaction_trees),
                   main_trees=main_trees, interaction_trees=interaction_trees, **fields)

    @property
    def main_features(self) -> list[int]:
        return [s.feature for s in self.shapes]

    @property
    def interaction_pairs(self) -> list[tuple[int, int]]:
        return [s.pair for s in self.surfaces]

    @property
    def p(self) -> int:
        return len(self.shapes)

    @property
    def num_interactions(self) -> int:
        return len(self.surfaces)

    def _check_width(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] < self.num_features:
            raise ModelError(
                f"dataset has {features.shape[1]} features, model needs {self.num_features}"
            )
        return features

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = self._check_width(features)
        out = np.zeros(features.shape[0], dtype=np.float64)
        for effect in self.shapes + self.surfaces:
            out += effect.contribution(features)
        return out

    def scores_by_pair_rank(self, features: np.ndarray):
        """Yield the main-effect scores, then the running scores after each pair.

        The k-th array (from 0) scores the model cut to its first k pairs in
        ``interaction_pairs`` order; the last equals :meth:`predict_batch`
        bit for bit.
        """
        features = self._check_width(features)
        scores = np.zeros(features.shape[0], dtype=np.float64)
        for shape in self.shapes:
            scores += shape.contribution(features)
        yield scores.copy()
        for surface in self.surfaces:
            scores += surface.contribution(features)
            yield scores.copy()

    def validate(self) -> None:
        """Check the config and every table invariant; raises :class:`ModelError`."""
        self.config.validate()
        for effect in self.shapes + self.surfaces:
            effect.check()
            if not all(1 <= f <= self.num_features for f in effect.features):
                raise ModelError(f"{effect.key}: feature outside 1..{self.num_features}")
        if len(set(self.main_features)) != self.p:
            raise ModelError("constraint violation: duplicate main-effect feature")
        if len(set(self.interaction_pairs)) != self.num_interactions:
            raise ModelError("constraint violation: duplicate pair")
        j_set = set(self.main_features)
        for i, j in self.interaction_pairs:
            if not (i in j_set and j in j_set):
                raise ModelError(
                    f"constraint violation: pair ({i}, {j}) breaks the heredity requirement"
                )


def _tables(trees) -> list:
    """One table per constraint tag (a main tree's feature, an interaction
    tree's pair), summed from the trees with that tag, in order of first
    appearance."""
    groups: dict[tuple[int, ...], list[DecisionTree]] = {}
    for tree in trees:
        groups.setdefault(tuple(tree.constraint_features), []).append(tree)
    return [effect_from_trees(tag, group) for tag, group in groups.items()]


class _Booster:
    """One stage's boosting state, carried from round to round.

    It holds the training and validation scores, which every round updates
    in place, the stage's log, and what every round reuses: the lambda plan,
    the NDCG evaluator and the row-to-leaf buffer. Rounds are numbered
    through the whole stage, across stage 3's pairs.
    """

    def __init__(self, stage, train, bins, valid, cfg, scores):
        self.stage, self.train, self.bins, self.valid, self.cfg = stage, train, bins, valid, cfg
        self.scores_train = scores["train"].copy()
        self.scores_valid = scores["valid"].copy()
        self.log: list[tuple[int, int, float]] = []
        self.plan = LambdaPlan(train, cfg.truncation)
        self.evaluator = QueryEvaluator(valid, cfg.ndcg_cutoff)
        self.leaf_of_row = np.empty(train.num_rows, dtype=np.intp)

    def round(self, regime: ConstraintRegime) -> DecisionTree | None:
        """Fit a tree to the lambdas of the current scores, add its leaf
        values to both score vectors and log the validation NDCG. Returns
        the tree, or None, changing nothing, when it is a stump."""
        cfg = self.cfg
        gradient, hessian = compute_lambdas(self.plan, self.scores_train, cfg.sigma,
                                            cfg.lambdarank_norm)
        tree = fit_tree(self.bins, -gradient, hessian, regime, cfg, self.leaf_of_row)
        rnd = len(self.log) + 1
        if tree.is_stump:
            logger.info("stage %d: stopping at round %d (no split has positive gain)",
                        self.stage, rnd)
            return None
        self.scores_train += np.asarray(tree.leaf_value)[self.leaf_of_row]
        self.scores_valid += tree.predict_batch(self.valid.features)
        self.log.append((self.stage, rnd, self.evaluator.mean(self.scores_valid)))
        return tree


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


def train_main_effects(train: Dataset, valid: Dataset, cfg: TrainConfig, bins: BinMapper,
                       scores_out: dict | None = None) -> IlmartModel:
    """Stage 1: boost single-feature trees with validation early stopping.

    ``scores_out``, a dict, receives the returned model's scores on the
    training and validation rows under ``"train"`` and ``"valid"``: what
    stages 2 and 3 start from.
    """
    cfg.validate()
    if valid is None:
        raise ModelError("a validation dataset is required for early stopping")
    if train.num_features != valid.num_features:
        raise ModelError("train and validation datasets disagree on the number of features")
    digest = train.digest()     # hashes the arrays in place: no copy of the features
    booster = _Booster(1, train, bins, valid, cfg,
                       {"train": np.zeros(train.num_rows), "valid": np.zeros(valid.num_rows)})
    trees, best = _boost_stage(booster, ConstraintRegime("single", range(1, train.num_features + 1)))
    if scores_out is not None:
        scores_out.update(train=booster.scores_train, valid=booster.scores_valid)
    return IlmartModel.from_trees(train.num_features, trees, config=cfg,
                                  dataset_digest=digest, training_log=booster.log,
                                  best_valid_ndcg=best)


def select_interactions(model: IlmartModel, train: Dataset, valid: Dataset,
                        cfg: TrainConfig, bins: BinMapper, start_scores: dict,
                        log: list) -> list[tuple[int, int]]:
    """Stage 2: nominate feature pairs with discardable 3-leaf trees.

    Boosting continues from the stage-1 scores; every discovery tree that
    manages to use two distinct features nominates that pair on first
    appearance. The trees themselves never reach the model. Returns the
    pairs in nomination order, which doubles as their importance ranking.
    ``start_scores`` holds the model's training and validation scores as
    stage 1's ``scores_out`` leaves them (they are not modified), and
    ``log`` receives one ``(2, round, valid NDCG)`` entry per round.
    """
    cfg.validate()
    if model.p < 2:
        logger.warning("stage 2 skipped: only %d main effect(s), pairs need two", model.p)
        return []
    target = min(cfg.max_interactions, math.comb(model.p, 2))
    if target < 1:
        return []
    booster = _Booster(2, train, bins, valid, cfg, start_scores)
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
    log.extend(booster.log)
    logger.info("stage 2: selected %d pair(s) out of a target of %d", len(pairs), target)
    return pairs


def train_interaction_effects(model: IlmartModel, pairs, train: Dataset,
                              valid: Dataset, cfg: TrainConfig, bins: BinMapper,
                              start_scores: dict, stage2_log=()) -> IlmartModel:
    """Stage 3: boost pair-constrained trees on top of the stage-1 model.

    Scores restart from the stage-1 model output (discovery trees left no
    trace), so the result keeps the stage-1 shapes and adds one surface per
    pair that kept a tree. Pairs are trained one at a time in nomination
    order, each with its own early stopping: the model grown with the first
    k pairs is therefore its first k surfaces, which is what makes
    rank-truncated evaluation of the pair list behave like the training
    curve itself. ``start_scores`` is as in :func:`select_interactions`.
    """
    cfg.validate()
    pairs = [tuple(sorted(int(f) for f in p)) for p in pairs]
    if not pairs:
        raise ModelError("stage 3 needs a non-empty pair list")
    if len(set(pairs)) != len(pairs):
        raise ModelError("duplicate pairs in the selection")
    j_set = set(model.main_features)
    for i, j in pairs:
        if i == j or i not in j_set or j not in j_set:
            raise ModelError(f"pair ({i}, {j}) breaks the heredity requirement")
    booster = _Booster(3, train, bins, valid, cfg.for_stage3(), start_scores)
    trees: list[DecisionTree] = []
    for pair in pairs:
        phase_trees, best = _boost_stage(booster, ConstraintRegime("pair", pair))
        for tree in phase_trees:
            tree.constraint_features = pair
        trees.extend(phase_trees)
    return replace(model, surfaces=_tables(trees), interaction_trees=trees, config=cfg,
                   training_log=list(model.training_log) + list(stage2_log) + booster.log,
                   best_valid_ndcg=best)


def train_ilmart(train: Dataset, valid: Dataset, cfg: TrainConfig,
                 bins: BinMapper | None = None) -> IlmartModel:
    """Run the full pipeline; stages 2 and 3 run when interactions are enabled."""
    cfg.validate()
    if bins is None:
        bins = build_bins(train, cfg.max_bins)
    scores: dict[str, np.ndarray] = {}
    model = train_main_effects(train, valid, cfg, bins, scores_out=scores)
    if cfg.max_interactions > 0 and model.p >= 2:
        stage2_log: list[tuple[int, int, float]] = []
        pairs = select_interactions(model, train, valid, cfg, bins, scores, stage2_log)
        if pairs:
            model = train_interaction_effects(model, pairs, train, valid, cfg, bins, scores,
                                              stage2_log)
    return model


def _model_to_dict(model: IlmartModel) -> dict:
    return {
        "version": MODEL_SCHEMA_VERSION,
        "config": asdict(model.config),
        "main_effects": [s.to_json() for s in model.shapes],
        "pair_effects": [s.to_json() for s in model.surfaces],
        "training_log": [[s, r, v] for s, r, v in model.training_log],
        "metadata": {
            "num_features": model.num_features,
            "dataset_digest": model.dataset_digest,
            "best_valid_ndcg": model.best_valid_ndcg,
        },
    }


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
    round-trip text). The model is first checked as :func:`load_model`
    checks it, so a model that file would be refused is never written."""
    model.validate()
    with write_atomically(path) as fh:
        json.dump(_model_to_dict(model), fh)
        fh.write("\n")


def _training_log(entries) -> list[tuple[int, int, float]]:
    """The stored ``[stage, round, NDCG]`` entries; each must be two integers
    and a finite number (no bools, no strings)."""
    values = _numbers(entries, 2, "training_log")
    if entries and (values.shape[1] != 3 or not np.isfinite(values).all()
                    or any(type(v) is not int for entry in entries for v in entry[:2])):
        raise ModelError("training_log entries must be [stage, round, NDCG]: "
                         "two integers and a finite number")
    return [(s, r, float(v)) for s, r, v in entries]


def load_model(path) -> IlmartModel:
    """Load a model file's tables and re-check every invariant.

    Anything that is not a well-formed model file of this schema version
    raises :class:`ModelError`. The loaded model has no trees.
    """
    data = _read_json(path, "model file")
    version = data.get("version") if isinstance(data, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise ModelError(f"{path}: unsupported model schema version {version!r}, "
                         f"expected {MODEL_SCHEMA_VERSION}")
    try:
        _known_keys(data, ("version", "config", "main_effects", "pair_effects", "training_log",
                           "metadata"), "model file")
        metadata = _known_keys(data["metadata"],
                               ("num_features", "dataset_digest", "best_valid_ndcg"), "metadata")
        best = metadata.get("best_valid_ndcg")
        if best is not None and not np.isfinite(_numbers([best], 1, "best_valid_ndcg")).all():
            raise ModelError("best_valid_ndcg must be finite")
        num_features = metadata["num_features"]
        if type(num_features) is not int or num_features < 0:
            raise ModelError(f"num_features must be a non-negative integer, got {num_features!r}")
        digest = metadata.get("dataset_digest", "")
        if not isinstance(digest, str):
            raise ModelError(f"dataset_digest must be a string, got {digest!r}")
        model = IlmartModel(
            num_features=num_features,
            shapes=[ShapeFunction.from_json(e) for e in data["main_effects"]],
            surfaces=[InteractionSurface.from_json(e) for e in data["pair_effects"]],
            config=TrainConfig(**_known_keys(data["config"],
                                             [f.name for f in fields(TrainConfig)], "config")),
            dataset_digest=digest,
            training_log=_training_log(data["training_log"]),
            best_valid_ndcg=best,
        )
        model.validate()
    except KeyError as exc:
        raise ModelError(f"{path}: malformed model file, missing key {exc}") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"{path}: malformed model file ({exc})") from None
    return model
