"""Three-stage boosting that produces an additively interpretable ranker.

Stage 1 (main effects) boosts with single-feature trees; the features that
survive early stopping form the main-effect set J. Stage 2 (interaction
selection) continues boosting with 3-leaf discovery trees restricted to J and
records, in order of first appearance, the distinct feature pairs they use.
Those discovery trees are then thrown away. Stage 3 (interaction effects)
restarts from the stage-1 scores and boosts trees constrained to the selected
pairs. The final prediction is the plain sum of all main-effect and
interaction-tree outputs, with no intercept, which is what makes the model an
exact additive decomposition over single features and feature pairs.

Early stopping in stages 1 and 3 monitors validation NDCG at a configured
cutoff and rolls the stage back to its best round.

No stage scores the training rows tree by tree: each round adds the new
tree's leaf values through the row partition :func:`fit_tree` reports, and
:func:`train_ilmart` hands stage 1's best-round scores to stages 2 and 3.
Both sum the same leaf values in the same order as ``predict_batch``, so
the scores are bit-identical to the model's own.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataset import BinMapper, Dataset, build_bins, DEFAULT_MAX_BINS
from .lambdas import LambdaPlan, compute_lambdas
from .metrics import QueryEvaluator
from .trees import ConstraintRegime, DecisionTree, fit_tree

logger = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 3

# A round counts as an improvement only if it beats the best by more than
# this, so float noise cannot keep a stage alive.
IMPROVEMENT_EPS = 1e-7


class ModelError(ValueError):
    """Invalid model file or violated model invariant."""


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
    min_child_hessian: float = 1e-3
    max_leaf_output: float = 10.0
    max_bins: int = DEFAULT_MAX_BINS
    stage3_overrides: dict | None = None

    def validate(self) -> None:
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
    """Staged ensemble: main-effect trees plus pair-constrained trees.

    ``main_features`` lists the distinct features used by main-effect trees
    in order of first appearance; ``interaction_pairs`` lists the selected
    pairs that ended up used by at least one kept interaction tree, in the
    order stage 2 nominated them (that order is the pair importance ranking).
    """

    num_features: int
    main_trees: list[DecisionTree] = field(default_factory=list)
    interaction_trees: list[DecisionTree] = field(default_factory=list)
    main_features: list[int] = field(default_factory=list)
    interaction_pairs: list[tuple[int, int]] = field(default_factory=list)
    bin_boundaries: list[np.ndarray] = field(default_factory=list)
    config: TrainConfig = field(default_factory=TrainConfig)
    dataset_digest: str = ""
    training_log: list[tuple[int, int, float]] = field(default_factory=list)
    best_valid_ndcg: float | None = None

    @property
    def p(self) -> int:
        return len(self.main_features)

    @property
    def num_interactions(self) -> int:
        return len(self.interaction_pairs)

    @property
    def trees(self) -> list[DecisionTree]:
        return list(self.main_trees) + list(self.interaction_trees)

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
        for tree in self.trees:
            out += tree.predict_batch(features)
        return out

    def scores_by_pair_rank(self, features: np.ndarray):
        """Yield the main-effect scores, then the running scores after each pair.

        The k-th array (from 0) scores the model cut to its first k pairs in
        ``interaction_pairs`` order. Each tree is evaluated once. Because
        :meth:`validate` requires the interaction trees grouped by pair in
        that order, the last array equals :meth:`predict_batch` bit for bit.
        """
        features = self._check_width(features)
        scores = np.zeros(features.shape[0], dtype=np.float64)
        for tree in self.main_trees:
            scores += tree.predict_batch(features)
        yield scores.copy()
        for _, trees in itertools.groupby(self.interaction_trees,
                                          key=lambda t: tuple(t.constraint_features)):
            for tree in trees:
                scores += tree.predict_batch(features)
            yield scores.copy()

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        return self.predict_batch(ds.features)

    def validate(self) -> None:
        """Check every structural invariant; raises :class:`ModelError`."""
        for tree in self.trees:
            for f in tree.split_feature:
                if not 1 <= f <= self.num_features or f not in tree.constraint_features:
                    raise ModelError(f"constraint violation: split on feature {f} outside "
                                     f"the tree's features {list(tree.constraint_features)}")
            if not all(math.isfinite(t) for t in tree.threshold):
                raise ModelError("constraint violation: non-finite split threshold")
            if not all(math.isfinite(v) for v in tree.leaf_value):
                raise ModelError("constraint violation: non-finite leaf value")

        j_order: list[int] = []
        for tree in self.main_trees:
            if tree.constraint_kind != "single":
                raise ModelError("constraint violation: main tree not tagged single-feature")
            if len(tree.used_features) != 1:
                raise ModelError("constraint violation: main tree must use exactly one feature")
            if tuple(tree.constraint_features) != tuple(tree.used_features):
                raise ModelError("constraint violation: main tree tag disagrees with its splits")
            f = tree.used_features[0]
            if f not in j_order:
                j_order.append(f)
        if j_order != list(self.main_features):
            raise ModelError("constraint violation: main-effect feature list does not match trees")

        j_set = set(self.main_features)
        pair_set = set()
        for pair in self.interaction_pairs:
            i, j = pair
            if i == j or not (i in j_set and j in j_set):
                raise ModelError(
                    f"constraint violation: pair ({i}, {j}) breaks the heredity requirement"
                )
            if (i, j) in pair_set:
                raise ModelError(f"constraint violation: duplicate pair ({i}, {j})")
            pair_set.add((i, j))
        if len(pair_set) > math.comb(len(j_set), 2):
            raise ModelError("constraint violation: more pairs than C(p, 2)")

        used_pairs = set()
        for tree in self.interaction_trees:
            if tree.constraint_kind != "pair":
                raise ModelError("constraint violation: interaction tree not tagged as a pair")
            tag = tuple(tree.constraint_features)
            if len(tag) != 2 or tag not in pair_set:
                raise ModelError("constraint violation: interaction tree assigned to an unknown pair")
            if tree.is_stump:
                raise ModelError("constraint violation: interaction tree must use one or two features")
            used_pairs.add(tag)
        if used_pairs != pair_set:
            raise ModelError("constraint violation: pair list does not match the trees present")
        runs = [pair for pair, _ in itertools.groupby(
            tuple(t.constraint_features) for t in self.interaction_trees)]
        if runs != [tuple(p) for p in self.interaction_pairs]:
            raise ModelError(
                "constraint violation: interaction trees not grouped by pair in K_set order"
            )


def _first_use_order(trees: list[DecisionTree]) -> list[int]:
    order: list[int] = []
    for tree in trees:
        for f in tree.used_features:
            if f not in order:
                order.append(f)
    return order


def _boost_stage(stage, regime, train, bins, valid, cfg, learning_rate,
                 scores_train, scores_valid, log):
    """Boost until early stopping, then roll back to the best round.

    Mutates the score vectors in place and returns the kept trees together
    with the snapshots of both score vectors at the best round.
    """
    evaluator = QueryEvaluator(valid, cfg.ndcg_cutoff)
    plan = LambdaPlan(train, cfg.truncation)
    leaf_of_row = np.empty(train.num_rows, dtype=np.intp)
    trees: list[DecisionTree] = []
    best_ndcg = evaluator.mean(scores_valid)
    best_len = 0
    best_train = scores_train.copy()
    best_valid = scores_valid.copy()
    since_best = 0
    for rnd in range(1, cfg.max_rounds_per_stage + 1):
        grads = compute_lambdas(scores_train, train, cfg.sigma, cfg.truncation,
                                cfg.lambdarank_norm, plan=plan)
        tree = fit_tree(bins, -grads.gradient, grads.hessian, regime,
                        learning_rate, cfg.lambda_l2, leaf_of_row)
        if tree.is_stump:
            logger.info("stage %d: stopping at round %d (no split has positive gain)", stage, rnd)
            break
        scores_train += np.asarray(tree.leaf_value)[leaf_of_row]
        scores_valid += tree.predict_batch(valid.features)
        trees.append(tree)
        ndcg = evaluator.mean(scores_valid)
        log.append((stage, rnd, ndcg))
        if ndcg > best_ndcg + IMPROVEMENT_EPS:
            best_ndcg = ndcg
            best_len = len(trees)
            since_best = 0
            np.copyto(best_train, scores_train)
            np.copyto(best_valid, scores_valid)
        else:
            since_best += 1
            if since_best >= cfg.early_stopping_rounds:
                break
    logger.info("stage %d: kept %d of %d trees, best valid NDCG@%d = %.5f",
                stage, best_len, len(trees), cfg.ndcg_cutoff, best_ndcg)
    return trees[:best_len], best_train, best_valid, best_ndcg


def train_main_effects(train: Dataset, valid: Dataset, cfg: TrainConfig,
                       bins: BinMapper | None = None,
                       scores_out: dict | None = None) -> IlmartModel:
    """Stage 1: boost single-feature trees with validation early stopping.

    ``scores_out``, a dict, receives the returned model's scores on the
    training and validation rows under ``"train"`` and ``"valid"``: what
    stages 2 and 3 start from, equal to ``predict_dataset`` bit for bit.
    """
    cfg.validate()
    if valid is None:
        raise ModelError("a validation dataset is required for early stopping")
    if train.num_features != valid.num_features:
        raise ModelError("train and validation datasets disagree on the number of features")
    if bins is None:
        bins = build_bins(train, cfg.max_bins)
    regime = ConstraintRegime.single_feature(
        range(1, train.num_features + 1), cfg.num_leaves,
        cfg.min_data_in_leaf, cfg.min_gain, cfg.min_child_hessian,
        cfg.max_leaf_output,
    )
    log: list[tuple[int, int, float]] = []
    trees, best_train, best_valid, best = _boost_stage(
        1, regime, train, bins, valid, cfg, cfg.learning_rate,
        np.zeros(train.num_rows), np.zeros(valid.num_rows), log,
    )
    if scores_out is not None:
        scores_out.update(train=best_train, valid=best_valid)
    return IlmartModel(
        num_features=train.num_features,
        main_trees=trees,
        main_features=_first_use_order(trees),
        bin_boundaries=list(bins.boundaries),
        config=cfg,
        dataset_digest=train.digest(),
        training_log=log,
        best_valid_ndcg=best,
    )


def _start_scores(model: IlmartModel, ds: Dataset, scores: dict | None,
                  key: str) -> np.ndarray:
    """A fresh copy of the model's scores on ``ds``, carried or computed."""
    if scores is None:
        return model.predict_dataset(ds)
    return scores[key].copy()


def select_interactions(model: IlmartModel, train: Dataset, valid: Dataset,
                        cfg: TrainConfig, bins: BinMapper | None = None,
                        log: list | None = None,
                        start_scores: dict | None = None) -> list[tuple[int, int]]:
    """Stage 2: nominate feature pairs with discardable 3-leaf trees.

    Boosting continues from the stage-1 scores; every discovery tree that
    manages to use two distinct features nominates that pair on first
    appearance. The trees themselves never reach the model. Returns the
    pairs in nomination order, which doubles as their importance ranking.
    ``start_scores`` holds the model's training and validation scores as
    stage 1's ``scores_out`` leaves them (they are not modified); without
    it the model scores both datasets.
    """
    cfg.validate()
    if model.p < 2:
        logger.warning("stage 2 skipped: only %d main effect(s), pairs need two", model.p)
        return []
    if bins is None:
        bins = build_bins(train, cfg.max_bins)
    target = min(cfg.max_interactions, math.comb(model.p, 2))
    if target < 1:
        return []
    evaluator = QueryEvaluator(valid, cfg.ndcg_cutoff) if log is not None else None
    plan = LambdaPlan(train, cfg.truncation)
    leaf_of_row = np.empty(train.num_rows, dtype=np.intp)
    scores_train = _start_scores(model, train, start_scores, "train")
    scores_valid = _start_scores(model, valid, start_scores, "valid") if log is not None else None
    regime = ConstraintRegime.pair_discovery(
        model.main_features, cfg.min_data_in_leaf, cfg.min_gain,
        cfg.min_child_hessian, cfg.max_leaf_output
    )
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for rnd in range(1, cfg.stage2_max_rounds + 1):
        grads = compute_lambdas(scores_train, train, cfg.sigma, cfg.truncation,
                                cfg.lambdarank_norm, plan=plan)
        tree = fit_tree(bins, -grads.gradient, grads.hessian, regime,
                        cfg.learning_rate, cfg.lambda_l2, leaf_of_row)
        if tree.is_stump:
            logger.info("stage 2: stopping at round %d (discovery trees degenerated)", rnd)
            break
        scores_train += np.asarray(tree.leaf_value)[leaf_of_row]
        if log is not None:
            scores_valid += tree.predict_batch(valid.features)
            log.append((2, rnd, evaluator.mean(scores_valid)))
        if len(tree.used_features) == 2:
            pair = tuple(sorted(tree.used_features))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
                if len(pairs) >= target:
                    break
    logger.info("stage 2: selected %d pair(s) out of a target of %d", len(pairs), target)
    return pairs


def train_interaction_effects(model: IlmartModel, pairs, train: Dataset,
                              valid: Dataset, cfg: TrainConfig,
                              bins: BinMapper | None = None,
                              stage2_log=(),
                              start_scores: dict | None = None) -> IlmartModel:
    """Stage 3: boost pair-constrained trees on top of the stage-1 model.

    Scores restart from the stage-1 model output (discovery trees left no
    trace), so stripping the interaction trees from the result reproduces
    the stage-1 predictions exactly. Pairs are trained one at a time in
    nomination order, each with its own early stopping: the model grown
    with the first k pairs is therefore a prefix of the final tree list,
    which is what makes rank-truncated evaluation of the pair list behave
    like the training curve itself. ``start_scores`` is as in
    :func:`select_interactions`.
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
    if bins is None:
        bins = build_bins(train, cfg.max_bins)
    cfg3 = cfg.for_stage3()
    cfg3.validate()

    log3: list[tuple[int, int, float]] = []
    trees: list[DecisionTree] = []
    kept_pairs: list[tuple[int, int]] = []
    scores_train = _start_scores(model, train, start_scores, "train")
    scores_valid = _start_scores(model, valid, start_scores, "valid")
    best = None
    round_base = 0
    for pair in pairs:
        regime = ConstraintRegime.feature_pair(
            pair, cfg3.num_leaves, cfg3.min_data_in_leaf, cfg3.min_gain,
            cfg3.min_child_hessian, cfg3.max_leaf_output
        )
        phase_log: list[tuple[int, int, float]] = []
        phase_trees, scores_train, scores_valid, best = _boost_stage(
            3, regime, train, bins, valid, cfg3, cfg3.learning_rate,
            scores_train, scores_valid, phase_log,
        )
        log3.extend((s, round_base + r, v) for s, r, v in phase_log)
        round_base += len(phase_log)
        for tree in phase_trees:
            tree.constraint_features = pair
        if phase_trees:
            kept_pairs.append(pair)
            trees.extend(phase_trees)

    return IlmartModel(
        num_features=model.num_features,
        main_trees=model.main_trees,
        interaction_trees=trees,
        main_features=model.main_features,
        interaction_pairs=kept_pairs,
        bin_boundaries=model.bin_boundaries,
        config=cfg,
        dataset_digest=model.dataset_digest,
        training_log=list(model.training_log) + list(stage2_log) + log3,
        best_valid_ndcg=best,
    )


def train_ilmart(train: Dataset, valid: Dataset, cfg: TrainConfig,
                 bins: BinMapper | None = None) -> IlmartModel:
    """Run the full pipeline; stages 2 and 3 run when interactions are enabled."""
    cfg.validate()
    if bins is None:
        bins = build_bins(train, cfg.max_bins)
    scores: dict[str, np.ndarray] = {}
    model = train_main_effects(train, valid, cfg, bins=bins, scores_out=scores)
    if cfg.max_interactions > 0 and model.p >= 2:
        stage2_log: list[tuple[int, int, float]] = []
        pairs = select_interactions(model, train, valid, cfg, bins=bins, log=stage2_log,
                                    start_scores=scores)
        if pairs:
            model = train_interaction_effects(
                model, pairs, train, valid, cfg, bins=bins, stage2_log=stage2_log,
                start_scores=scores,
            )
    return model


def _model_to_dict(model: IlmartModel) -> dict:
    return {
        "version": MODEL_SCHEMA_VERSION,
        "config": asdict(model.config),
        "bin_info": {
            "max_bins": model.config.max_bins,
            "boundaries": [np.asarray(b).tolist() for b in model.bin_boundaries],
        },
        "main_trees": [t.to_dict() for t in model.main_trees],
        "interaction_trees": [t.to_dict() for t in model.interaction_trees],
        "J": list(model.main_features),
        "K_set": [list(p) for p in model.interaction_pairs],
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
    """Serialize to schema-versioned JSON (floats as shortest round-trip text)."""
    with write_atomically(path) as fh:
        json.dump(_model_to_dict(model), fh)
        fh.write("\n")


def load_model(path) -> IlmartModel:
    """Load a model file and re-check every structural invariant.

    Anything that is not a well-formed model file of this schema version
    raises :class:`ModelError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the json
        # module can parse, which no model file does.
        raise ModelError(f"{path}: not a JSON model file ({exc})") from None
    version = data.get("version") if isinstance(data, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise ModelError(f"{path}: unsupported model schema version {version!r}, "
                         f"expected {MODEL_SCHEMA_VERSION}")
    try:
        model = IlmartModel(
            num_features=int(data["metadata"]["num_features"]),
            main_trees=[DecisionTree.from_dict(t) for t in data["main_trees"]],
            interaction_trees=[DecisionTree.from_dict(t) for t in data["interaction_trees"]],
            main_features=[int(f) for f in data["J"]],
            interaction_pairs=[tuple(int(f) for f in p) for p in data["K_set"]],
            bin_boundaries=[np.asarray(b, dtype=np.float64)
                            for b in data["bin_info"]["boundaries"]],
            config=TrainConfig(**data["config"]),
            dataset_digest=str(data["metadata"].get("dataset_digest", "")),
            training_log=[(int(s), int(r), float(v)) for s, r, v in data["training_log"]],
            best_valid_ndcg=data["metadata"].get("best_valid_ndcg"),
        )
        model.config.validate()
        model.validate()
    except KeyError as exc:
        raise ModelError(f"{path}: malformed model file, missing key {exc}") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"{path}: malformed model file ({exc})") from None
    return model
