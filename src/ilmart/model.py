"""The ranker: its effect tables, its training config and its file format.

A trained model is a sum of exact piecewise-constant tables: one step
function per main feature and one value grid per feature pair. Training
builds each table from the trees of its effect: the breakpoints are the union
of their split thresholds, and a cell's value is the trees' summed output at
the cell's upper breakpoint, routed through ``DecisionTree.leaves``. Model
files store the tables, and scoring sums their lookups: the model IS its
plots. Tables and models are frozen and checked when made, however they are
made; a copy or a pickle is rebuilt through the constructor. Shapes and
surfaces share one lookup, ``lookup_batch``; a model scoring all its tables
bins each feature once (``IlmartModel.terms``), through an index it builds
once. Each JSON object of a model file has one reader, ``from_json``, and
one writer, ``to_json``, and ``read_json`` is the package's one JSON reader.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .dataset import DEFAULT_MAX_BINS

MODEL_SCHEMA_VERSION = 4

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


def _finite(value) -> bool:
    """Whether the number is finite as a float64; an integer beyond its
    range, such as ``10**400``, is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class ModelError(ValueError):
    """Invalid model file or violated model invariant."""


def _feature_id(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ModelError(f"{what} must be a feature id (an integer >= 1), got {value!r}")
    return value


def _numbers(data, ndim: int, what: str) -> np.ndarray:
    """``data`` as float64 if it is a JSON array of numbers (``ndim`` 1) or an
    array of equally long such arrays (``ndim`` 2). Nothing is coerced: a
    string or a bool is refused."""
    rows = data if ndim == 2 and isinstance(data, list) else [data]
    if not all(isinstance(row, list) for row in rows) or len({len(r) for r in rows}) > 1:
        kind = "equally long lists of numbers" if ndim == 2 else "numbers"
        raise ModelError(f"{what} must be a list of {kind}")
    if any(type(v) not in (int, float) for row in rows for v in row):
        raise ModelError(f"{what} must hold JSON numbers only")
    try:
        return np.array(data, dtype=np.float64)
    except OverflowError:
        raise ModelError(f"{what} must be finite") from None


def _known_keys(data, keys, what: str) -> dict:
    """``data`` if it is a JSON object with no key outside ``keys`` (a
    missing key is left to the caller's lookup)."""
    if not isinstance(data, dict):
        raise ModelError(f"{what} must be an object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ModelError(f"unknown {what} key(s) {unknown}")
    return data


def read_json(path, what: str):
    """The parsed JSON file at ``path``; :class:`ModelError` if it is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8 or JSON, or an integer of more digits than
        # Python converts; RecursionError: arrays or objects nested deeper
        # than the json module can parse. No file written here has either.
        raise ModelError(f"{path}: not a JSON {what} ({exc})") from None


class _Table:
    """What shapes and surfaces share. Subclasses define ``kind``, ``AXES``
    (the names of their breakpoint arrays, one per feature), ``features``
    and ``values``."""

    @property
    def key(self) -> str:
        """``main_<f>`` or ``pair_<i>_<j>``, also the name of its export file."""
        return "_".join([self.kind, *map(str, self.features)])

    @property
    def axes(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.AXES]

    def lookup_batch(self, *columns) -> np.ndarray:
        """The cells' values at inputs given one array per feature, as in
        ``shape.lookup_batch(x)`` and ``surface.lookup_batch(xi, xj)``."""
        # Interval b covers (breakpoints[b-1], breakpoints[b]], matching the
        # trees' "value <= threshold goes left" routing.
        return self.values[tuple(np.searchsorted(bp, x, side="left")
                                 for bp, x in zip(self.axes, columns, strict=True))]

    def __post_init__(self):
        """Refuse a table whose lookups are undefined or not finite; freeze its arrays."""
        if list(self.features) != sorted(set(self.features)):
            raise ModelError(f"{self.key}: a pair's features must be distinct and ascending")
        for bp in self.axes:
            if bp.ndim != 1 or not np.isfinite(bp).all() or (np.diff(bp) <= 0).any():
                raise ModelError(f"{self.key}: breakpoints must be finite and strictly increasing")
        shape = tuple(bp.size + 1 for bp in self.axes)
        if self.values.shape != shape:
            raise ModelError(f"{self.key}: values have shape {self.values.shape}, "
                             f"breakpoints need {shape}")
        if not np.isfinite(self.values).all():
            raise ModelError(f"{self.key}: values must be finite")
        for array in (*self.axes, self.values):
            array.flags.writeable = False

    def __reduce__(self):
        """Copies and pickles are rebuilt through the constructor: checked, frozen, unindexed."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class ShapeFunction(_Table):
    """Contribution of one feature: ``values[i]`` on the i-th interval."""

    feature: int
    breakpoints: np.ndarray
    values: np.ndarray

    kind: ClassVar[str] = "main"
    AXES: ClassVar[tuple[str, ...]] = ("breakpoints",)

    @classmethod
    def from_json(cls, data: dict) -> "ShapeFunction":
        """The checked table of a ``{feature, breakpoints, values}`` object."""
        _known_keys(data, [f.name for f in fields(cls)], "main effect")
        feature = _feature_id(data["feature"], "main effect feature")
        return cls(feature, _numbers(data["breakpoints"], 1, f"main_{feature}: breakpoints"),
                   _numbers(data["values"], 1, f"main_{feature}: values"))

    @property
    def features(self) -> tuple[int]:
        return (self.feature,)

    def to_json(self) -> dict:
        return {"feature": self.feature, "breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}


@dataclass(frozen=True)
class InteractionSurface(_Table):
    """Contribution of a feature pair over a breakpoint-by-breakpoint grid."""

    pair: tuple[int, int]
    breakpoints_i: np.ndarray
    breakpoints_j: np.ndarray
    values: np.ndarray

    kind: ClassVar[str] = "pair"
    AXES: ClassVar[tuple[str, ...]] = ("breakpoints_i", "breakpoints_j")

    @classmethod
    def from_json(cls, data: dict) -> "InteractionSurface":
        """The checked table of a ``{pair, breakpoints_i, breakpoints_j, values}`` object."""
        _known_keys(data, [f.name for f in fields(cls)], "pair effect")
        pair = data["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ModelError(f"pair effect pair must be two feature ids, got {pair!r}")
        pair = tuple(_feature_id(f, "pair effect feature") for f in pair)
        what = f"pair_{pair[0]}_{pair[1]}"
        return cls(pair, _numbers(data["breakpoints_i"], 1, f"{what}: breakpoints_i"),
                   _numbers(data["breakpoints_j"], 1, f"{what}: breakpoints_j"),
                   _numbers(data["values"], 2, f"{what}: values"))

    @property
    def features(self) -> tuple[int, int]:
        return self.pair

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "breakpoints_i": self.breakpoints_i.tolist(),
                "breakpoints_j": self.breakpoints_j.tolist(), "values": self.values.tolist()}


def _effect_table(trees, features) -> tuple[list[np.ndarray], np.ndarray]:
    """Sum the trees of one effect into a table over its features' intervals.

    The breakpoints of each feature are the union of the trees' thresholds
    on it. A cell's value is the trees' summed output at one point of the
    cell: its upper breakpoint, or +inf past the last one. Every threshold is
    a breakpoint, so each split sends the whole cell the way it sends that
    point. The trees add in order, so each cell holds exactly the sum, in
    tree order, that scoring any input in it would.
    """
    breakpoints = [np.unique(np.concatenate([t.thresholds_for(f) for t in trees]
                                            + [np.empty(0)])) for f in features]
    shape = tuple(b.size + 1 for b in breakpoints)
    cells = np.indices(shape).reshape(len(shape), -1)       # C order
    columns = {f: np.append(b, np.inf)[c] for f, b, c in zip(features, breakpoints, cells)}
    values = np.zeros(cells.shape[1])
    for tree in trees:
        values += np.asarray(tree.leaf_value)[tree.leaves(columns, values.size)]
    return breakpoints, values.reshape(shape)


def tables(trees) -> list:
    """One table per constraint tag (a main tree's feature, an interaction
    tree's pair), summed from the trees with that tag, in order of first
    appearance: a shape for one feature, a surface for a pair."""
    groups: dict[tuple[int, ...], list] = {}
    for tree in trees:
        groups.setdefault(tuple(tree.constraint_features), []).append(tree)
    effects = []
    for tag, group in groups.items():
        breakpoints, values = _effect_table(group, tag)
        if len(tag) == 1:
            effects.append(ShapeFunction(tag[0], *breakpoints, values))
        else:
            effects.append(InteractionSurface(tag, *breakpoints, values))
    return effects


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters and stopping rules shared by all three stages; checked when made."""

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

    @classmethod
    def from_json(cls, data) -> "TrainConfig":
        """The checked config of a JSON object of ``TrainConfig`` fields."""
        return cls(**_known_keys(data, [f.name for f in fields(cls)], "config"))

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            accepts, kind = _FIELD_TYPES.get(f.type, (None, None))
            value = getattr(self, f.name)
            if accepts and not accepts(value):
                raise ModelError(f"invalid config: {f.name} must be {kind}, got {value!r}")
            if f.type == "float" and not _finite(value):
                raise ModelError(f"invalid config: {f.name} must be finite, got {value!r}")
            if f.type == "int" and not -2**63 <= value < 2**63:
                raise ModelError(f"invalid config: {f.name} must be a 64-bit integer, "
                                 f"got {value!r}")
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
            replace(self, **overrides, stage3_overrides=None)
        except ModelError as exc:
            raise ModelError(f"{exc} (in stage3_overrides)") from None

    def for_stage3(self) -> "TrainConfig":
        if not self.stage3_overrides:
            return self
        return replace(self, **self.stage3_overrides, stage3_overrides=None)


def _training_log(entries) -> list[tuple[int, int, float]]:
    """The stored ``[stage, round, NDCG]`` entries; each must be two integers
    and a finite number (no bools, no strings)."""
    values = _numbers(entries, 2, "training_log")
    if entries and (values.shape[1] != 3 or not np.isfinite(values).all()
                    or any(type(v) is not int for entry in entries for v in entry[:2])):
        raise ModelError("training_log entries must be [stage, round, NDCG]: "
                         "two integers and a finite number")
    return [(s, r, float(v)) for s, r, v in entries]


@dataclass(frozen=True)
class IlmartModel:
    """A frozen additive ranker, checked when made: a shape per main feature, a surface per pair.

    A row's score is the sum of its lookups, shapes in order and then
    surfaces in order. Those orders are ``main_features`` (J, in order of
    first use by stage 1) and ``interaction_pairs`` (K_set, in the order
    stage 2 nominated the pairs, which is their importance ranking).

    ``main_trees`` and ``interaction_trees`` are the trees the tables were
    summed from: a training artifact, which a loaded model does not have.
    Stages 2 and 3 continue from stage 1's scores, not from its trees.
    """

    num_features: int
    shapes: tuple[ShapeFunction, ...] = ()
    surfaces: tuple[InteractionSurface, ...] = ()
    config: TrainConfig = field(default_factory=TrainConfig)
    dataset_digest: str = ""
    training_log: tuple[tuple[int, int, float], ...] = ()
    best_valid_ndcg: float | None = None
    main_trees: tuple = ()
    interaction_trees: tuple = ()

    __reduce__ = _Table.__reduce__

    def __post_init__(self):
        for name in ("shapes", "surfaces", "training_log", "main_trees", "interaction_trees"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        j_set = set(self.main_features)
        for effect in self.shapes + self.surfaces:
            if not all(1 <= f <= self.num_features for f in effect.features):
                raise ModelError(f"{effect.key}: feature outside 1..{self.num_features}")
            if not j_set.issuperset(effect.features):
                raise ModelError(f"constraint violation: pair {effect.features} breaks the "
                                 "heredity requirement")
        if len(j_set) != self.p:
            raise ModelError("constraint violation: duplicate main-effect feature")
        if len(set(self.interaction_pairs)) != self.num_interactions:
            raise ModelError("constraint violation: duplicate pair")
        bound = 0.0     # no score exceeds it, summed as scoring sums the terms
        for effect in self.shapes + self.surfaces:
            bound += float(np.abs(effect.values).max())
        if not math.isfinite(bound):
            raise ModelError("scores can overflow: the sum over tables of each table's largest "
                             "absolute value is not finite")

    @classmethod
    def from_trees(cls, num_features: int, main_trees, interaction_trees=(),
                   **fields) -> "IlmartModel":
        """The model whose tables sum the sequences ``main_trees`` and
        ``interaction_trees`` by constraint tag (see :func:`tables`)."""
        return cls(num_features, tables(main_trees), tables(interaction_trees),
                   main_trees=main_trees, interaction_trees=interaction_trees, **fields)

    @classmethod
    def from_json(cls, data) -> "IlmartModel":
        """The model of a parsed model file, with every invariant checked.

        Anything that is not a well-formed model file of this schema version
        raises :class:`ModelError`. The model has no trees.
        """
        version = data.get("version") if isinstance(data, dict) else None
        if version != MODEL_SCHEMA_VERSION:
            raise ModelError(f"unsupported model schema version {version!r}, "
                             f"expected {MODEL_SCHEMA_VERSION}")
        try:
            _known_keys(data, ("version", "config", "main_effects", "pair_effects",
                               "training_log", "metadata"), "model file")
            metadata = _known_keys(data["metadata"],
                                   ("num_features", "dataset_digest", "best_valid_ndcg"),
                                   "metadata")
            best = metadata.get("best_valid_ndcg")
            if best is not None and not np.isfinite(_numbers([best], 1, "best_valid_ndcg")).all():
                raise ModelError("best_valid_ndcg must be finite")
            num_features = metadata["num_features"]
            if type(num_features) is not int or num_features < 0:
                raise ModelError(f"num_features must be a non-negative integer, "
                                 f"got {num_features!r}")
            digest = metadata.get("dataset_digest", "")
            if not isinstance(digest, str):
                raise ModelError(f"dataset_digest must be a string, got {digest!r}")
            return cls(
                num_features=num_features,
                shapes=[ShapeFunction.from_json(e) for e in data["main_effects"]],
                surfaces=[InteractionSurface.from_json(e) for e in data["pair_effects"]],
                config=TrainConfig.from_json(data["config"]),
                dataset_digest=digest,
                training_log=_training_log(data["training_log"]),
                best_valid_ndcg=best,
            )
        except KeyError as exc:
            raise ModelError(f"malformed model file, missing key {exc}") from None
        except ModelError:          # a ValueError, passed on as it is
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"malformed model file ({exc})") from None

    def to_json(self) -> dict:
        return {
            "version": MODEL_SCHEMA_VERSION,
            "config": asdict(self.config),
            "main_effects": [s.to_json() for s in self.shapes],
            "pair_effects": [s.to_json() for s in self.surfaces],
            "training_log": [[s, r, v] for s, r, v in self.training_log],
            "metadata": {
                "num_features": self.num_features,
                "dataset_digest": self.dataset_digest,
                "best_valid_ndcg": self.best_valid_ndcg,
            },
        }

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
        if features.ndim != 2:
            raise ModelError(f"features must be an array of shape (rows, features), "
                             f"got shape {features.shape}")
        if features.shape[1] < self.num_features:
            raise ModelError(
                f"dataset has {features.shape[1]} features, model needs {self.num_features}"
            )
        return features

    @cached_property
    def _scoring_index(self):
        """What :meth:`terms` reads, built once per model: each feature's union of
        breakpoints, and per table one map per axis from union interval to cell."""
        cuts: dict[int, list] = {}
        for effect in self.shapes + self.surfaces:
            for f, bp in zip(effect.features, effect.axes):
                cuts.setdefault(f, [[-np.inf]]).append(bp)
        # Union interval u covers (cuts[u], cuts[u+1]] (empty at a repeat), as in
        # lookup_batch; an axis's cell there counts its breakpoints <= cuts[u].
        cuts = {f: np.sort(np.concatenate(bps)) for f, bps in cuts.items()}
        tables = [(effect, [bp.searchsorted(cuts[f], side="right")
                            for f, bp in zip(effect.features, effect.axes)])
                  for effect in self.shapes + self.surfaces]
        return {f: c[1:] for f, c in cuts.items()}, tables

    def terms(self, features: np.ndarray):
        """Yield ``(table, term)`` for every table, shapes in order and then
        surfaces: ``term`` is the table's value for every row of a feature
        matrix, bit for bit its ``lookup_batch`` of the rows' columns.

        Each feature is binned once for all the tables that read it, against
        the union of their breakpoints on it, and each table maps that union
        interval to its own cell through an index built once per model.
        """
        features = self._check_width(features)
        unions, tables = self._scoring_index
        bins = {f: np.searchsorted(u, features[:, f - 1], side="left")
                for f, u in unions.items()}
        for effect, maps in tables:
            yield effect, effect.values[tuple(m[bins[f]] for f, m in zip(effect.features, maps))]

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = self._check_width(features)
        out = np.zeros(features.shape[0], dtype=np.float64)
        for _, term in self.terms(features):
            out += term
        return out

    def scores_by_pair_rank(self, features: np.ndarray):
        """Yield the main-effect scores, then the running scores after each pair.

        The k-th array (from 0) scores the model cut to its first k pairs in
        ``interaction_pairs`` order; the last equals :meth:`predict_batch`
        bit for bit.
        """
        features = self._check_width(features)
        scores = np.zeros(features.shape[0], dtype=np.float64)
        terms = self.terms(features)
        for _, term in itertools.islice(terms, self.p):
            scores += term
        yield scores.copy()
        for _, term in terms:
            scores += term
            yield scores.copy()
