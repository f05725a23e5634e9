"""The model's effect tables, and the views analysts read from them.

A trained model is a sum of exact piecewise-constant tables: one step
function per main feature and one value grid per feature pair. Training
builds each table from the trees of its effect (the breakpoints are the union
of their split thresholds), model files store the tables, and scoring sums
their lookups: the model IS its plots. Exports are raw tree sums,
deliberately not mean-centered.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import json
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .dataset import Dataset

if TYPE_CHECKING:
    from .trainer import IlmartModel


class ModelError(ValueError):
    """Invalid model file or violated model invariant."""


def _interval_index(breakpoints: np.ndarray, x) -> np.ndarray:
    # Interval b covers (breakpoints[b-1], breakpoints[b]], matching the
    # trees' "value <= threshold goes left" routing.
    return np.searchsorted(breakpoints, x, side="left")


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

    def check(self) -> None:
        """Refuse a table whose lookups are not defined, or not finite."""
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


@dataclass
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
        shape = cls(feature, _numbers(data["breakpoints"], 1, f"main_{feature}: breakpoints"),
                    _numbers(data["values"], 1, f"main_{feature}: values"))
        shape.check()
        return shape

    @property
    def features(self) -> tuple[int]:
        return (self.feature,)

    def to_json(self) -> dict:
        return {"feature": self.feature, "breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}

    def lookup_batch(self, x: np.ndarray) -> np.ndarray:
        return self.values[_interval_index(self.breakpoints, x)]

    def contribution(self, features: np.ndarray) -> np.ndarray:
        """This effect's term for every row of a feature matrix."""
        return self.lookup_batch(features[:, self.feature - 1])


@dataclass
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
        surface = cls(pair, _numbers(data["breakpoints_i"], 1, f"{what}: breakpoints_i"),
                      _numbers(data["breakpoints_j"], 1, f"{what}: breakpoints_j"),
                      _numbers(data["values"], 2, f"{what}: values"))
        surface.check()
        return surface

    @property
    def features(self) -> tuple[int, int]:
        return self.pair

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "breakpoints_i": self.breakpoints_i.tolist(),
                "breakpoints_j": self.breakpoints_j.tolist(), "values": self.values.tolist()}

    def lookup_batch(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        a = _interval_index(self.breakpoints_i, xi)
        b = _interval_index(self.breakpoints_j, xj)
        return self.values[a, b]

    def contribution(self, features: np.ndarray) -> np.ndarray:
        """This effect's term for every row of a feature matrix."""
        return self.lookup_batch(features[:, self.pair[0] - 1], features[:, self.pair[1] - 1])


@dataclass
class EffectScore:
    kind: str                   # "main" | "pair"
    features: tuple[int, ...]
    importance: float
    rank: int


def _effect_table(trees, features) -> tuple[list[np.ndarray], np.ndarray]:
    """Sum the trees of one effect into a table over its features' intervals.

    The breakpoints of each feature are the union of the trees' thresholds
    on it. Every leaf adds its value to the box of cells whose inputs reach
    it: a split on ``threshold == breakpoints[m]`` sends cells ``<= m`` left
    and the rest right. Trees are walked in order, so each cell receives
    exactly the sum, in tree order, that scoring any input in it would.
    """
    breakpoints = [np.unique(np.concatenate([t.thresholds_for(f) for t in trees]
                                            + [np.empty(0)])) for f in features]
    values = np.zeros(tuple(b.size + 1 for b in breakpoints))
    axis = {f: k for k, f in enumerate(features)}
    cuts = [b.tolist() for b in breakpoints]

    for tree in trees:
        stack = [(tree.root, tuple((0, n) for n in values.shape))]
        while stack:
            node, box = stack.pop()
            if node < 0:
                values[tuple(slice(lo, hi) for lo, hi in box)] += tree.leaf_value[~node]
                continue
            k = axis[tree.split_feature[node]]
            lo, hi = box[k]
            cut = bisect.bisect_left(cuts[k], tree.threshold[node]) + 1
            stack.append((tree.right_child[node], box[:k] + ((max(lo, cut), hi),) + box[k + 1:]))
            stack.append((tree.left_child[node], box[:k] + ((lo, min(hi, cut)),) + box[k + 1:]))
    return breakpoints, values


def effect_from_trees(features: tuple[int, ...], trees) -> ShapeFunction | InteractionSurface:
    """The table of one effect, summed from its trees: a shape for one
    feature, a surface for a pair."""
    breakpoints, values = _effect_table(trees, features)
    if len(features) == 1:
        return ShapeFunction(features[0], *breakpoints, values)
    return InteractionSurface(tuple(features), *breakpoints, values)


def distill_shapes(model: IlmartModel) -> tuple[list[ShapeFunction], list[InteractionSurface]]:
    """The model's tables: one shape per main feature and one surface per pair."""
    return list(model.shapes), list(model.surfaces)


def effect_importance(model: IlmartModel, reference: Dataset) -> list[EffectScore]:
    """Mean absolute contribution of each effect over a reference dataset,
    in rank order.

    Ranks start at 1 for the largest importance; exact ties resolve by
    effect kind then feature ids, so the ordering is reproducible.
    """
    if reference.num_rows == 0:
        raise ValueError("reference dataset is empty")
    raw = []
    for effect in model.shapes + model.surfaces:
        contrib = effect.contribution(reference.features)
        raw.append((effect.kind, effect.features, float(np.mean(np.abs(contrib)))))
    raw.sort(key=lambda e: (-e[2], e[0] != "main", e[1]))
    return [EffectScore(kind, feats, imp, rank) for rank, (kind, feats, imp) in enumerate(raw, 1)]


def export_shapes(shapes, surfaces, out_dir, fmt: str = "csv",
                  importance: list[EffectScore] | None = None,
                  top: int | None = None) -> list[str]:
    """Write one file per effect plus an index listing importance ranks.

    With ``top``, only the first ``top`` effects of ``importance`` (as
    :func:`effect_importance` returns it, in rank order) are exported.
    Returns the written file paths.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if top is not None and importance is None:
        raise ValueError("exporting top-N effects requires importance scores")
    if top is not None and top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    os.makedirs(out_dir, exist_ok=True)

    ranked = {}
    if importance is not None:
        ranked = {(e.kind, e.features): e for e in importance}
    keep = None
    if top is not None:
        keep = {(e.kind, e.features) for e in importance[:top]}

    written = []
    index = []
    for effect in list(shapes) + list(surfaces):
        ident = (effect.kind, effect.features)
        if keep is not None and ident not in keep:
            continue
        path = os.path.join(out_dir, f"{effect.key}.{fmt}")
        if fmt == "csv":
            uppers = [np.append(b, np.inf) for b in effect.axes]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([a.replace("breakpoints", "upper_bound") for a in effect.AXES]
                                + ["value"])
                for cell in itertools.product(*(range(u.size) for u in uppers)):
                    writer.writerow([repr(float(u[c])) for u, c in zip(uppers, cell)]
                                    + [repr(float(effect.values[cell]))])
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(effect.to_json(), fh)
        written.append(path)
        entry = {"effect": effect.key, "kind": effect.kind, "features": list(effect.features),
                 "file": os.path.basename(path)}
        if ident in ranked:
            entry["importance"] = ranked[ident].importance
            entry["rank"] = ranked[ident].rank
        index.append(entry)

    index_path = os.path.join(out_dir, f"index.{fmt}")
    if fmt == "json":
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump({"effects": index}, fh, indent=1)
    else:
        with open(index_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["effect", "kind", "features", "file", "importance", "rank"])
            for e in index:
                writer.writerow([
                    e["effect"], e["kind"], " ".join(map(str, e["features"])), e["file"],
                    repr(e["importance"]) if "importance" in e else "",
                    e.get("rank", ""),
                ])
    written.append(index_path)
    return written


def _read_json(path, what: str):
    """The parsed JSON file at ``path``; :class:`ModelError` if it is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the json
        # module can parse, which no file written here has.
        raise ModelError(f"{path}: not a JSON {what} ({exc})") from None


def import_shapes(out_dir) -> tuple[list[ShapeFunction], list[InteractionSurface]]:
    """Read back a JSON export; the inverse of :func:`export_shapes`.

    Each effect file goes through the checked conversion that
    :func:`~ilmart.trainer.load_model` uses, and the index is checked as
    strictly, so a damaged export raises :class:`ModelError` here.
    """
    index = _known_keys(_read_json(os.path.join(out_dir, "index.json"), "shape index"),
                        ("effects",), "shape index")
    shapes, surfaces = [], []
    try:
        for entry in index["effects"]:
            _known_keys(entry, ("effect", "kind", "features", "file", "importance", "rank"),
                        "shape index entry")
            if entry["kind"] not in ("main", "pair"):
                raise ModelError(f"shape index entry kind must be main or pair, "
                                 f"got {entry['kind']!r}")
            data = _read_json(os.path.join(out_dir, entry["file"]), "effect file")
            if entry["kind"] == "main":
                shapes.append(ShapeFunction.from_json(data))
            else:
                surfaces.append(InteractionSurface.from_json(data))
    except KeyError as exc:
        raise ModelError(f"{out_dir}: malformed shape export, missing key {exc}") from None
    return shapes, surfaces
