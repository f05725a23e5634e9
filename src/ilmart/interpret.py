"""Exact piecewise-constant views of a trained model, for analysts and plots.

All trees sharing one feature collapse into a single step function (the
breakpoints are the union of their split thresholds), and all trees sharing a
feature pair collapse into one value grid. Summing the lookups over every
effect reproduces the model score, which is the whole point: the model IS its
plots. Exports are raw tree sums, deliberately not mean-centered.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .trainer import IlmartModel


def _interval_index(breakpoints: np.ndarray, x) -> np.ndarray:
    # Interval b covers (breakpoints[b-1], breakpoints[b]], matching the
    # trees' "value <= threshold goes left" routing.
    return np.searchsorted(breakpoints, x, side="left")


@dataclass
class ShapeFunction:
    """Contribution of one feature: ``values[i]`` on the i-th interval."""

    feature: int
    breakpoints: np.ndarray
    values: np.ndarray

    def lookup(self, x: float) -> float:
        return float(self.lookup_batch(x))

    def lookup_batch(self, x: np.ndarray) -> np.ndarray:
        return self.values[_interval_index(self.breakpoints, x)]


@dataclass
class InteractionSurface:
    """Contribution of a feature pair over a breakpoint-by-breakpoint grid."""

    pair: tuple[int, int]
    breakpoints_i: np.ndarray
    breakpoints_j: np.ndarray
    values: np.ndarray

    def lookup(self, xi: float, xj: float) -> float:
        return float(self.lookup_batch(xi, xj))

    def lookup_batch(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        a = _interval_index(self.breakpoints_i, xi)
        b = _interval_index(self.breakpoints_j, xj)
        return self.values[a, b]


@dataclass
class EffectScore:
    kind: str                   # "main" | "pair"
    features: tuple[int, ...]
    importance: float
    rank: int


@dataclass
class EffectImportance:
    effects: list[EffectScore]

    def by_rank(self) -> list[EffectScore]:
        return sorted(self.effects, key=lambda e: e.rank)


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


def distill_shapes(model: IlmartModel) -> tuple[list[ShapeFunction], list[InteractionSurface]]:
    """Collapse the ensemble into one shape per main feature and one surface per pair."""
    shapes = []
    for f in model.main_features:
        trees = [t for t in model.main_trees if t.used_features[0] == f]
        (breakpoints,), values = _effect_table(trees, (f,))
        shapes.append(ShapeFunction(f, breakpoints, values))
    surfaces = []
    for pair in model.interaction_pairs:
        trees = [t for t in model.interaction_trees if tuple(t.constraint_features) == tuple(pair)]
        (br_i, br_j), values = _effect_table(trees, pair)
        surfaces.append(InteractionSurface(tuple(pair), br_i, br_j, values))
    return shapes, surfaces


def additive_score(shapes, surfaces, features: np.ndarray) -> float:
    """Reassemble a prediction from distilled effects (the exactness oracle)."""
    features = np.asarray(features, dtype=np.float64)
    total = sum(s.lookup(features[s.feature - 1]) for s in shapes)
    total += sum(s.lookup(features[s.pair[0] - 1], features[s.pair[1] - 1]) for s in surfaces)
    return float(total)


def effect_importance(model: IlmartModel, reference: Dataset) -> EffectImportance:
    """Mean absolute contribution of each effect over a reference dataset.

    Ranks start at 1 for the largest importance; exact ties resolve by
    effect kind then feature ids, so the ordering is reproducible.
    """
    if reference.num_rows == 0:
        raise ValueError("reference dataset is empty")
    shapes, surfaces = distill_shapes(model)
    raw = []
    for s in shapes:
        contrib = s.lookup_batch(reference.features[:, s.feature - 1])
        raw.append(("main", (s.feature,), float(np.mean(np.abs(contrib)))))
    for s in surfaces:
        contrib = s.lookup_batch(
            reference.features[:, s.pair[0] - 1], reference.features[:, s.pair[1] - 1]
        )
        raw.append(("pair", s.pair, float(np.mean(np.abs(contrib)))))
    raw.sort(key=lambda e: (-e[2], e[0] != "main", e[1]))
    effects = [EffectScore(kind, feats, imp, rank) for rank, (kind, feats, imp) in enumerate(raw, 1)]
    return EffectImportance(effects)


def _effect_key(kind, features):
    return f"main_{features[0]}" if kind == "main" else f"pair_{features[0]}_{features[1]}"


def export_shapes(shapes, surfaces, out_dir, fmt: str = "csv",
                  importance: EffectImportance | None = None,
                  top: int | None = None) -> list[str]:
    """Write one file per effect plus an index listing importance ranks.

    With ``top``, only the ``top`` highest-ranked effects are exported
    (requires ``importance``). Returns the written file paths.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if top is not None and importance is None:
        raise ValueError("exporting top-N effects requires importance scores")
    os.makedirs(out_dir, exist_ok=True)

    ranked = {}
    if importance is not None:
        ranked = {_effect_key(e.kind, e.features): e for e in importance.effects}
    keep = None
    if top is not None:
        keep = {_effect_key(e.kind, e.features) for e in importance.by_rank()[:top]}

    # (kind, features, JSON head, breakpoints by column suffix, values), mains first
    effects = [("main", (s.feature,), {"feature": s.feature}, {"": s.breakpoints}, s.values)
               for s in shapes]
    effects += [("pair", s.pair, {"pair": list(s.pair)},
                 {"_i": s.breakpoints_i, "_j": s.breakpoints_j}, s.values) for s in surfaces]
    written = []
    index = []
    for kind, features, head, axes, values in effects:
        key = _effect_key(kind, features)
        if keep is not None and key not in keep:
            continue
        path = os.path.join(out_dir, f"{key}.{fmt}")
        if fmt == "csv":
            uppers = [np.append(b, np.inf) for b in axes.values()]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"upper_bound{sfx}" for sfx in axes] + ["value"])
                for cell in itertools.product(*(range(u.size) for u in uppers)):
                    writer.writerow([repr(float(u[c])) for u, c in zip(uppers, cell)]
                                    + [repr(float(values[cell]))])
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**head, **{f"breakpoints{sfx}": b.tolist() for sfx, b in axes.items()},
                           "values": values.tolist()}, fh)
        written.append(path)
        entry = {"effect": key, "kind": kind, "features": list(features),
                 "file": os.path.basename(path)}
        if key in ranked:
            entry["importance"] = ranked[key].importance
            entry["rank"] = ranked[key].rank
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


def import_shapes(out_dir) -> tuple[list[ShapeFunction], list[InteractionSurface]]:
    """Read back a JSON export; the inverse of :func:`export_shapes`."""
    with open(os.path.join(out_dir, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)["effects"]
    shapes, surfaces = [], []
    for entry in index:
        with open(os.path.join(out_dir, entry["file"]), encoding="utf-8") as fh:
            data = json.load(fh)
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in data.items()
                  if k.startswith(("breakpoints", "values"))}
        if entry["kind"] == "main":
            shapes.append(ShapeFunction(int(data["feature"]), arrays["breakpoints"],
                                        arrays["values"]))
        else:
            surfaces.append(InteractionSurface(tuple(int(f) for f in data["pair"]),
                                               arrays["breakpoints_i"], arrays["breakpoints_j"],
                                               arrays["values"]))
    return shapes, surfaces
