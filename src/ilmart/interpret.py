"""The views analysts read from a model's tables (:mod:`ilmart.model`): the
effects ranked by mean absolute contribution on reference data, and each
table exported as a CSV or JSON file with an index of the ranks. Exports are
raw tree sums, deliberately not mean-centered.
"""
from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .model import IlmartModel, InteractionSurface, ShapeFunction


@dataclass
class EffectScore:
    kind: str                   # "main" | "pair"
    features: tuple[int, ...]
    importance: float
    rank: int


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
    for effect, term in model.terms(reference.features):
        raw.append((effect.kind, effect.features, float(np.mean(np.abs(term)))))
    raw.sort(key=lambda e: (-e[2], e[0] != "main", e[1]))
    return [EffectScore(kind, feats, imp, rank) for rank, (kind, feats, imp) in enumerate(raw, 1)]


def export_shapes(shapes, surfaces, out_dir, fmt: str = "csv",
                  importance: list[EffectScore] | None = None,
                  top: int | None = None) -> list[str]:
    """Write one file per effect plus an index listing importance ranks.

    With ``top``, only the first ``top`` effects of ``importance`` (as
    :func:`effect_importance` returns it, in rank order) are exported.
    Returns the written file paths. A JSON effect file holds the table's
    ``to_json`` object, which its class's ``from_json`` reads back.
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

