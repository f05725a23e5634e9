"""Command line front end: train, evaluate, predict, export, compare, sweep.

Exit codes: 0 on success, 2 for usage/config/data problems, 1 for anything
unexpected. Every artifact a command writes embeds the fully resolved
configuration so runs can be reproduced from their outputs alone.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .dataset import Dataset, DatasetError, load_svmlight
from .interpret import distill_shapes, effect_importance, export_shapes
from .metrics import DEFAULT_CUTOFFS, mean_ndcg, per_query_ndcg
from .stats import DEFAULT_PERMUTATIONS, fisher_randomization
from .trainer import (
    IlmartModel,
    ModelError,
    TrainConfig,
    load_model,
    save_model,
    train_ilmart,
    write_atomically,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

LOCK_NAME = ".ilmart.lock"


class UsageError(ValueError):
    """Bad flags, bad config, missing inputs."""


@contextlib.contextmanager
def _output_lock(out_dir):
    """Sentinel-file lock so concurrent runs cannot share an output dir."""
    path = os.path.join(out_dir, LOCK_NAME)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise UsageError(f"output directory locked by {path}; remove it if stale") from None
    try:
        yield
    finally:
        os.close(fd)
        os.unlink(path)


def _require_file(path, what: str) -> str:
    if path is None:
        raise UsageError(f"missing required {what} path")
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    return path


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad cutoff list {text!r}") from None
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise UsageError(f"cutoffs must be positive integers, got {text!r}")
    return cutoffs


def _resolve_train_config(args) -> tuple[TrainConfig, dict]:
    """Merge defaults < config file < CLI flags, returning (config, file extras)."""
    file_values: dict = {}
    if args.config:
        try:
            with open(_require_file(args.config, "config"), encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"config file {args.config} is not valid JSON ({exc})") from None
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    config_fields = {f.name for f in fields(TrainConfig)}
    merged = {k: v for k, v in file_values.items() if k in config_fields}
    extras = {k: v for k, v in file_values.items() if k not in config_fields}
    overrides = {
        "num_leaves": args.num_leaves,
        "learning_rate": args.learning_rate,
        "early_stopping_rounds": args.early_stopping,
        "max_interactions": args.interactions,
        "max_bins": args.max_bins,
        "min_data_in_leaf": args.min_data_in_leaf,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = TrainConfig(**merged)
        cfg.validate()
    except TypeError as exc:
        raise UsageError(f"bad config: {exc}") from None
    return cfg, extras


def _load_for_model(path, model: IlmartModel, num_features) -> Dataset:
    d = num_features if num_features is not None else model.num_features
    ds = load_svmlight(path, num_features=d)
    if ds.num_features < model.num_features:
        raise UsageError(
            f"dataset {path} has {ds.num_features} features, model needs {model.num_features}"
        )
    return ds


def _config_comment(cfg: TrainConfig) -> str:
    return "# config: " + json.dumps(asdict(cfg), sort_keys=True)


def _open_out(path):
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def cmd_train(args) -> int:
    cfg, extras = _resolve_train_config(args)
    train_path = args.train or extras.get("train")
    valid_path = args.valid or extras.get("valid")
    out_dir = args.out or extras.get("out") or "."
    _require_file(train_path, "training data")
    _require_file(valid_path, "validation data")

    train = load_svmlight(train_path, num_features=args.num_features)
    valid = load_svmlight(valid_path, num_features=train.num_features)
    os.makedirs(out_dir, exist_ok=True)
    with _output_lock(out_dir):
        model = train_ilmart(train, valid, cfg)
        model_path = os.path.join(out_dir, "model.json")
        save_model(model, model_path)
        log_path = os.path.join(out_dir, "training_log.csv")
        with write_atomically(log_path) as fh:
            fh.write(_config_comment(cfg) + "\n")
            fh.write("round,stage,valid_ndcg\n")
            for stage, rnd, ndcg in model.training_log:
                fh.write(f"{rnd},{stage},{ndcg!r}\n")
    print(
        f"trained model: {len(model.main_trees)} main trees on p={model.p} features, "
        f"{len(model.interaction_trees)} interaction trees on K={model.num_interactions} pairs"
    )
    print(f"wrote {model_path} and {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(_require_file(args.model, "model"))
    ds = _load_for_model(_require_file(args.data, "dataset"), model, args.num_features)
    cutoffs = _parse_cutoffs(args.cutoffs)
    report = mean_ndcg(model.predict_dataset(ds), ds, cutoffs)
    out = sys.stdout
    out.write(f"# model: {args.model} p={model.p} K={model.num_interactions}\n")
    out.write(report.to_csv())
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(_require_file(args.model, "model"))
    ds = _load_for_model(_require_file(args.data, "dataset"), model, args.num_features)
    scores = model.predict_dataset(ds)
    with _open_out(args.out) as fh:
        fh.write("row_index,qid,score\n")
        for i, (qid, score) in enumerate(zip(ds.qids, scores)):
            fh.write(f"{i},{qid},{float(score)!r}\n")
    return EXIT_OK


def cmd_export_shapes(args) -> int:
    model = load_model(_require_file(args.model, "model"))
    ds = _load_for_model(_require_file(args.data, "dataset"), model, args.num_features)
    shapes, surfaces = distill_shapes(model)
    importance = effect_importance(model, ds)
    os.makedirs(args.out, exist_ok=True)
    with _output_lock(args.out):
        written = export_shapes(shapes, surfaces, args.out, fmt=args.format,
                                importance=importance, top=args.top)
    print(f"wrote {len(written)} file(s) to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    model_a = load_model(_require_file(args.model_a, "model A"))
    model_b = load_model(_require_file(args.model_b, "model B"))
    ds = _load_for_model(_require_file(args.data, "dataset"), model_a, args.num_features)
    if ds.num_features < model_b.num_features:
        raise UsageError("dataset is too narrow for model B")
    cutoffs = _parse_cutoffs(args.cutoffs)
    scores_a = model_a.predict_dataset(ds)
    scores_b = model_b.predict_dataset(ds)
    out = sys.stdout
    out.write(f"# compare: A={args.model_a} B={args.model_b} "
              f"permutations={args.permutations} seed={args.seed}\n")
    out.write("cutoff,mean_ndcg_a,mean_ndcg_b,diff,p_value,significant\n")
    for k in cutoffs:
        pq_a = per_query_ndcg(scores_a, ds, k)
        pq_b = per_query_ndcg(scores_b, ds, k)
        result = fisher_randomization(pq_a, pq_b, num_permutations=args.permutations,
                                      seed=args.seed)
        marker = "*" if result.p_value < 0.05 else ""
        out.write(f"{k},{float(np.mean(pq_a))!r},{float(np.mean(pq_b))!r},"
                  f"{result.mean_difference!r},{result.p_value!r},{marker}\n")
    return EXIT_OK


def cmd_sweep_interactions(args) -> int:
    model = load_model(_require_file(args.model, "model"))
    ds = _load_for_model(_require_file(args.data, "dataset"), model, args.num_features)
    cutoffs = _parse_cutoffs(args.cutoffs)
    if args.step < 1:
        raise UsageError(f"step must be >= 1, got {args.step}")
    total = model.num_interactions
    with _open_out(args.out) as fh:
        fh.write(f"# model: {args.model} K={total}\n")
        fh.write("num_interactions," + ",".join(f"ndcg@{k}" for k in cutoffs) + "\n")
        for k_enabled, scores in enumerate(model.scores_by_pair_rank(ds.features)):
            if k_enabled % args.step and k_enabled != total:
                continue
            report = mean_ndcg(scores, ds, cutoffs)
            row = ",".join(repr(report.mean[k]) for k in cutoffs)
            fh.write(f"{k_enabled},{row}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilmart",
        description="Interpretable LambdaMART: additively constrained boosted ranking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_data(p):
        p.add_argument("--num-features", type=int, default=None,
                       help="force the feature dimensionality")

    p_train = sub.add_parser("train", help="run the training pipeline")
    p_train.add_argument("--train", help="training data (LETOR/SVMLight)")
    p_train.add_argument("--valid", help="validation data for early stopping")
    p_train.add_argument("--out", help="output directory (default .)")
    p_train.add_argument("--config", help="JSON config file; flags override it")
    p_train.add_argument("--interactions", type=int, default=None,
                         help="maximum interaction pairs (0 disables stages 2 and 3)")
    p_train.add_argument("--num-leaves", type=int, default=None)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--early-stopping", type=int, default=None,
                         help="rounds without improvement before a stage stops")
    p_train.add_argument("--max-bins", type=int, default=None)
    p_train.add_argument("--min-data-in-leaf", type=int, default=None)
    add_common_data(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="mean NDCG of a model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--cutoffs", default=",".join(map(str, DEFAULT_CUTOFFS)))
    add_common_data(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="write per-row scores")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", help="output CSV (default stdout)")
    add_common_data(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_exp = sub.add_parser("export-shapes", help="export distilled effect tables")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--data", required=True,
                       help="reference dataset for importance ranking")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--top", type=int, default=None,
                       help="export only the N most important effects")
    add_common_data(p_exp)
    p_exp.set_defaults(func=cmd_export_shapes)

    p_cmp = sub.add_parser("compare", help="significance test between two models")
    p_cmp.add_argument("--model-a", required=True)
    p_cmp.add_argument("--model-b", required=True)
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--cutoffs", default=",".join(map(str, DEFAULT_CUTOFFS)))
    p_cmp.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS)
    p_cmp.add_argument("--seed", type=int, default=42)
    add_common_data(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep-interactions",
                           help="NDCG as interaction pairs are enabled one rank at a time")
    p_swp.add_argument("--model", required=True)
    p_swp.add_argument("--data", required=True)
    p_swp.add_argument("--step", type=int, default=1)
    p_swp.add_argument("--out", help="output CSV (default stdout)")
    p_swp.add_argument("--cutoffs", default=",".join(map(str, DEFAULT_CUTOFFS)))
    add_common_data(p_swp)
    p_swp.set_defaults(func=cmd_sweep_interactions)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DatasetError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_RUNTIME
    except Exception as exc:  # keep the promise of exit code 1 for runtime faults
        logger.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
