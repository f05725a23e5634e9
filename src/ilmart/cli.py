"""Command line front end: train, evaluate, predict, export, compare, sweep.

Exit codes: 0 on success, 2 for usage/config/data problems, 1 for anything
unexpected. Every artifact a command writes embeds the fully resolved
configuration so runs can be reproduced from their outputs alone.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys
from dataclasses import asdict

from .dataset import Dataset, DatasetError, load_svmlight
from .interpret import effect_importance, export_shapes
from .metrics import DEFAULT_CUTOFFS, mean_ndcg
from .model import IlmartModel, ModelError, TrainConfig, read_json
from .stats import DEFAULT_PERMUTATIONS, fisher_randomization
from .trainer import load_model, save_model, train_ilmart, write_atomically

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

LOCK_NAME = ".ilmart.lock"


class UsageError(ValueError):
    """Bad flags, bad config, missing inputs."""


@contextlib.contextmanager
def _output_lock(out_dir):
    """Create ``out_dir`` if needed and lock it with a sentinel file against concurrent runs."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
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
    if not os.path.isfile(path):
        raise UsageError(f"{what} file not found: {path}")
    return path


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad cutoff list {text!r}") from None
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise UsageError(f"cutoffs must be positive integers, got {text!r}")
    if any(k >= 2**63 for k in cutoffs):      # the NDCG kernels index with int64
        raise UsageError(f"cutoffs must be below 2**63, got {text!r}")
    return cutoffs


def _resolve_train_config(args) -> TrainConfig:
    """Merge defaults < config file (``TrainConfig`` fields only) < CLI flags."""
    merged = read_json(_require_file(args.config, "config"), "config file") if args.config else {}
    if not isinstance(merged, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    overrides = {
        "num_leaves": args.num_leaves,
        "learning_rate": args.learning_rate,
        "early_stopping_rounds": args.early_stopping,
        "max_interactions": args.interactions,
        "max_bins": args.max_bins,
        "min_data_in_leaf": args.min_data_in_leaf,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig.from_json(merged)


def _load(args, *models: tuple[str, str]) -> tuple[list[IlmartModel], Dataset]:
    """Load the ``(what, path)`` model files, then ``--data`` at the widest
    model's width, or at ``--num-features``."""
    loaded = [load_model(_require_file(path, what)) for what, path in models]
    width = max(m.num_features for m in loaded)
    num_features = width if args.num_features is None else args.num_features
    if num_features < width:
        raise UsageError(f"--num-features {num_features} is below the model width {width}")
    return loaded, load_svmlight(_require_file(args.data, "dataset"), num_features=num_features)


def _open_out(path):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    _require_file(args.train, "training data")
    _require_file(args.valid, "validation data")

    train = load_svmlight(args.train, num_features=args.num_features)
    valid = load_svmlight(args.valid, num_features=train.num_features)
    with _output_lock(args.out):
        model = train_ilmart(train, valid, cfg)
        model_path = os.path.join(args.out, "model.json")
        save_model(model, model_path)
        log_path = os.path.join(args.out, "training_log.csv")
        with write_atomically(log_path) as fh:
            fh.write("# config: " + json.dumps(asdict(cfg), sort_keys=True) + "\n")
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
    cutoffs = _parse_cutoffs(args.cutoffs)
    [model], ds = _load(args, ("model", args.model))
    report = mean_ndcg(model.predict_batch(ds.features), ds, cutoffs)
    out = sys.stdout
    out.write(f"# model: {args.model} p={model.p} K={model.num_interactions}\n")
    out.write(report.to_csv())
    return EXIT_OK


def cmd_predict(args) -> int:
    [model], ds = _load(args, ("model", args.model))
    scores = model.predict_batch(ds.features)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_index", "qid", "score"])
        writer.writerows([i, qid, repr(float(score))] for i, (qid, score) in
                         enumerate(zip(ds.qids, scores)))
    return EXIT_OK


def cmd_export_shapes(args) -> int:
    if args.top is not None and args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    [model], ds = _load(args, ("model", args.model))
    importance = effect_importance(model, ds)
    with _output_lock(args.out):
        written = export_shapes(model.shapes, model.surfaces, args.out, fmt=args.format,
                                importance=importance, top=args.top)
    print(f"wrote {len(written)} file(s) to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.permutations < 1 or args.seed < 0:
        raise UsageError(f"--permutations must be >= 1 and --seed >= 0, "
                         f"got {args.permutations} and {args.seed}")
    cutoffs = _parse_cutoffs(args.cutoffs)
    (model_a, model_b), ds = _load(args, ("model A", args.model_a), ("model B", args.model_b))
    report_a = mean_ndcg(model_a.predict_batch(ds.features), ds, cutoffs)
    report_b = mean_ndcg(model_b.predict_batch(ds.features), ds, cutoffs)
    out = sys.stdout
    out.write(f"# compare: A={args.model_a} B={args.model_b} "
              f"permutations={args.permutations} seed={args.seed}\n")
    out.write("cutoff,mean_ndcg_a,mean_ndcg_b,diff,p_value,significant\n")
    for k in cutoffs:
        result = fisher_randomization(report_a.per_query[k], report_b.per_query[k],
                                      num_permutations=args.permutations, seed=args.seed)
        marker = "*" if result.p_value < 0.05 else ""
        out.write(f"{k},{report_a.mean[k]!r},{report_b.mean[k]!r},"
                  f"{result.mean_difference!r},{result.p_value!r},{marker}\n")
    return EXIT_OK


def cmd_sweep_interactions(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    if args.step < 1:
        raise UsageError(f"step must be >= 1, got {args.step}")
    [model], ds = _load(args, ("model", args.model))
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
    p_train.add_argument("--train", required=True, help="training data (LETOR/SVMLight)")
    p_train.add_argument("--valid", required=True, help="validation data for early stopping")
    p_train.add_argument("--out", default=".", help="output directory (default .)")
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
