"""Time and peak memory of each data and training layer on WEB30K-shaped data.

Run from the repository root::

    python3 scripts/scale_probe.py --queries 1000

It generates ``bench/datagen.web30k_shaped(queries, SEED)`` (1,000 queries
are 117,240 rows of 136 features) and runs each layer in a fresh process:
``save_svmlight``, ``load_svmlight``, ``Dataset.digest``, ``build_bins``, one
``LambdaPlan``, one ``_Booster.round`` of stage 1 (``round``: a single-feature
tree over 136 candidates) and one of stage 3 (``pair_round``: a pair tree on
``PAIR``). A layer's process first reads its inputs from ``.npy`` files
(arrays of exactly their own size), then runs the layer once. Each layer
runs in ``REPEATS`` fresh processes, and the probe reports the medians of
the layer's wall time and of the growth of the process's peak resident set
(``ru_maxrss``) over the layer, in bytes per row, next to the feature
matrix's 8 x 136 bytes per row: one run's seconds swing with the host by
30% or more, while its bytes repeat exactly. The last line
projects the peak of a whole training run onto MSLR-WEB30K Fold1's training
split (``FOLD1_TRAIN_ROWS``), as the largest of: the loader's peak, the
matrix plus the digest, and the matrix plus the bins, the plan and the
larger round. Each layer's fixed cost per block of rows (a few MB) dominates
below about 100,000 rows, so project from 1,000 queries or more.
The library is imported from ``src/`` of the checkout the script sits in;
the temporary files (about 1.75 KB per row of text) go to the system's
temporary directory and are removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FOLD1_TRAIN_ROWS = 2_270_296
SEED = 3
REPEATS = 3
PAIR = (8, 107)
LAYERS = ("save_svmlight", "load_svmlight", "digest", "build_bins", "lambda_plan", "round",
          "pair_round")


def _import_paths() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]


def _peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def generate(work: str, queries: int) -> dict:
    """Write the dataset's arrays, and a small validation set's, to ``work``;
    the training set's shape."""
    import numpy as np
    from datagen import web30k_shaped

    for name, q, s in (("train", queries, SEED), ("valid", max(queries // 10, 1), SEED + 1)):
        ds = web30k_shaped(q, s)
        np.save(os.path.join(work, f"{name}_features.npy"), ds.features)
        np.save(os.path.join(work, f"{name}_labels.npy"), ds.labels)
        np.save(os.path.join(work, f"{name}_qids.npy"), np.array(ds.qids))
        np.save(os.path.join(work, f"{name}_sizes.npy"), ds.query_sizes)
        if name == "train":
            shape = {"rows": ds.num_rows, "width": ds.num_features}
    return shape


def _dataset(work: str, name: str):
    """The saved dataset, built without ``from_rows``'s passes over the matrix
    (the generator writes each query's rows together)."""
    import numpy as np
    from ilmart import Dataset

    sizes = np.load(os.path.join(work, f"{name}_sizes.npy"))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return Dataset(np.load(os.path.join(work, f"{name}_features.npy")),
                   np.load(os.path.join(work, f"{name}_labels.npy")),
                   np.load(os.path.join(work, f"{name}_qids.npy")).tolist(),
                   [np.arange(a, b) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())])


def run_layer(work: str, layer: str) -> dict:
    """Prepare ``layer``'s inputs, then run it once; wall seconds and peak growth."""
    from datagen import NUM_FEATURES
    from ilmart import ConstraintRegime, TrainConfig, build_bins, load_svmlight
    from ilmart import trainer
    from ilmart.lambdas import LambdaPlan

    text = os.path.join(work, "train.txt")
    cfg = TrainConfig()
    if layer == "load_svmlight":
        step = partial(load_svmlight, text, num_features=NUM_FEATURES)
    else:
        train = _dataset(work, "train")
        if layer == "save_svmlight":
            step = partial(train.save_svmlight, text)
        elif layer == "digest":
            step = train.digest
        elif layer == "build_bins":
            step = partial(build_bins, train, cfg.max_bins)
        elif layer == "lambda_plan":
            step = partial(LambdaPlan, train, cfg.truncation)
        else:
            booster = trainer._Booster(train, _dataset(work, "valid"), cfg)
            if layer == "round":
                regime = ConstraintRegime("single", range(1, train.num_features + 1))
            else:
                booster.start_stage(3, cfg.for_stage3())
                regime = ConstraintRegime("pair", PAIR)
            step = partial(booster.round, regime)
    before = _peak_bytes()
    start = time.perf_counter()
    step()
    return {"s": time.perf_counter() - start, "peak_growth_bytes": _peak_bytes() - before}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--layer", choices=("generate",) + LAYERS, help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.layer:
        _import_paths()
        result = (generate(args.work, args.queries) if args.layer == "generate"
                  else run_layer(args.work, args.layer))
        print(json.dumps(result))
        return 0

    def child(layer: str) -> dict:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--layer", layer,
                              "--work", work, "--queries", str(args.queries)],
                             check=True, capture_output=True, text=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    # Every step runs in a child of this small process: a process started
    # from a large one begins with that one's peak (Linux keeps ru_maxrss
    # across exec).
    with tempfile.TemporaryDirectory(prefix="ilmart-probe-") as work:
        shape = child("generate")
        rows, width = shape["rows"], shape["width"]
        matrix = 8 * width
        print(f"{args.queries} queries: {rows} rows x {width} features, "
              f"matrix {matrix * rows / 1e6:.1f} MB ({matrix} B/row)")
        per_row = {}
        for layer in LAYERS:
            runs = [child(layer) for _ in range(REPEATS)]
            seconds = statistics.median(run["s"] for run in runs)
            growth = statistics.median(run["peak_growth_bytes"] for run in runs)
            per_row[layer] = growth / rows
            print(f"{layer:14s} {seconds:8.3f} s  +{growth / 1e6:8.1f} MB"
                  f"  {per_row[layer]:8.1f} B/row  ({per_row[layer] / matrix:.2f}x matrix)")
            if layer == "save_svmlight":
                print(f"{'':14s} file {os.path.getsize(os.path.join(work, 'train.txt')) / 1e6:.1f} MB")
        training = (matrix + per_row["build_bins"] + per_row["lambda_plan"]
                    + max(per_row["round"], per_row["pair_round"]))
        peak = max(per_row["load_svmlight"], matrix + per_row["digest"], training)
        print(f"projected peak at {FOLD1_TRAIN_ROWS} rows: {peak * FOLD1_TRAIN_ROWS / 1e9:.2f} GB "
              f"({peak:.0f} B/row)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
