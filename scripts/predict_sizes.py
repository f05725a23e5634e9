"""``predict_batch`` time by batch size: a parent commit against the working tree.

Run from the repository root::

    python3 scripts/predict_sizes.py --rounds 5 --out predict_sizes.json

The parent's files (``--parent``, default ``HEAD``) are unpacked with ``git
archive`` into a temporary directory, as ``scripts/bench_pairs.py`` does.
The parent's code trains each bench workload's model on its fixed training
and validation splits (``bench/workloads.py``) and saves it once; both sides
then load and score those same files. Each round runs one worker process
per side, one at a time, and the side that runs first alternates from round
to round. A worker imports the library from ``src/`` of its side's checkout
and, for each model, times ``predict_batch`` on the first 1, 40, 100 and
1,000 rows and on the whole of the workload's test split (``--seed``): the
best of ``--repeats`` timings of ``--number`` back-to-back calls on one
loaded model (``warm``), and the first call after a fresh ``load_model``
(``first``, best of ``--repeats`` loads). The report gives each side's best
over all rounds, in microseconds per call, and the ratio of the parent's
time to the change's (above 1: the change is faster).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (1, 40, 100, 1000, None)        # None: the whole test split


def worker(args) -> None:
    """Train and save the models (``--make``) or time them, in this process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(args.checkout, d) for d in ("src", "tests", "bench")]
    from ilmart import load_model, save_model, train_ilmart
    from workloads import WORKLOADS

    result = {}
    for name, w in WORKLOADS.items():
        path = os.path.join(args.models, f"{name}.json")
        splits = w.splits(args.seed)
        if args.make:
            save_model(train_ilmart(splits["train"], splits["valid"], w.cfg), path)
            continue
        test = splits["test"].features
        times = {}
        for size in SIZES:
            X = test[:size].copy()
            first = float("inf")
            for _ in range(args.repeats):
                model = load_model(path)
                t0 = time.perf_counter()
                model.predict_batch(X)
                first = min(first, time.perf_counter() - t0)
            warm = float("inf")
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                for _ in range(args.number):
                    model.predict_batch(X)
                warm = min(warm, (time.perf_counter() - t0) / args.number)
            times[str(len(X))] = {"warm": warm * 1e6, "first": first * 1e6}
        result[name] = times
    print(json.dumps(result))


def run_worker(checkout: str, models: str, args, make: bool = False) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--checkout", checkout,
           "--models", models, "--seed", str(args.seed), "--repeats", str(args.repeats),
           "--number", str(args.number)] + (["--make"] if make else [])
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"worker failed in {checkout}:\n{out.stderr}")
    return {} if make else json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--rounds", type=int, default=5, help="worker pairs (default 5)")
    p.add_argument("--repeats", type=int, default=7, help="timings per size per worker")
    p.add_argument("--number", type=int, default=200, help="calls per timing")
    p.add_argument("--seed", type=int, default=1, help="bench seed of the test split")
    p.add_argument("--out", help="JSON file to write (default: none)")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--make", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--checkout", help=argparse.SUPPRESS)
    p.add_argument("--models", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args)
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pairs import unpack

    with tempfile.TemporaryDirectory(prefix="ilmart-sizes-") as tmp:
        parent = unpack(args.parent, tmp)
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        models = os.path.join(tmp, "models")
        os.makedirs(models)
        run_worker(checkouts["parent"], models, args, make=True)
        best: dict[str, dict] = {"parent": {}, "change": {}}
        for r in range(args.rounds):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                for name, times in run_worker(checkouts[side], models, args).items():
                    for size, kinds in times.items():
                        kept = best[side].setdefault(name, {}).setdefault(size, kinds)
                        for kind, us in kinds.items():
                            kept[kind] = min(kept[kind], us)
            print(f"round {r + 1} of {args.rounds} done", file=sys.stderr, flush=True)
    report = {"parent": parent, "rounds": args.rounds, "repeats": args.repeats,
              "number": args.number, "seed": args.seed, "cpus": os.cpu_count(),
              "us_per_call": best}
    print(f"{'':<20} {'warm: parent us':>16} {'change us':>10} {'ratio':>6}"
          f" {'first: parent us':>17} {'change us':>10} {'ratio':>6}")
    for name, sizes in best["parent"].items():
        for size, p in sizes.items():
            c = best["change"][name][size]
            print(f"{name:<14} {size:>5} {p['warm']:>16.1f} {c['warm']:>10.1f} "
                  f"{p['warm'] / c['warm']:>6.2f} {p['first']:>17.1f} {c['first']:>10.1f} "
                  f"{p['first'] / c['first']:>6.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
