"""Alternating A/B runs of the benchmark: a parent commit against the working tree.

Run from the repository root::

    python3 scripts/bench_pairs.py --pairs 10 --seed 1801 --out BENCH_NEW.json

For each workload that ``BENCHMARK.json`` lists and for each of ``--pairs``
seeds (``--seed``, ``--seed + 1``, ...), it runs ``bench/run.py --trace 0``
once on the parent's files and once on the working tree's, one process at a
time, for ``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` is given.
The side that runs first alternates from pair to pair, so that a drift of
the host over the session loads both sides alike. The parent's files
(``--parent``, default ``HEAD``) are unpacked with ``git archive`` into a
temporary directory, which leaves the repository's own metadata untouched
and is removed at the end.

The output file holds every run's last stdout line (the bench's JSON result)
with its side, order and wall time, and a summary per workload and
end-to-end metric: each side's median and quartiles (the inclusive method
of ``statistics.quantiles``), the change's wins and losses over the pairs
(a pair is won when the change's value is better in the metric's direction
from ``BENCHMARK.json``), the relative change of the medians, and whether
the medians differ, in the better direction, by more than the parent's
interquartile range. It is rewritten after every pair, so an interrupted
session keeps the pairs it finished. The script only reads ``bench/`` and
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, dest: str) -> str:
    """The files of commit ``rev``, unpacked into ``dest``; its full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "archive", "--output", archive, full], cwd=ROOT, check=True)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return full


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` process in ``checkout``: its result, exit
    code and wall time."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if out.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"returncode": out.returncode, "wall_s": time.perf_counter() - start,
            "result": result, "stderr_tail": out.stderr.strip().splitlines()[-3:]}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, wins and losses."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        done = [p for p in pairs.values() if len(p) == 2]
        ok = [p for p in done if all(p[s]["result"] for s in ("parent", "change"))]
        entry = {"pairs": len(done),
                 "failed_runs": sum(1 for p in done for s in p.values() if not s["result"]),
                 "failed_checks": sum(s["result"]["failed"] for p in ok for s in p.values()),
                 "correct": all(s["result"]["correct"] for p in ok for s in p.values())}
        for name, direction in better.items():
            parent = [p["parent"]["result"]["metrics"][name]["value"] for p in ok]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in ok]
            if not parent:
                continue
            sign = 1.0 if direction == "higher" else -1.0
            pq1, _, pq3 = _quartiles(parent)
            cq1, _, cq3 = _quartiles(change)
            pm, cm = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
                "change_median": cm, "change_q1": cq1, "change_q3": cq3,
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "change_losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(parent),
                "relative_change": (cm - pm) / pm if pm else None,
                "gain_beyond_parent_iqr": sign * (cm - pm) > pq3 - pq1,
            }
        summary[workload] = entry
    return summary


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float,
                   help="each run's --seconds (default BENCHMARK.json's run_seconds)")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default every one in BENCHMARK.json)")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ilmart-pairs-") as tmp:
        parent = unpack(args.parent, tmp)
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        doc = {"description": "Alternating bench/run.py pairs, parent files against the "
                              "working tree, one process at a time.",
               "parent": parent,
               "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                          f"--seconds {seconds:g} --trace 0"}
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    run = run_bench(checkouts[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "order": position, **run})
                    print(f"{workload} seed {seed} {side}: exit {run['returncode']}, "
                          f"{run['wall_s']:.0f} s", flush=True)
                doc["summary"] = summarize(runs, spec)
                doc["runs"] = runs
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
