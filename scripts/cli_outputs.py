"""Every CLI command's outputs on the ``tests/test_cli.py`` fixture, written to a directory.

Run from the repository root::

    python3 scripts/cli_outputs.py OUT_DIR

It writes the fixture's three LETOR files (``planted_interaction`` with 100,
30 and 30 queries of 20 documents, seeds 80-82) and its config file into
``OUT_DIR/data``, then runs ``ilmart`` from ``src/`` of the checkout the
script sits in: ``train`` as the fixture's ``trained_dir`` does and again
with ``--interactions 0``, then ``eval``, ``predict``, ``export-shapes``
(csv and json), ``compare`` (the two models, on the 30-query test file, so
the Monte Carlo path runs) and ``sweep-interactions``. Each command runs in
its own process with ``OUT_DIR`` as its working directory and relative
paths, and its stdout goes to ``OUT_DIR/<name>.stdout``; a command that
fails stops the script. A change that must leave the CLI's outputs
bit-identical leaves ``diff -r`` of two such directories, one from each
checkout, empty. The whole run takes about 4 s on 2 cores.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRAIN = ["--interactions", "4", "--num-leaves", "8", "--early-stopping", "8",
         "--min-data-in-leaf", "10", "--config", "data/config.json"]
COMMANDS = [
    ("train", ["train", "--train", "data/train.txt", "--valid", "data/valid.txt",
               "--out", "run", *TRAIN]),
    ("train-stage1", ["train", "--train", "data/train.txt", "--valid", "data/valid.txt",
                      "--out", "run-stage1", *TRAIN, "--interactions", "0"]),
    ("eval", ["eval", "--model", "run/model.json", "--data", "data/test.txt",
              "--cutoffs", "1,5,10"]),
    ("predict", ["predict", "--model", "run/model.json", "--data", "data/test.txt",
                 "--out", "predict.csv"]),
    ("export-csv", ["export-shapes", "--model", "run/model.json", "--data", "data/test.txt",
                    "--out", "export-csv"]),
    ("export-json", ["export-shapes", "--model", "run/model.json", "--data", "data/test.txt",
                     "--out", "export-json", "--format", "json"]),
    ("compare", ["compare", "--model-a", "run/model.json", "--model-b", "run-stage1/model.json",
                 "--data", "data/test.txt"]),
    ("sweep", ["sweep-interactions", "--model", "run/model.json", "--data", "data/test.txt",
               "--out", "sweep.csv"]),
]


def write_fixture(data: pathlib.Path) -> None:
    """The LETOR files and config file of the ``tests/test_cli.py`` fixtures."""
    from synthdata import planted_interaction
    from test_cli import _write_config

    data.mkdir(parents=True, exist_ok=True)
    for name, queries, seed in (("train", 100, 80), ("valid", 30, 81), ("test", 30, 82)):
        planted_interaction(queries, 20, seed=seed).save_svmlight(data / f"{name}.txt")
    _write_config(data)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out_dir", help="directory to write the outputs into")
    out = pathlib.Path(p.parse_args(argv).out_dir).resolve()
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests")]
    write_fixture(out / "data")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for name, command in COMMANDS:
        with open(out / f"{name}.stdout", "w", encoding="utf-8") as fh:
            done = subprocess.run([sys.executable, "-m", "ilmart.cli", *command], cwd=out,
                                  env=env, stdout=fh, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        print(name, "ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
