"""The sha256 of the saved model of seven fixed training runs.

Run from the repository root::

    python3 scripts/model_digests.py

Each line is ``<name> <sha256>``: the ``save_model`` file of one
``train_ilmart`` run. ``planted`` and ``web30k_shaped`` train on the bench
workload's fixed training and validation splits under its config
(``bench/workloads.py``). ``acceptance-0`` to ``acceptance-4`` train on
``planted_interaction(500, 40, seed=1000 + s)`` with
``planted_interaction(100, 40, seed=2000 + s)`` for validation, under
``acceptance_config()`` of ``tests/test_acceptance.py``: the runs of the
acceptance fixture. A change that must leave models bit-identical leaves
all seven lines unchanged. The whole run takes about 35 s on 2 cores. The
library is imported from ``src/`` of the checkout the script sits in.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2, 3, 4)


def runs():
    """``(name, train, valid, cfg)`` of each fixed run, built one at a time."""
    from test_acceptance import acceptance_config
    from synthdata import planted_interaction
    from workloads import TRAIN_SEED, VALID_SEED, WORKLOADS

    for name, w in WORKLOADS.items():
        yield name, w._make(w.train_queries, TRAIN_SEED), w._make(w.valid_queries, VALID_SEED), w.cfg
    for s in SEEDS:
        yield (f"acceptance-{s}", planted_interaction(500, 40, seed=1000 + s),
               planted_interaction(100, 40, seed=2000 + s), acceptance_config())


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]
    from ilmart import save_model, train_ilmart

    with tempfile.TemporaryDirectory(prefix="ilmart-digests-") as work:
        path = os.path.join(work, "model.json")
        for name, train, valid, cfg in runs():
            save_model(train_ilmart(train, valid, cfg), path)
            with open(path, "rb") as fh:
                print(name, hashlib.sha256(fh.read()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
