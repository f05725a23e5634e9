"""The benchmark's workloads: data generators plus a training config each.

The training and validation splits of a workload are the same in every run,
like a fixed training corpus. ``--seed`` draws the held-out data: the test
split, written to a LETOR file that is parsed, scored, evaluated and
explained, and a larger quality split for test NDCG@10 (more queries than a
file the timed loop can afford to parse). The quality split is generated,
scored and dropped one chunk at a time, so that it does not set the
process's peak memory. With the
training data fixed, the trained model is too, so the cost of scoring and
explaining it does not swing with the seed: on ``planted``, which pairs
stage 2 nominates and how many stage-3 trees early stopping keeps vary from
seed to seed (8 to 44 kept trees over seeds 11-15), and distillation cost
grows with both. Round counts are fixed as well (early-stopping patience
equals the round cap), and stage 2 stops after a fixed number of pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ilmart import Dataset, TrainConfig

from datagen import web30k_shaped
from synthdata import planted_interaction

# Generator seeds of the fixed training and validation splits.
TRAIN_SEED, VALID_SEED = 1000, 2000


@dataclass(frozen=True)
class Workload:
    name: str                   # also the generator: "planted" | "web30k_shaped"
    train_queries: int
    valid_queries: int
    test_queries: int
    quality_queries: int
    quality_chunk: int          # quality queries generated at a time
    cfg: TrainConfig
    # Back-to-back passes of the eval and explain paths in one timed region,
    # so that each region lasts about a second or more and these short paths
    # get enough of the run to average out the host's noise within it.
    eval_passes: int
    explain_passes: int
    # Set-ups per run; the cheaper the set-up, the more it takes to average
    # out the host's load.
    setups: int
    # Features that stage 1 must select as main effects, and the pair that
    # stage 2 must nominate first (None: no check).
    required_main: frozenset[int] = frozenset()
    first_pair: tuple[int, int] | None = None

    def _make(self, queries: int, seed: int) -> Dataset:
        if self.name == "planted":
            return planted_interaction(queries, 40, seed=seed)
        return web30k_shaped(queries, seed=seed)

    def _seeds(self, seed: int) -> list[int]:
        """Generator seeds drawn from ``seed``: the test split's, then one per quality chunk."""
        chunks = -(-self.quality_queries // self.quality_chunk)
        return [int(s) for s in np.random.SeedSequence(seed).generate_state(1 + chunks)]

    def splits(self, seed: int) -> dict[str, Dataset]:
        return {"train": self._make(self.train_queries, TRAIN_SEED),
                "valid": self._make(self.valid_queries, VALID_SEED),
                "test": self._make(self.test_queries, self._seeds(seed)[0])}

    def quality_chunks(self, seed: int):
        """Yield the quality split of ``seed`` as datasets of ``quality_chunk`` queries."""
        left = self.quality_queries
        for chunk_seed in self._seeds(seed)[1:]:
            yield self._make(min(left, self.quality_chunk), chunk_seed)
            left -= self.quality_chunk


def _fixed_rounds(rounds1: int, rounds3: int, **kwargs) -> TrainConfig:
    return TrainConfig(
        early_stopping_rounds=rounds1, max_rounds_per_stage=rounds1,
        stage3_overrides={"early_stopping_rounds": rounds3, "max_rounds_per_stage": rounds3},
        **kwargs,
    )


# Criterion 5's acceptance_config (tests/test_acceptance.py) with the round
# counts fixed and the pair target cut from 6 to 2, so that stage 2 is a
# couple of rounds instead of the 9 to 52 it took to find all 6 pairs.
PLANTED_CFG = _fixed_rounds(
    40, 30, num_leaves=32, learning_rate=0.1, stage2_max_rounds=150,
    max_interactions=2, min_data_in_leaf=20, max_leaf_output=2.0,
)

WEB30K_CFG = _fixed_rounds(
    15, 6, num_leaves=32, learning_rate=0.1, stage2_max_rounds=150,
    max_interactions=2, min_data_in_leaf=20, max_leaf_output=2.0,
)

WORKLOADS = {
    w.name: w for w in (
        Workload("planted", 80, 40, 100, 200, 100, PLANTED_CFG,
                 eval_passes=8, explain_passes=2, setups=32,
                 required_main=frozenset({1, 2, 4, 5}), first_pair=(4, 5)),
        # 60 training queries: the longest reaches the 1000-document clip.
        Workload("web30k_shaped", 60, 15, 20, 480, 30, WEB30K_CFG,
                 eval_passes=4, explain_passes=160, setups=8),
    )
}
