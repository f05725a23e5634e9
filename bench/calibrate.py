"""Reference kernel that measures the host's current speed.

The machines the benchmark runs on share their host, whose load makes the
same work up to 2x slower for seconds to minutes at a time (CPU time equals
wall time there, so the slowdown is not time spent descheduled). The
benchmark runs this fixed kernel between its timed regions and divides
every timing by how slow the kernel ran over the run, relative to
:data:`NOMINAL_S`.

The kernel imitates the mix of work ilmart does, without calling ilmart (so
that a change to the library cannot move it): a Python loop over short
queries doing small-matrix numpy work, a longer query's n x n buffers,
histogram sums over binned columns, and text parsing of LETOR-like lines.
Its inputs are built once, at import.
"""
from __future__ import annotations

import time

import numpy as np

# Reference host speed: timings are reported as if the kernel took this
# long. On the machine the baseline in README.md was measured on (2-vCPU VM,
# Python 3.11, numpy 2.4, OpenBLAS on one thread) its mean over a run was
# 0.012 to 0.023 s. Changing it rescales every reported timing, so it stays
# fixed from one version of the benchmark to the next.
NOMINAL_S = 0.015

_rng = np.random.default_rng(12345)
_SHORT = [(_rng.random(40), _rng.integers(0, 3, 40)) for _ in range(150)]
_LONG = _rng.random(400)
_BINS = _rng.integers(0, 64, size=(10000, 60), dtype=np.uint8)
_GRAD = _rng.standard_normal(10000)
_LINES = [" ".join([str(int(g))] + ["qid:7"] + [f"{f}:{v:.4f}" for f, v in
                                                enumerate(_rng.random(10), 1)])
          for g in _rng.integers(0, 3, 350)]


def _kernel() -> float:
    acc = 0.0
    for s, lab in _SHORT:
        d = s[:, None] - s[None, :]
        rho = 1.0 / (1.0 + np.exp(d))
        lam = np.where(lab[:, None] > lab[None, :], rho, 0.0)
        acc += float(lam.sum(axis=1).sum() - lam.sum(axis=0).max())
    for _ in range(3):
        d = _LONG[:, None] - _LONG[None, :]
        acc += float(np.abs(d * (1.0 / (1.0 + np.exp(d)))).sum(axis=0).max())
    for col in range(_BINS.shape[1]):
        hist = np.bincount(_BINS[:, col], weights=_GRAD, minlength=64)
        acc += float(np.cumsum(hist).max())
    for line in _LINES:
        fields = line.split()
        acc += float(fields[0]) + sum(float(f.split(":")[1]) for f in fields[2:])
    return acc


class HostSpeed:
    """Times the kernel on demand and keeps the durations."""

    def __init__(self):
        self.durations: list[float] = []
        # The first call, untimed, warms the kernel up.
        self.expected = _kernel()

    def measure(self) -> None:
        start = time.perf_counter()
        result = _kernel()
        self.durations.append(time.perf_counter() - start)
        if result != self.expected:
            raise RuntimeError("reference kernel gave a different result")

    def slowdown(self) -> float:
        """Mean kernel time so far, as a multiple of NOMINAL_S."""
        return sum(self.durations) / len(self.durations) / NOMINAL_S

    def summary(self) -> dict:
        return {"measures": len(self.durations), "nominal_s": NOMINAL_S,
                "kernel_min_s": min(self.durations), "kernel_max_s": max(self.durations),
                "slowdown": self.slowdown()}
