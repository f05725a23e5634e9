"""ilmart benchmark: train, evaluate and explain on generated workloads.

Run from the repository root::

    python3 bench/run.py --workload planted --seed 1 --seconds 60 --trace 0

``--workload`` is ``planted`` or ``web30k_shaped`` (see bench/README.md).
The run sets up its inputs several times, spread over the run (set-up time
is the mean of all but the first), and repeats the workload's timed steps
until ``--seconds`` have passed since the start (and at least four times),
checking every repeat's outputs. Timings are means over the repeats after
the first, scaled by the host's speed over the run, which a fixed reference
kernel measures between the timed regions (see calibrate.py). With
``--trace 0`` it reports the end-to-end metrics, measured
with only the three stage functions wrapped; with ``--trace 1`` it wraps
every layer's entry points, alternates untraced and traced repeats, and
reports per-layer metrics from the traced ones. An info line goes to stdout
first; the last stdout line is the JSON result. The library is imported
from ``src/`` of the checkout the script sits in, so a run without the
sources fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPEATS = 4
# Reference-kernel timings taken before each timed region.
HOST_MEASURES = 2
CUTOFFS = (1, 5, 10)
# Bound of the additive identity: predict == sum of table lookups.
ADDITIVE_TOL = 1e-9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    """Import ilmart from this checkout, single-threaded, and fail if absent."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import ilmart

    src = os.path.join(ROOT, "src", "ilmart")
    if os.path.dirname(os.path.abspath(ilmart.__file__)) != src:
        raise SystemExit(f"ilmart imported from {ilmart.__file__}, expected {src}")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_omp_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "processes": 1,
    }


def _steady_mean(values: list[float]) -> float:
    """Mean of the samples after the first.

    The first set-up or repeat in a process runs about 40% slower (heap
    growth, first calls), so it is left out. The mean, not the median: the
    machines this runs on share their host, whose load switches between
    states that slow everything by up to 2x for seconds to minutes, and the
    median of a run flips between those states where the mean averages them
    over the same stretch of time as the host-speed measures.
    """
    return statistics.fmean(values[1:])


class Checks:
    """Correctness checks; each one run counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


class Bench:
    def __init__(self, workload, seed: int, trace: bool, work: str):
        import numpy as np
        from ilmart import dataset, interpret, metrics, trainer, trees

        from calibrate import HostSpeed
        from datagen import size_summary
        from tracer import Tracer

        self.np = np
        self.dataset, self.interpret, self.metrics = dataset, interpret, metrics
        self.trainer = trainer
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.model_path = os.path.join(work, "model.json")
        self.test_path = os.path.join(work, "test.txt")
        self.shapes_dir = os.path.join(work, "shapes")
        self.check = Checks()
        self.host = HostSpeed()
        self.tracer = t = Tracer()
        # Stage timers: three calls per training run, also when not tracing.
        t.wrap(trainer, "train_main_effects", "trainer.stage1",
               measure=lambda m: len(m.main_trees), always=True)
        t.wrap(trainer, "select_interactions", "trainer.stage2",
               measure=lambda pairs: [list(p) for p in pairs], always=True)
        t.wrap(trainer, "train_interaction_effects", "trainer.stage3",
               measure=lambda m: len(m.interaction_trees), always=True)
        if trace:
            # Wrapped where the trainer and the benchmark look them up.
            t.wrap(trainer, "build_bins", "dataset.build_bins")
            t.wrap(trainer, "compute_lambdas", "lambdas.compute_lambdas")
            t.wrap(trainer, "fit_tree", "trees.fit_tree", measure=lambda tr: int(tr.is_stump))
            t.wrap(trees.DecisionTree, "predict_batch", "trees.predict_batch", measure=len)
            t.wrap(trainer.QueryEvaluator, "mean", "metrics.QueryEvaluator.mean")
            t.wrap(trainer, "train_ilmart", "trainer.train_ilmart")
            t.wrap(trainer, "save_model", "trainer.save_model")
            t.wrap(trainer, "load_model", "trainer.load_model")
            t.wrap(dataset, "load_svmlight", "dataset.load_svmlight",
                   measure=lambda ds: ds.num_rows)
            t.wrap(metrics, "mean_ndcg", "metrics.mean_ndcg")
            t.wrap(interpret, "distill_shapes", "interpret.distill_shapes")
            t.wrap(interpret, "effect_importance", "interpret.effect_importance")
            t.wrap(interpret, "export_shapes", "interpret.export_shapes")
        # phase name -> [(wall seconds, per-name span summary, traced?)]
        self.phases: dict[str, list] = {}
        self.samples: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.eval_ndcg10: float | None = None
        self.first_model = None
        self.size_summary = size_summary

    # -- helpers -----------------------------------------------------------

    def _phase(self, name: str, fn, passes: int = 1):
        """Run ``fn`` ``passes`` times back to back in one span.

        Returns the last result and the wall time per pass; the span summary
        is kept per pass as well.
        """
        from tracer import summarize

        self._measure_host()
        with self.tracer.span(f"phase.{name}") as span:
            for _ in range(passes):
                result = fn()
        spans = self.tracer.spans
        wall = (spans[span.index][2] - spans[span.index][1]) / passes
        summary = {layer: {k: v / passes for k, v in entry.items()}
                   for layer, entry in summarize(spans, span.index).items()}
        self.phases.setdefault(name, []).append((wall, summary, self.tracer.enabled))
        return result, wall

    def _measure_host(self) -> None:
        for _ in range(HOST_MEASURES):
            self.host.measure()

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- phases ------------------------------------------------------------

    def setup(self, index: int) -> None:
        self._measure_host()
        start = time.perf_counter()
        splits = self.w.splits(self.seed)
        if index == 0:
            self.data = {name: self.size_summary(ds, self.w.cfg.truncation)
                         for name, ds in splits.items()}
            self.data["quality"] = {"queries": self.w.quality_queries,
                                    "chunk": self.w.quality_chunk}
        else:
            self.check(all(ds.digest() == getattr(self, name).digest()
                           for name, ds in splits.items()),
                       "set-up regenerates identical data")
        for name, ds in splits.items():
            setattr(self, name, ds)
        self.test.save_svmlight(self.test_path)
        self.setup_s.append(time.perf_counter() - start)

    def train_once(self) -> None:
        model, wall = self._phase(
            "train", lambda: self.trainer.train_ilmart(self.train, self.valid, self.w.cfg))
        self._sample("train_s", wall)
        stages = self.phases["train"][-1][1]
        for k in (1, 2, 3):
            entry = stages.get(f"trainer.stage{k}")
            self.check(entry is not None and entry["calls"] == 1, f"stage {k} ran once")
            if entry is not None:
                self._sample(f"stage{k}_s", entry["s"])
        missing = self.w.required_main - set(model.main_features)
        self.check(not missing, f"stage 1 selects features {sorted(self.w.required_main)}"
                                f" (missing {sorted(missing)})")
        nominated = [tuple(p) for p in self.tracer.last("trainer.stage2")[4]]
        if self.w.first_pair is not None:
            self.check(nominated[:1] == [self.w.first_pair],
                       f"stage 2 nominates {self.w.first_pair} first (got {nominated})")
        scores = model.predict_batch(self.test.features)
        if self.first_model is None:
            self.first_model = model
        else:
            self.check(self.np.array_equal(scores, self.reference),
                       "retraining gives bit-identical test scores")
        self.model, self.reference = model, scores
        self.model_summary = {
            "main_features": model.main_features,
            "nominated_pairs": nominated,
            "rounds": [sum(1 for s, _, _ in model.training_log if s == k) for k in (1, 2, 3)],
            "main_trees": len(model.main_trees),
            "interaction_trees": len(model.interaction_trees),
        }

    def quality_ndcg10(self, model) -> float:
        """Mean NDCG@10 of ``model`` over the quality split, a chunk at a time."""
        per_query = [
            self.metrics.mean_ndcg(model.predict_batch(ds.features), ds, (10,)).per_query[10]
            for ds in self.w.quality_chunks(self.seed)]
        return float(self.np.mean(self.np.concatenate(per_query)))

    def save(self) -> None:
        traced = self.tracer.enabled
        self.tracer.enabled = self.trace or traced
        self._phase("save", lambda: self.trainer.save_model(self.model, self.model_path))
        self.tracer.enabled = traced

    def evaluate(self):
        timer = {"load": 0.0, "predict": 0.0}
        outputs = []

        def run():
            model = self.trainer.load_model(self.model_path)
            t0 = time.perf_counter()
            ds = self.dataset.load_svmlight(self.test_path, num_features=model.num_features)
            t1 = time.perf_counter()
            scores = model.predict_batch(ds.features)
            timer["load"] += t1 - t0
            timer["predict"] += time.perf_counter() - t1
            report = self.metrics.mean_ndcg(scores, ds, CUTOFFS)
            outputs.append((scores, report.mean[10]))
            return model, ds, scores

        passes = self.w.eval_passes
        (model, ds, scores), wall = self._phase("eval", run, passes)
        self._sample("eval_s", wall)
        self._sample("load_s", timer["load"] / passes)
        self._sample("predict_s", timer["predict"] / passes)
        self.eval_rows = ds.num_rows
        for scores_k, ndcg10 in outputs:
            self.check(self.np.array_equal(scores_k, self.reference),
                       "load_model(save_model(m)) scores bit-identically")
            if self.eval_ndcg10 is None:
                self.eval_ndcg10 = ndcg10
            self.check(ndcg10 == self.eval_ndcg10,
                       f"eval NDCG@10 repeats ({ndcg10!r} vs {self.eval_ndcg10!r})")
        return model, ds, scores

    def explain(self, model, ds, scores) -> None:
        np = self.np

        def run():
            shapes, surfaces = self.interpret.distill_shapes(model)
            return shapes, surfaces, self.interpret.effect_importance(model, ds)

        (shapes, surfaces, importance), wall = self._phase("explain", run,
                                                           self.w.explain_passes)
        self._sample("explain_s", wall)
        # The CSV export runs once per repeat, outside explain_s: its small-file
        # writes time the host's filesystem, whose noise the reference kernel
        # does not cancel (see README "Noise"). The traced run still times it.
        self._phase("export", lambda: self.interpret.export_shapes(
            shapes, surfaces, self.shapes_dir, fmt="csv", importance=importance))
        X = ds.features
        t0 = time.perf_counter()
        table = np.zeros(ds.num_rows)
        for s in shapes:
            table += s.lookup_batch(X[:, s.feature - 1])
        for s in surfaces:
            table += s.lookup_batch(X[:, s.pair[0] - 1], X[:, s.pair[1] - 1])
        self._sample("lookup_s", time.perf_counter() - t0)
        gap = float(np.max(np.abs(scores - table)))
        self.check(gap <= ADDITIVE_TOL, f"max |predict - sum of lookups| = {gap:.3g}")

    def repeat_once(self, first: bool) -> None:
        self.train_once()
        if first:
            self.save()
        self.explain(*self.evaluate())

    # -- run ---------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Set up, then repeat until ``seconds`` have passed since the start.

        Set-ups after the first regenerate identical inputs; they are spread
        over the run, at equal shares of ``seconds``, so that they meet the
        same host load as the repeats. A repeat that would end past the
        deadline, judged by the previous one, is not started, except to
        reach MIN_REPEATS. When tracing, every second repeat is traced and
        the others measure the same work untraced.
        """
        start = time.perf_counter()
        deadline = start + seconds
        total = self.w.setups
        self.setup(0)
        setups, n, last = 1, 0, 0.0
        while n < MIN_REPEATS or time.perf_counter() + last < deadline:
            while setups < total and time.perf_counter() >= start + seconds * setups / total:
                self.setup(setups)
                setups += 1
            self.tracer.enabled = not self.trace or n % 2 == 1
            t0 = time.perf_counter()
            self.repeat_once(first=n == 0)
            last = time.perf_counter() - t0
            n += 1
        for index in range(setups, total):
            self.setup(index)
        self._measure_host()
        self.repeats = n
        # Test NDCG@10 of the first and the last model trained, outside the
        # timed regions; the two must agree exactly.
        self.tracer.enabled = False
        self.test_ndcg10 = self.quality_ndcg10(self.first_model)
        last = self.quality_ndcg10(self.model)
        self.check(last == self.test_ndcg10,
                   f"test NDCG@10 repeats ({last!r} vs {self.test_ndcg10!r})")
        if self.trace:
            self.tracer.check_called()
        self.tracer.unwrap_all()

    def _time(self, samples: list[float]) -> float:
        """Steady mean of ``samples``, in seconds at the reference host speed."""
        return _steady_mean(samples) / self.host.slowdown()

    def end_to_end(self) -> dict:
        m = {name: self._time(self.samples[name]) for name in (
            "train_s", "stage1_s", "stage2_s", "stage3_s", "eval_s", "explain_s")}
        m["load_rows_per_s"] = self.eval_rows / self._time(self.samples["load_s"])
        m["predict_rows_per_s"] = self.eval_rows / self._time(self.samples["predict_s"])
        m["setup_s"] = self._time(self.setup_s)
        m["test_ndcg10"] = self.test_ndcg10
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return m

    def per_layer(self) -> dict:
        med = statistics.median
        slowdown = self.host.slowdown()

        def agg(name: str, field: str = "s") -> float:
            # Median over traced runs of each phase, summed over phases;
            # times at the reference host speed, like the end-to-end ones.
            total = 0.0
            for runs in self.phases.values():
                traced = [summary for _, summary, on in runs if on]
                if traced:
                    total += med(s.get(name, {}).get(field, 0) for s in traced)
            return total / slowdown if field in ("s", "self_s") else total

        def train_s(traced: bool) -> float:
            return min(wall for wall, _, on in self.phases["train"] if on == traced) / slowdown

        m = {}
        for layer in ("dataset.load_svmlight", "dataset.build_bins", "lambdas.compute_lambdas",
                      "trees.fit_tree", "trees.predict_batch", "metrics.QueryEvaluator.mean",
                      "metrics.mean_ndcg", "trainer.load_model", "trainer.save_model",
                      "interpret.distill_shapes", "interpret.effect_importance",
                      "interpret.export_shapes"):
            m[f"{layer}.s"] = agg(layer)
        for layer in ("lambdas.compute_lambdas", "trees.fit_tree", "trees.predict_batch",
                      "metrics.QueryEvaluator.mean"):
            m[f"{layer}.calls"] = agg(layer, "calls")
        for layer in ("lambdas.compute_lambdas", "trees.fit_tree"):
            m[f"{layer}.ms_per_call"] = 1000.0 * m[f"{layer}.s"] / m[f"{layer}.calls"]
        m["dataset.load_svmlight.rows"] = agg("dataset.load_svmlight", "info")
        m["trees.fit_tree.stumps"] = agg("trees.fit_tree", "info")
        m["trees.predict_batch.rows"] = agg("trees.predict_batch", "info")
        m["lambdas.pair_cells"] = self.data["train"]["pair_cells"]
        m["lambdas.nonzero_pair_share"] = self.data["train"]["nonzero_pair_share"]
        for k in (1, 2, 3):
            m[f"trainer.stage{k}.self_s"] = agg(f"trainer.stage{k}", "self_s")
        for k in (1, 3):
            m[f"trainer.stage{k}.rounds_fitted"] = agg("trees.fit_tree", f"within.trainer.stage{k}")
            m[f"trainer.stage{k}.trees_kept"] = agg(f"trainer.stage{k}", "info")
        m["trainer.stage3.kept_ratio"] = (m["trainer.stage3.trees_kept"]
                                          / m["trainer.stage3.rounds_fitted"])
        m["interpret.lookup_rows_per_s"] = self.eval_rows / self._time(self.samples["lookup_s"])
        m["trace.overhead_s"] = train_s(True) - train_s(False)
        m["trace.overhead_share"] = m["trace.overhead_s"] / train_s(False)
        return m


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    bench_dir = os.path.join(HERE, ".work")
    work = os.path.join(bench_dir, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), work)
        bench.run(args.seconds)
        if args.trace:
            bench.tracer.write(os.path.join(bench_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = bench.per_layer() if args.trace else bench.end_to_end()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_info(), "data": bench.data, "model": bench.model_summary,
        "setups": len(bench.setup_s),
        "setup_s": bench.setup_s,
        "samples": bench.samples,
        "host": bench.host.summary(),
        "repeats": bench.repeats, "failed_checks": bench.check.failures,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not bench.check.failures,
        "attempted": bench.check.attempted,
        "failed": len(bench.check.failures),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
