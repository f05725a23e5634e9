import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(*args):
    """The last JSON line of one ``bench/run.py`` run, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_traced_smoke_run():
    # One short traced run: it fails when an entry point the tracer wraps
    # moves, or when retraining, save/load or the additive identity stops
    # reproducing scores bit for bit.
    result = _bench("--workload", "planted", "--trace", "1")
    assert result["failed"] == 0


def test_benchmark_untraced_smoke_run():
    # The untraced run is the one whose end-to-end metrics gate changes.
    result = _bench("--workload", "web30k_shaped", "--trace", "0")
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
