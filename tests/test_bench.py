import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_traced_smoke_run():
    # One short traced run: it fails when an entry point the tracer wraps
    # moves, or when retraining, save/load or the additive identity stops
    # reproducing scores bit for bit.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planted", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
