import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def probe():
    """``scripts/scale_probe.py`` loaded as a module, with ``bench/`` importable."""
    spec = importlib.util.spec_from_file_location(
        "scale_probe", os.path.join(ROOT, "scripts", "scale_probe.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "bench"))
        yield module


def test_scale_probe_runs_the_training_layers(probe, tmp_path):
    # The probe builds the trainer's private booster itself, so it breaks
    # whenever that constructor changes; run its layers on a tiny dataset.
    shape = probe.generate(str(tmp_path), 5)
    assert shape["width"] == 136 and shape["rows"] > 0
    for layer in ("lambda_plan", "round", "pair_round"):
        result = probe.run_layer(str(tmp_path), layer)
        assert result["s"] >= 0 and result["peak_growth_bytes"] >= 0
