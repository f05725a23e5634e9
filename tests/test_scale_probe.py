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


def test_scale_probe_splits_growth_into_slope_and_intercept(probe):
    # 80 B/row plus 2.5 MB fixed, measured at 4,000 and 1,000 rows
    slope, intercept = probe.fit_line({4000: 80 * 4000 + 2.5e6, 1000: 80 * 1000 + 2.5e6})
    assert slope == pytest.approx(80.0) and intercept == pytest.approx(2.5e6)
    fits = {"load_svmlight": (1200.0, 4e6), "digest": (0.0, 0.0), "build_bins": (200.0, 1e6),
            "lambda_plan": (180.0, 0.0), "round": (30.0, 2.5e6), "pair_round": (35.0, 1e6)}
    # training sets the peak: the matrix, the bins, the plan and the larger
    # round at this size (pair_round's slope outgrows round's intercept)
    rows = 10 ** 6
    want = (1088 + 200 + 180) * rows + 1e6 + max(30 * rows + 2.5e6, 35 * rows + 1e6)
    assert probe.projected_peak(fits, 1088, rows) == pytest.approx(want)
    # the loader's peak wins when it is the largest
    fits["load_svmlight"] = (3000.0, 0.0)
    assert probe.projected_peak(fits, 1088, rows) == pytest.approx(3000.0 * rows)
