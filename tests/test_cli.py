import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ilmart
from ilmart import load_model, load_svmlight, mean_ndcg, save_model
from ilmart.cli import build_parser, main
from ilmart.stats import fisher_randomization

from oracles import additive_score
from synthdata import planted_interaction, single_signal


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = planted_interaction(100, 20, seed=80)
    valid = planted_interaction(30, 20, seed=81)
    test = planted_interaction(30, 20, seed=82)
    paths = {}
    for name, ds in (("train", train), ("valid", valid), ("test", test)):
        p = root / f"{name}.txt"
        ds.save_svmlight(p)
        paths[name] = str(p)
    paths["root"] = root
    return paths


@pytest.fixture(scope="module")
def trained_dir(files):
    out = files["root"] / "run"
    code = main([
        "train", "--train", files["train"], "--valid", files["valid"],
        "--out", str(out), "--interactions", "4", "--num-leaves", "8",
        "--early-stopping", "8", "--min-data-in-leaf", "10",
        "--config", _write_config(files["root"]),
    ])
    assert code == 0
    return out


def _write_config(root):
    cfg = {
        "max_rounds_per_stage": 40,
        "stage2_max_rounds": 25,
        "max_bins": 32,
        "lambdarank_norm": True,
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_writes_model_and_log(trained_dir):
    assert (trained_dir / "model.json").exists()
    log = (trained_dir / "training_log.csv").read_text().splitlines()
    assert log[0].startswith("# config: ")
    echoed = json.loads(log[0].removeprefix("# config: "))
    assert echoed["max_interactions"] == 4
    assert echoed["num_leaves"] == 8
    assert log[1] == "round,stage,valid_ndcg"
    assert len(log) > 2
    assert not (trained_dir / ".ilmart.lock").exists()


def test_train_missing_valid_exits_2(files, capsys):
    code = main(["train", "--train", files["train"], "--valid", "/nope/missing.txt"])
    assert code == 2
    assert "/nope/missing.txt" in capsys.readouterr().err


def test_train_interactions_zero_gives_stage1_model(files, tmp_path):
    out = tmp_path / "plain"
    code = main([
        "train", "--train", files["train"], "--valid", files["valid"],
        "--out", str(out), "--interactions", "0", "--num-leaves", "8",
        "--early-stopping", "5", "--min-data-in-leaf", "10",
        "--config", _write_config(tmp_path),
    ])
    assert code == 0
    model = load_model(out / "model.json")
    assert model.interaction_pairs == []


def test_eval_matches_in_process(trained_dir, files, capsys):
    code = main(["eval", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"], "--cutoffs", "1,5,10"])
    assert code == 0
    out = capsys.readouterr().out
    model = load_model(trained_dir / "model.json")
    ds = load_svmlight(files["test"], num_features=model.num_features)
    report = mean_ndcg(model.predict_batch(ds.features), ds, (1, 5, 10))
    lines = out.splitlines()
    assert lines[0] == f"# model: {trained_dir / 'model.json'} p={model.p} K={model.num_interactions}"
    assert "\n".join(lines[1:]) + "\n" == report.to_csv()


def test_predict_matches_library(trained_dir, files, tmp_path):
    out_file = tmp_path / "scores.csv"
    code = main(["predict", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"], "--out", str(out_file)])
    assert code == 0
    model = load_model(trained_dir / "model.json")
    ds = load_svmlight(files["test"], num_features=model.num_features)
    want = model.predict_batch(ds.features)
    rows = out_file.read_text().splitlines()
    assert rows[0] == "row_index,qid,score"
    assert len(rows) == ds.num_rows + 1
    for i, line in enumerate(rows[1:]):
        idx, qid, score = line.split(",")
        assert int(idx) == i
        assert qid == ds.qids[i]
        assert float(score) == want[i]


def test_predict_without_out_writes_to_stdout(trained_dir, files, tmp_path, capsys):
    argv = ["predict", "--model", str(trained_dir / "model.json"), "--data", files["test"]]
    assert main(argv + ["--out", str(tmp_path / "scores.csv")]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == (tmp_path / "scores.csv").read_text()


def test_predict_quotes_qids_that_need_it(trained_dir, tmp_path):
    data = tmp_path / "odd_qids.txt"
    data.write_text('2 qid:a,b 1:0.9 2:0.1\n0 qid:a,b 1:0.2\n1 qid:"c" 1:0.5 4:0.7\n'
                    '0 qid:plain 1:0.3\n')
    out_file = tmp_path / "scores.csv"
    code = main(["predict", "--model", str(trained_dir / "model.json"),
                 "--data", str(data), "--out", str(out_file)])
    assert code == 0
    model = load_model(trained_dir / "model.json")
    want = model.predict_batch(load_svmlight(data, num_features=model.num_features).features)
    text = out_file.read_text()
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["row_index", "qid", "score"]
    assert [r[:2] for r in rows[1:]] == [["0", "a,b"], ["1", "a,b"], ["2", '"c"'], ["3", "plain"]]
    assert [float(r[2]) for r in rows[1:]] == want.tolist()
    # a qid that needs no quoting is written as before, with repr scores
    assert text.splitlines()[4] == f"3,plain,{float(want[3])!r}"


def test_sweep_endpoints_match_trivial_cases(trained_dir, files, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep-interactions", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"], "--out", str(out_file)])
    assert code == 0
    model = load_model(trained_dir / "model.json")
    ds = load_svmlight(files["test"], num_features=model.num_features)
    rows = list(csv.reader(out_file.read_text().splitlines()[1:]))
    assert rows[0][0] == "num_interactions"
    body = rows[1:]
    assert int(body[0][0]) == 0
    assert int(body[-1][0]) == model.num_interactions

    stage1 = mean_ndcg(replace(model, surfaces=[]).predict_batch(ds.features), ds, (1, 5, 10))
    full = mean_ndcg(model.predict_batch(ds.features), ds, (1, 5, 10))
    for col, k in ((1, 1), (2, 5), (3, 10)):
        assert float(body[0][col]) == stage1.mean[k]
        assert float(body[-1][col]) == full.mean[k]


def test_sweep_step_keeps_every_step_and_the_last_row(trained_dir, files, tmp_path):
    # An odd number of pairs, at least 3: the trained ones, and if they are
    # even, a copy of the first on a new pair.
    model = load_model(trained_dir / "model.json")
    surfaces = list(model.surfaces)
    if len(surfaces) % 2 == 0:
        new_pair = next(pair for pair in itertools.combinations(sorted(model.main_features), 2)
                        if pair not in model.interaction_pairs)
        surfaces.append(replace(surfaces[0], pair=new_pair))
    total = len(surfaces)
    assert total >= 3
    odd = tmp_path / "odd.json"
    save_model(replace(model, surfaces=surfaces), odd)
    rows = {}
    for step in (1, 2):
        out_file = tmp_path / f"sweep{step}.csv"
        assert main(["sweep-interactions", "--model", str(odd), "--data", files["test"],
                     "--step", str(step), "--out", str(out_file)]) == 0
        rows[step] = out_file.read_text().splitlines()
    assert rows[2][0] == f"# model: {odd} K={total}"
    kept = [*range(0, total, 2), total]
    assert [int(line.split(",")[0]) for line in rows[2][2:]] == kept
    assert rows[2][2:] == [rows[1][2 + k] for k in kept]


def test_sweep_on_stage1_model_single_row(files, tmp_path):
    out = tmp_path / "plain2"
    assert main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--interactions", "0", "--num-leaves", "8",
                 "--early-stopping", "5", "--min-data-in-leaf", "10",
                 "--config", _write_config(tmp_path)]) == 0
    sweep = tmp_path / "sweep1.csv"
    assert main(["sweep-interactions", "--model", str(out / "model.json"),
                 "--data", files["test"], "--out", str(sweep)]) == 0
    body = sweep.read_text().splitlines()[2:]
    assert len(body) == 1 and body[0].startswith("0,")


def test_export_shapes_cli(trained_dir, files, tmp_path):
    out = tmp_path / "shapes"
    code = main(["export-shapes", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"], "--out", str(out), "--format", "json"])
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    model = load_model(trained_dir / "model.json")
    assert len(index["effects"]) == model.p + model.num_interactions
    assert all("rank" in e for e in index["effects"])


def test_compare_reports_significance(trained_dir, files, capsys):
    model_path = str(trained_dir / "model.json")
    code = main(["compare", "--model-a", model_path, "--model-b", model_path,
                 "--data", files["test"], "--permutations", "200", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "cutoff,mean_ndcg_a,mean_ndcg_b,diff,p_value,significant"
    for line in out[2:]:
        cells = line.split(",")
        assert cells[1] == cells[2]
        assert float(cells[4]) == 1.0
        assert cells[5] == ""


@pytest.mark.parametrize("flag, value", [("--permutations", "0"), ("--permutations", "-5"),
                                         ("--seed", "-1")])
def test_compare_refuses_bad_permutations_or_seed(trained_dir, files, capsys, flag, value):
    model_path = str(trained_dir / "model.json")
    argv = ["compare", "--model-a", model_path, "--model-b", model_path,
            "--data", files["test"], "--permutations", "200", "--seed", "3"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --permutations must be >= 1 and --seed >= 0") \
        and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command, flags, message", [
    ("eval", ["--cutoffs", "0"], "cutoffs must be positive integers, got '0'"),
    ("compare", ["--cutoffs", "x"], "bad cutoff list 'x'"),
    ("sweep-interactions", ["--cutoffs", "5,-1"], "cutoffs must be positive integers, got '5,-1'"),
    ("sweep-interactions", ["--step", "0"], "step must be >= 1, got 0"),
    ("eval", ["--cutoffs", "99999999999999999999999"],
     "cutoffs must be below 2**63, got '99999999999999999999999'"),
    ("compare", ["--cutoffs", "10,9223372036854775808"],
     "cutoffs must be below 2**63, got '10,9223372036854775808'"),
    ("sweep-interactions", ["--cutoffs", "9223372036854775808"],
     "cutoffs must be below 2**63, got '9223372036854775808'"),
])
def test_bad_flags_exit_2_before_reading_data(trained_dir, tmp_path, capsys, command, flags,
                                              message):
    # The --data path does not exist: the flag is refused before any file is read.
    model_path = str(trained_dir / "model.json")
    models = (["--model-a", model_path, "--model-b", model_path] if command == "compare"
              else ["--model", model_path])
    code = main([command, *models, "--data", str(tmp_path / "missing.txt"), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("top", ["0", "-1"])
def test_export_shapes_refuses_top_below_one(trained_dir, files, tmp_path, capsys, top):
    out = tmp_path / "shapes"
    code = main(["export-shapes", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"], "--out", str(out), "--top", top])
    assert code == 2
    assert capsys.readouterr().err == f"error: --top must be >= 1, got {top}\n"
    assert not out.exists()


def test_compare_p_value_matches_library(trained_dir, files, capsys):
    model_path = str(trained_dir / "model.json")
    stage1_dir = files["root"] / "cmp_stage1"
    assert main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(stage1_dir), "--interactions", "0", "--num-leaves", "8",
                 "--early-stopping", "5", "--min-data-in-leaf", "10",
                 "--config", _write_config(files["root"])]) == 0
    capsys.readouterr()  # drop the train command's output
    other_path = str(stage1_dir / "model.json")
    code = main(["compare", "--model-a", model_path, "--model-b", other_path,
                 "--data", files["test"], "--cutoffs", "10",
                 "--permutations", "500", "--seed", "11"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[2].split(",")
    model_a, model_b = load_model(model_path), load_model(other_path)
    ds = load_svmlight(files["test"], num_features=model_a.num_features)
    pq_a = mean_ndcg(model_a.predict_batch(ds.features), ds, (10,)).per_query[10]
    pq_b = mean_ndcg(model_b.predict_batch(ds.features), ds, (10,)).per_query[10]
    want = fisher_randomization(pq_a, pq_b, num_permutations=500, seed=11)
    assert float(line[4]) == want.p_value


@pytest.fixture(scope="module")
def narrow_model(files):
    """A stage-1 model trained on two features, narrower than ``trained_dir``'s."""
    root = files["root"] / "narrow"
    root.mkdir()
    for name, seed in (("train", 90), ("valid", 91)):
        single_signal(30, 10, seed=seed, num_features=2).save_svmlight(root / f"{name}.txt")
    assert main(["train", "--train", str(root / "train.txt"), "--valid", str(root / "valid.txt"),
                 "--out", str(root), "--interactions", "0", "--num-leaves", "4",
                 "--min-data-in-leaf", "5", "--early-stopping", "5"]) == 0
    return str(root / "model.json")


def test_compare_with_narrower_model_a_scores_both(trained_dir, files, narrow_model, capsys):
    wide_path = str(trained_dir / "model.json")
    capsys.readouterr()
    code = main(["compare", "--model-a", narrow_model, "--model-b", wide_path,
                 "--data", files["test"], "--cutoffs", "5,10", "--permutations", "100"])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    narrow, wide = load_model(narrow_model), load_model(wide_path)
    assert narrow.num_features < wide.num_features
    ds = load_svmlight(files["test"], num_features=wide.num_features)
    report_a = mean_ndcg(narrow.predict_batch(ds.features), ds, (5, 10))
    report_b = mean_ndcg(wide.predict_batch(ds.features), ds, (5, 10))
    assert [(float(r[1]), float(r[2])) for r in rows] == \
        [(report_a.mean[k], report_b.mean[k]) for k in (5, 10)]


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_num_features_below_model_width_exits_2(trained_dir, files, narrow_model, capsys,
                                                command):
    wide_path = str(trained_dir / "model.json")
    models = (["--model", wide_path] if command == "eval"
              else ["--model-a", narrow_model, "--model-b", wide_path])
    width = load_model(wide_path).num_features
    capsys.readouterr()
    code = main([command, *models, "--data", files["test"], "--num-features", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --num-features 2 is below the model width {width}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("width", ["99999999999999999999999", str(2**63), str(2**62)])
def test_num_features_numpy_cannot_shape_exits_2(trained_dir, files, tmp_path, capsys, command,
                                                 width):
    # numpy refuses these widths before allocating: beyond its dimension
    # limit, or a first block of rows beyond the address space.
    args = (["--train", files["train"], "--valid", files["valid"], "--out", str(tmp_path / "o")]
            if command == "train" else
            ["--model", str(trained_dir / "model.json"), "--data", files["test"]])
    capsys.readouterr()
    assert main([command, *args, "--num-features", width]) == 2
    data = files["train" if command == "train" else "test"]
    assert capsys.readouterr().err == \
        f"error: {data}: {width} features are too many for one matrix\n"
    assert not (tmp_path / "o").exists()


def _readme_commands():
    """Every ``ilmart ...`` command of README's ``sh`` blocks, continuations joined."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ilmart "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {"train", "eval", "predict", "export-shapes",
                                              "compare", "sweep-interactions"}


def test_readme_names_only_scripts_that_exist():
    root = Path(__file__).resolve().parent.parent
    named = set(re.findall(r"`(scripts/[\w.]+)", (root / "README.md").read_text(encoding="utf-8")))
    assert named
    assert [name for name in sorted(named) if not (root / name).is_file()] == []


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", readme, flags=re.S | re.M)
    planted_interaction(30, 10, seed=83, num_features=5).save_svmlight(tmp_path / "train.txt")
    planted_interaction(10, 10, seed=84, num_features=5).save_svmlight(tmp_path / "vali.txt")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    model = names["model"]
    assert names["shapes"] == model.shapes and names["surfaces"] == model.surfaces
    assert model.p >= 1 and 0.0 < names["report"].mean[10] <= 1.0
    assert capsys.readouterr().out.startswith(repr(names["report"].mean[10]))


def test_unexpected_fault_exits_1_with_its_message_last(trained_dir, files, monkeypatch,
                                                        capsys, caplog):
    def broken_evaluator(*args, **kwargs):
        raise RuntimeError("the evaluator lost its cutoffs")

    monkeypatch.setattr(ilmart.cli, "mean_ndcg", broken_evaluator)
    code = main(["eval", "--model", str(trained_dir / "model.json"), "--data", files["test"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: the evaluator lost its cutoffs"
    [record] = [r for r in caplog.records if r.getMessage() == "command failed"]
    assert record.exc_info[0] is RuntimeError      # the traceback goes to the log


def test_closed_output_pipe_exits_1(trained_dir, files, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["predict", "--model", str(trained_dir / "model.json"),
                 "--data", files["test"]])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_output_lock_blocks_concurrent_use(files, tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".ilmart.lock").touch()
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--interactions", "0",
                 "--config", _write_config(tmp_path)])
    assert code == 2
    assert "locked" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict", "export-shapes",
                                     "sweep-interactions"])
def test_unwritable_output_exits_2(command, trained_dir, files, tmp_path, capsys):
    # A file where the output directory should be, or a missing parent
    # directory of an output file.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    missing = str(tmp_path / "nodir" / "out.csv")
    model = str(trained_dir / "model.json")
    argv = {
        "train": ["train", "--train", files["train"], "--valid", files["valid"],
                  "--out", str(blocker)],
        "predict": ["predict", "--model", model, "--data", files["test"], "--out", missing],
        "export-shapes": ["export-shapes", "--model", model, "--data", files["test"],
                          "--out", str(blocker)],
        "sweep-interactions": ["sweep-interactions", "--model", model, "--data", files["test"],
                               "--out", missing],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.count("\n") == 1, err
    assert blocker.read_text() == ""


def test_eval_dimension_mismatch_exits_2(trained_dir, files, tmp_path, capsys):
    narrow = tmp_path / "narrow.txt"
    single_signal(5, 5, seed=9, num_features=2).save_svmlight(narrow)
    code = main(["eval", "--model", str(trained_dir / "model.json"),
                 "--data", str(narrow), "--num-features", "2"])
    assert code == 2
    assert "feature" in capsys.readouterr().err


def _damage(data, damage):
    """Break one thing in a parsed model file, as named by ``damage``."""
    main = next(e for e in data["main_effects"] if len(e["breakpoints"]) >= 2)
    pair = data["pair_effects"][0]
    if damage == "non_increasing_breakpoint":
        main["breakpoints"][:2] = main["breakpoints"][1::-1]
    elif damage == "duplicate_breakpoint":
        main["breakpoints"][1] = main["breakpoints"][0]
    elif damage == "nan_breakpoint":
        main["breakpoints"][0] = float("nan")
    elif damage == "infinite_breakpoint":
        pair["breakpoints_j"][-1] = float("inf")
    elif damage == "nan_value":
        main["values"][0] = float("nan")
    elif damage == "infinite_value":
        pair["values"][0][0] = float("-inf")
    elif damage == "values_wrong_length":
        main["values"].pop()
    elif damage == "values_wrong_shape":
        pair["values"].pop()
    elif damage == "ragged_rows":
        pair["values"][0].pop()
    elif damage == "string_value":
        main["values"][0] = repr(main["values"][0])
    elif damage == "bool_value":
        pair["values"][0][0] = False
    elif damage == "string_breakpoint":
        main["breakpoints"][0] = repr(main["breakpoints"][0])
    elif damage == "main_feature_zero":
        main["feature"] = 0
    elif damage == "main_feature_past_num_features":
        main["feature"] = data["metadata"]["num_features"] + 1
    elif damage == "bool_main_feature":
        main["feature"] = True
    elif damage == "duplicate_main_feature":
        data["main_effects"].append(main)
    elif damage == "pair_outside_j":
        data["main_effects"] = [e for e in data["main_effects"] if e["feature"] != pair["pair"][0]]
    elif damage == "duplicate_pair":
        data["pair_effects"].append(pair)
    elif damage == "unsorted_pair":
        pair["pair"].reverse()
    elif damage == "unknown_config_key":
        data["config"]["no_such_option"] = 1
    elif damage == "negative_learning_rate":
        data["config"]["learning_rate"] = -1
    elif damage == "float_num_leaves":
        data["config"]["num_leaves"] = 8.5
    elif damage == "string_lambdarank_norm":
        data["config"]["lambdarank_norm"] = "false"
    elif damage == "infinite_sigma":
        data["config"]["sigma"] = float("inf")
    elif damage == "inert_stage3_override":
        data["config"]["stage3_overrides"] = {"max_bins": 4}
    elif damage == "unknown_stage3_override":
        data["config"]["stage3_overrides"] = {"bogus": 1}
    elif damage == "missing_key":
        del data["pair_effects"]
    elif damage == "unknown_top_level_key":
        data["main_trees"] = []
    elif damage == "unknown_metadata_key":
        data["metadata"]["extra"] = 1
    elif damage == "unknown_effect_key":
        pair["trees"] = []
    elif damage == "unknown_main_effect_key":
        main["trees"] = []
    elif damage == "missing_main_feature":
        del main["feature"]
    elif damage == "string_log_entry":
        data["training_log"][0] = ["1", True, "0.5"]
    elif damage == "string_best_ndcg":
        data["metadata"]["best_valid_ndcg"] = "high"
    elif damage == "huge_integer_breakpoint":
        main["breakpoints"][0] = 10**399
    elif damage == "number_as_main_effect":
        data["main_effects"][0] = 1
    elif damage == "one_feature_pair":
        pair["pair"] = [1]
    elif damage == "number_as_main_effects":
        data["main_effects"] = 5
    else:
        raise AssertionError(damage)


@pytest.mark.parametrize("damage", ["unknown_config_key", "missing_key", "truncated_json",
                                    "negative_learning_rate", "unknown_stage3_override",
                                    "non_increasing_breakpoint", "duplicate_breakpoint",
                                    "nan_breakpoint", "infinite_breakpoint", "nan_value",
                                    "infinite_value", "values_wrong_length",
                                    "values_wrong_shape", "ragged_rows", "string_value",
                                    "bool_value", "string_breakpoint", "main_feature_zero",
                                    "main_feature_past_num_features", "bool_main_feature",
                                    "duplicate_main_feature", "pair_outside_j",
                                    "duplicate_pair", "unsorted_pair", "unknown_top_level_key",
                                    "unknown_metadata_key", "unknown_effect_key",
                                    "string_log_entry", "string_best_ndcg",
                                    "float_num_leaves", "string_lambdarank_norm",
                                    "inert_stage3_override", "unknown_main_effect_key",
                                    "missing_main_feature", "infinite_sigma",
                                    "huge_integer_breakpoint", "number_as_main_effect",
                                    "one_feature_pair", "number_as_main_effects"])
def test_malformed_model_file_exits_2(trained_dir, files, tmp_path, capsys, damage):
    text = (trained_dir / "model.json").read_text()
    data = json.loads(text)
    # the main effect that _damage breaks
    feature = next(e["feature"] for e in data["main_effects"] if len(e["breakpoints"]) >= 2)
    if damage == "truncated_json":
        text = text[: len(text) // 2]
    else:
        _damage(data, damage)
        text = json.dumps(data)
    bad = tmp_path / "model.json"
    bad.write_text(text)
    code = main(["eval", "--model", str(bad), "--data", files["test"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1
    message = {
        "huge_integer_breakpoint": f"main_{feature}: breakpoints must be finite",
        "number_as_main_effect": "main effect must be an object",
        "one_feature_pair": "pair effect pair must be two feature ids, got [1]",
        "number_as_main_effects": "malformed model file ('int' object is not iterable)",
    }.get(damage)
    if message is not None:
        assert err == f"error: {bad}: {message}\n"


def test_v3_model_file_is_refused(trained_dir, files, tmp_path, capsys):
    data = json.loads((trained_dir / "model.json").read_text())
    data["version"] = 3
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--model", str(bad), "--data", files["test"]]) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: unsupported model schema version 3, expected 4\n"


def test_eval_non_finite_data_exits_2(trained_dir, files, tmp_path, capsys):
    lines = Path(files["test"]).read_text().splitlines()
    lines[2] = re.sub(r" 2:\S+", " 2:nan", lines[2], count=1)
    data = tmp_path / "nan.txt"
    data.write_text("\n".join(lines) + "\n")
    code = main(["eval", "--model", str(trained_dir / "model.json"), "--data", str(data)])
    assert code == 2
    assert f"{data}:3: non-finite value nan for feature 2" in capsys.readouterr().err


def test_bad_config_value_exits_2(files, capsys):
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--learning-rate", "0"])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, kind", [
    ("lambdarank_norm", "false", "true or false"),
    ("num_leaves", 8.5, "an integer"),
    ("max_bins", 16.5, "an integer"),
    ("early_stopping_rounds", 2.5, "an integer"),
    ("learning_rate", True, "a number"),
    ("sigma", float("inf"), "finite"),
    ("min_child_hessian", float("-inf"), "finite"),
    pytest.param("learning_rate", 10**400, "finite", id="learning_rate-beyond_float64-finite"),
])
def test_wrong_type_config_value_exits_2(files, tmp_path, capsys, field, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: invalid config: {field} must be {kind}, got {value!r}\n"
    assert not out.exists()


def test_infinite_flag_value_exits_2(files, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--learning-rate", "inf"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: invalid config: learning_rate must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--model", "--data", "--config", "--train", "--valid"])
def test_directory_as_input_file_exits_2(trained_dir, files, tmp_path, capsys, flag):
    if flag in ("--model", "--data"):
        argv = ["eval", "--model", str(trained_dir / "model.json"), "--data", files["test"]]
    else:
        argv = ["train", "--train", files["train"], "--valid", files["valid"],
                "--out", str(tmp_path / "run"), "--config", _write_config(tmp_path)]
    argv[argv.index(flag) + 1] = str(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" file not found: {tmp_path}\n"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", [1, 700])
def test_data_that_is_not_utf8_exits_2(trained_dir, files, tmp_path, capsys, line):
    # Line 700 lies past the first block of lines the loader parses.
    lines = Path(files["test"]).read_bytes().splitlines(keepends=True) * 2
    assert len(lines) > 700
    lines[line - 1] = b"\xff\xfe" + lines[line - 1]
    data = tmp_path / "latin.txt"
    data.write_bytes(b"".join(lines))
    code = main(["eval", "--model", str(trained_dir / "model.json"), "--data", str(data)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {data}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("key", ["num_leaf", "train", "valid", "out"])
def test_unknown_config_file_key_exits_2(files, tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: files["train"]}))
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown config key(s) [{key!r}]\n"
    assert not out.exists()


@pytest.mark.parametrize("missing", ["--train", "--valid"])
def test_train_without_train_or_valid_is_a_usage_error(files, capsys, missing):
    argv = ["train", "--train", files["train"], "--valid", files["valid"]]
    del argv[argv.index(missing):argv.index(missing) + 2]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_config_that_is_not_json_exits_2(files, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"max_bins": 3')
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(tmp_path / "run"), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not a JSON config file (") \
        and len(err.splitlines()) == 1


def test_config_that_is_not_an_object_exits_2(files, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == f"error: config file {config} must hold a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[" * 100_000,                                  # deeper than the json module parses
    '{"max_bins": 1' + "0" * 5000 + "}",            # more digits than Python converts
], ids=["nested", "long_integer"])
def test_config_the_json_module_cannot_parse_exits_2(files, tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not a JSON config file (") \
        and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"bogus": 1}, "unknown stage3_overrides key(s) ['bogus']"),
    ({"num_leaves": 1}, "num_leaves must be >= 2 (in stage3_overrides)"),
    ({"max_bins": 4}, "max_bins has no effect in stage 3 (in stage3_overrides)"),
    ({"max_interactions": 1}, "max_interactions has no effect in stage 3 (in stage3_overrides)"),
    ({"stage2_max_rounds": 1},
     "stage2_max_rounds has no effect in stage 3 (in stage3_overrides)"),
])
def test_bad_stage3_overrides_exit_2_before_training(files, tmp_path, capsys,
                                                      overrides, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stage3_overrides": overrides}))
    out = tmp_path / "run"
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--config", str(config)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rerun_reproduces_output_byte_for_byte(trained_dir, files, capsys):
    argv = ["eval", "--model", str(trained_dir / "model.json"),
            "--data", files["test"], "--cutoffs", "1,5,10"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_console_entry_point_runs():
    # The child finds the package where this process found it, also when
    # only pytest's own path setting put it there.
    src = os.path.dirname(os.path.dirname(ilmart.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ilmart.cli", "eval", "--model", "/missing.json",
         "--data", "/missing.txt"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


def test_diverging_run_exits_2(tmp_path, capsys, recwarn):
    # The first round's leaves are finite, but its scores are so large that
    # the second round's score differences overflow.
    train, valid = tmp_path / "train.txt", tmp_path / "valid.txt"
    planted_interaction(30, 10, seed=1).save_svmlight(train)
    planted_interaction(10, 10, seed=2).save_svmlight(valid)
    out = tmp_path / "run"
    code = main(["train", "--train", str(train), "--valid", str(valid), "--out", str(out),
                 "--learning-rate", "1e308", "--interactions", "0"])
    assert code == 2
    assert capsys.readouterr().err == ("error: stage 1, round 2: training diverged "
                                       "(lambdas are not finite); lower learning_rate\n")
    assert not (out / "model.json").exists()
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bounds")
    paths = {"root": root}
    for name, seed in (("train", 1), ("valid", 2)):
        paths[name] = str(root / f"{name}.txt")
        planted_interaction(6, 10, seed=seed, num_features=6).save_svmlight(paths[name])
    return paths


TINY = 5e-324                   # the smallest positive float
HUGE = 1e308
BIG_INT = 2**63 - 1
# TINY, and the powers of ten from 1e-323 to 1e308.
_MAGNITUDES = st.just(TINY) | st.integers(-323, 308).map(lambda e: 10.0 ** e)

# Values at and near the bounds that TrainConfig accepts. A field left out
# keeps its default, and every stage stops after 10 rounds or fewer.
_CONFIGS = st.fixed_dictionaries({
    "max_rounds_per_stage": st.integers(1, 10),
    "stage2_max_rounds": st.integers(1, 10),
    "min_data_in_leaf": st.sampled_from([1, 2, 5, 30]),
}, optional={
    "learning_rate": _MAGNITUDES,
    "sigma": _MAGNITUDES,
    "lambda_l2": st.just(0.0) | _MAGNITUDES,
    "max_leaf_output": st.just(0.0) | _MAGNITUDES,
    "min_child_hessian": st.just(0.0) | _MAGNITUDES,
    "min_gain": st.sampled_from([0.0, TINY, 1e-3, HUGE]),
    "truncation": st.sampled_from([1, 2, 10, 11, BIG_INT]),
    "ndcg_cutoff": st.sampled_from([1, 10, 11, BIG_INT]),
    "max_bins": st.sampled_from([2, 3, 255, 256, 257, BIG_INT]),
    "num_leaves": st.sampled_from([2, 3, 8, BIG_INT]),
    "max_interactions": st.sampled_from([0, 1, 2, BIG_INT]),
    "early_stopping_rounds": st.sampled_from([1, 2, BIG_INT]),
    "lambdarank_norm": st.booleans(),
    "stage3_overrides": st.sampled_from([{"num_leaves": 2, "max_leaf_output": 0.0},
                                         {"learning_rate": HUGE}, {"sigma": TINY}]),
})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=_CONFIGS)
def test_train_at_config_bounds_gives_a_finite_model_or_exits_2(tiny_files, config):
    run = tempfile.mkdtemp(dir=tiny_files["root"])
    config_path, model_path = os.path.join(run, "config.json"), os.path.join(run, "model.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--train", tiny_files["train"], "--valid", tiny_files["valid"],
                     "--out", run, "--config", config_path])
    err = err.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not os.path.exists(model_path)
        return
    assert code == 0, err
    model = load_model(model_path)
    assert all(np.isfinite(e.values).all() for e in model.shapes + model.surfaces)
    features = load_svmlight(tiny_files["train"], num_features=model.num_features).features
    want = [additive_score(model.shapes, model.surfaces, x) for x in features]
    np.testing.assert_allclose(model.predict_batch(features), want, rtol=0, atol=1e-9)


def _read_model(command, model, data, out):
    """Run ``eval``, ``predict`` or ``export-shapes`` (CSV) in-process: its
    exit code, its stderr, the numbers it wrote and the warnings raised.

    The numbers are every NDCG of ``eval``, every score of ``predict``, and
    every value, upper bound and importance of ``export-shapes``; an upper
    bound past the last breakpoint is ``inf`` by design and is left out."""
    argv = [command, "--model", str(model), "--data", str(data)]
    if command != "eval":
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    numbers = []
    if code == 0 and command == "eval":
        rows = list(csv.reader(stdout.getvalue().splitlines()[1:]))
        numbers = [row[1] for row in rows[1:]]
    elif code == 0 and command == "predict":
        with open(out, encoding="utf-8") as fh:
            numbers = [row[2] for row in list(csv.reader(fh))[1:]]
    elif code == 0:
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            columns = ["importance"] if name == "index.csv" else header
            numbers += [row[header.index(c)] for row in rows for c in columns
                        if row[header.index(c)] != "inf" or c == "value"]
    return code, stderr.getvalue(), [float(v) for v in numbers], [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def small_test_file(files):
    path = files["root"] / "small_test.txt"
    planted_interaction(4, 10, seed=85).save_svmlight(path)
    return path


def test_a_model_whose_scores_can_overflow_exits_2(trained_dir, small_test_file, tmp_path):
    data = json.loads((trained_dir / "model.json").read_text())
    for effect in data["main_effects"]:
        effect["values"] = [1e308] * len(effect["values"])
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(data))
    for command in ("eval", "predict", "export-shapes"):
        code, err, _, caught = _read_model(command, bad, small_test_file, tmp_path / command)
        assert code == 2 and caught == []
        assert err == (f"error: {bad}: scores can overflow: the sum over tables of each "
                       "table's largest absolute value is not finite\n")


def test_importance_of_huge_finite_values_does_not_overflow(trained_dir, small_test_file,
                                                            tmp_path):
    # One main effect of 1e308 everywhere: every score is finite, but the
    # sum of its 40 absolute terms is not.
    data = json.loads((trained_dir / "model.json").read_text())
    first = data["main_effects"][0]
    first["values"] = [1e308] * len(first["values"])
    huge = tmp_path / "model.json"
    huge.write_text(json.dumps(data))
    code, err, numbers, caught = _read_model("export-shapes", huge, small_test_file,
                                             tmp_path / "out")
    assert (code, err, caught) == (0, "", [])
    assert all(math.isfinite(v) for v in numbers)
    with open(tmp_path / "out" / "index.csv", encoding="utf-8") as fh:
        index = {row["effect"]: row for row in csv.DictReader(fh)}
    key = f"main_{first['feature']}"
    assert float(index[key]["importance"]) == 1e308 and index[key]["rank"] == "1"


# What a mutation puts in place of a node of a model file.
_NODES = st.sampled_from([None, True, False, "0.5", [], {}, [[0.5, [1]]], [[]], 0, -1,
                          1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, -1.7e308,
                          2**63, 10**20])


@st.composite
def _mutated(draw, data):
    """``data`` with one node dropped or replaced: a walk from the root goes
    into a random child of each container, until a draw or a leaf stops it."""
    data = copy.deepcopy(data)
    parent, key, node = None, None, data
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is not None and draw(st.booleans()):
        del parent[key]
    elif parent is not None:
        parent[key] = draw(_NODES)
    else:
        data = draw(_NODES)
    return data


@pytest.fixture(scope="module")
def model_data(trained_dir):
    return json.loads((trained_dir / "model.json").read_text())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_model_file_is_read_or_refused_in_one_line(model_data, small_test_file,
                                                             data):
    mutated = data.draw(_mutated(model_data))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutated, fh)
        for command in ("eval", "predict", "export-shapes"):
            out = os.path.join(tmp, command)
            code, err, numbers, caught = _read_model(command, path, small_test_file, out)
            assert code in (0, 2), err
            if code == 0:
                assert caught == [] and all(math.isfinite(v) for v in numbers)
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, err
