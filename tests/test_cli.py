import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ilmart import load_model, load_svmlight, mean_ndcg, per_query_ndcg
from ilmart.cli import main
from ilmart.stats import fisher_randomization

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
    report = mean_ndcg(model.predict_dataset(ds), ds, (1, 5, 10))
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
    want = model.predict_dataset(ds)
    rows = out_file.read_text().splitlines()
    assert rows[0] == "row_index,qid,score"
    assert len(rows) == ds.num_rows + 1
    for i, line in enumerate(rows[1:]):
        idx, qid, score = line.split(",")
        assert int(idx) == i
        assert qid == ds.qids[i]
        assert float(score) == want[i]


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

    main_scores = np.zeros(ds.num_rows)
    for tree in model.main_trees:
        main_scores += tree.predict_batch(ds.features)
    stage1 = mean_ndcg(main_scores, ds, (1, 5, 10))
    full = mean_ndcg(model.predict_dataset(ds), ds, (1, 5, 10))
    for col, k in ((1, 1), (2, 5), (3, 10)):
        assert float(body[0][col]) == stage1.mean[k]
        assert float(body[-1][col]) == full.mean[k]


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
    pq_a = per_query_ndcg(model_a.predict_dataset(ds), ds, 10)
    pq_b = per_query_ndcg(model_b.predict_dataset(ds), ds, 10)
    want = fisher_randomization(pq_a, pq_b, num_permutations=500, seed=11)
    assert float(line[4]) == want.p_value


def test_output_lock_blocks_concurrent_use(files, tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".ilmart.lock").touch()
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(out), "--interactions", "0",
                 "--config", _write_config(tmp_path)])
    assert code == 2
    assert "locked" in capsys.readouterr().err


def test_eval_dimension_mismatch_exits_2(trained_dir, files, tmp_path, capsys):
    narrow = tmp_path / "narrow.txt"
    single_signal(5, 5, seed=9, num_features=2).save_svmlight(narrow)
    code = main(["eval", "--model", str(trained_dir / "model.json"),
                 "--data", str(narrow), "--num-features", "2"])
    assert code == 2
    assert "feature" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["unknown_config_key", "missing_key", "truncated_json",
                                    "negative_learning_rate", "unknown_stage3_override",
                                    "root_split_moved", "split_on_feature_zero",
                                    "nan_threshold", "child_listed_twice",
                                    "split_is_its_own_child", "leaf_missing",
                                    "pair_tree_splits_outside_its_pair",
                                    "string_threshold", "float_child_id",
                                    "bool_split_feature", "string_leaf_value",
                                    "bool_leaf_value"])
def test_malformed_model_file_exits_2(trained_dir, files, tmp_path, capsys, damage):
    text = (trained_dir / "model.json").read_text()
    data = json.loads(text)
    tree = data["main_trees"][0]
    if damage == "root_split_moved":
        tree["split_feature"][0] = tree["split_feature"][0] % data["metadata"]["num_features"] + 1
        text = json.dumps(data)
    elif damage == "split_on_feature_zero":
        # feature J[0] becomes 0 everywhere, so only the range check can tell
        f = data["J"][0]

        def relabel(ids):
            return [0 if x == f else x for x in ids]
        for t in data["main_trees"] + data["interaction_trees"]:
            t["split_feature"] = relabel(t["split_feature"])
            t["constraint"][1] = relabel(t["constraint"][1])
        data["J"] = relabel(data["J"])
        data["K_set"] = [relabel(p) for p in data["K_set"]]
        text = json.dumps(data)
    elif damage == "nan_threshold":
        tree["threshold"][0] = float("nan")
        text = json.dumps(data)
    elif damage == "child_listed_twice":
        tree["right_child"][0] = tree["left_child"][0]
        text = json.dumps(data)
    elif damage == "split_is_its_own_child":
        # split 1 takes over a child of its parent and points at itself
        side = "left_child" if 1 in tree["left_child"] else "right_child"
        parent = tree[side].index(1)
        tree[side][parent], tree["left_child"][1] = tree["left_child"][1], 1
        text = json.dumps(data)
    elif damage == "leaf_missing":
        tree["leaf_value"].pop()
        text = json.dumps(data)
    elif damage == "pair_tree_splits_outside_its_pair":
        pair_tree = data["interaction_trees"][0]
        outside = min(set(data["J"]) - set(pair_tree["constraint"][1]))
        pair_tree["split_feature"][0] = outside
        text = json.dumps(data)
    elif damage == "string_threshold":
        # each of these five parses as the same tree once coerced
        tree["threshold"][0] = repr(tree["threshold"][0])
        text = json.dumps(data)
    elif damage == "float_child_id":
        tree["left_child"][0] = float(tree["left_child"][0])
        text = json.dumps(data)
    elif damage == "bool_split_feature":
        one = next(t for t in data["main_trees"] if t["split_feature"][0] == 1)
        one["split_feature"] = [True] * len(one["split_feature"])
        text = json.dumps(data)
    elif damage == "string_leaf_value":
        tree["leaf_value"][0] = repr(tree["leaf_value"][0])
        text = json.dumps(data)
    elif damage == "bool_leaf_value":
        tree["leaf_value"][0] = False
        text = json.dumps(data)
    elif damage == "unknown_config_key":
        data["config"]["no_such_option"] = 1
        text = json.dumps(data)
    elif damage == "negative_learning_rate":
        data["config"]["learning_rate"] = -1
        text = json.dumps(data)
    elif damage == "unknown_stage3_override":
        data["config"]["stage3_overrides"] = {"bogus": 1}
        text = json.dumps(data)
    elif damage == "missing_key":
        del data["K_set"]
        text = json.dumps(data)
    else:
        text = text[: len(text) // 2]
    bad = tmp_path / "model.json"
    bad.write_text(text)
    code = main(["eval", "--model", str(bad), "--data", files["test"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1


def test_eval_non_finite_data_exits_2(trained_dir, files, tmp_path, capsys):
    lines = open(files["test"]).read().splitlines()
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


def test_config_that_is_not_json_exits_2(files, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"max_bins": 3')
    code = main(["train", "--train", files["train"], "--valid", files["valid"],
                 "--out", str(tmp_path / "run"), "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config} is not valid JSON") \
        and len(err.splitlines()) == 1


@pytest.mark.parametrize("overrides, message", [
    ({"bogus": 1}, "unknown stage3_overrides key(s) ['bogus']"),
    ({"num_leaves": 1}, "num_leaves must be >= 2 (in stage3_overrides)"),
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
    proc = subprocess.run(
        [sys.executable, "-m", "ilmart.cli", "eval", "--model", "/missing.json",
         "--data", "/missing.txt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
