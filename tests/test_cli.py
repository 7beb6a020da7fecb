import json
from pathlib import Path

import numpy as np
import pytest

from tramfl import enumerate_static_routes, parse_config
from tramfl.cli import main, run_experiment

SMOKE_TEXT = """
[dataset]
kind = synthetic
classes = 4
dims = 4
per_class = 40
test_per_class = 20
separation = 3.0
seed = 1

[partition]
scheme = random_k
nodes = 3
k_min = 1
k_max = 2
seed = 2

[learner]
layers = 4,16,4
eta = 0.05
batch = 8

[run]
iterations = 200
interval = 2
eval_every = 1
target_accuracy = 0.9
trials = 3
seed = 11

[policies]
dynamic = dynamic
random = random
gossip = gossip
"""


@pytest.fixture()
def smoke_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMOKE_TEXT)
    return path


def _read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "trial,iteration,transmissions,holder,test_loss,test_accuracy"
    rows = []
    for line in lines[1:]:
        trial, iteration, transmissions, holder, loss, acc = line.split(",")
        rows.append((int(trial), int(iteration), int(transmissions), int(holder), float(loss), float(acc)))
    return rows


def test_run_experiment_outputs(smoke_config, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = parse_config(smoke_config)
    assert run_experiment(cfg, out) == 0
    for label, _ in cfg.policies:
        assert (out / f"results_{label}.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"dynamic", "random", "gossip"}
    for stats in summary.values():
        assert set(stats) == {"mean", "std", "n_trials", "n_reached", "per_trial"}
        assert stats["n_trials"] == 3
    table = capsys.readouterr().out
    assert "policy" in table and "dynamic" in table and "gossip" in table


def test_summary_recomputable_from_csv(smoke_config, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(smoke_config)
    run_experiment(cfg, out)
    summary = json.loads((out / "summary.json").read_text())
    target = cfg.run.target_accuracy
    for label, stats in summary.items():
        rows = _read_rows(out / f"results_{label}.csv")
        recomputed = []
        for trial in range(stats["n_trials"]):
            hits = [r[2] for r in rows if r[0] == trial and r[5] >= target]
            recomputed.append(min(hits) if hits else None)
        assert recomputed == stats["per_trial"]
        reached = [v for v in recomputed if v is not None]
        if reached:
            assert stats["mean"] == pytest.approx(float(np.mean(reached)))
        else:
            assert stats["mean"] is None


def test_csv_monotone_bookkeeping(smoke_config, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(smoke_config)
    run_experiment(cfg, out)
    for label, _ in cfg.policies:
        rows = _read_rows(out / f"results_{label}.csv")
        for trial in {r[0] for r in rows}:
            transmissions = [r[2] for r in rows if r[0] == trial]
            assert all(b > a for a, b in zip(transmissions, transmissions[1:]))


def test_byte_identical_reruns(smoke_config, tmp_path):
    cfg = parse_config(smoke_config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_main_success_and_dump_model(smoke_config, tmp_path):
    out = tmp_path / "out"
    model_path = tmp_path / "model.bin"
    code = main(["run", str(smoke_config), "--out", str(out), "--dump-model", str(model_path)])
    assert code == 0
    raw = model_path.read_bytes()
    n_layers = int(np.frombuffer(raw[:8], "<i8")[0])
    sizes = np.frombuffer(raw[8 : 8 + 8 * n_layers], "<i8").tolist()
    assert sizes == [4, 16, 4]
    values = np.frombuffer(raw[8 + 8 * n_layers :], "<f8")
    assert values.shape == (4 * 16 + 16 * 4 + 16 + 4,)
    assert np.all(np.isfinite(values))


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[dataset]\nkind = synthetic\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_runtime_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[dataset]\nkind = csv\ntrain = missing.csv\ntest = missing.csv\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 2,2\neta = 0.1\nbatch = 4\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "error" in capsys.readouterr().err


def test_target_required_for_experiments(smoke_config, tmp_path):
    text = smoke_config.read_text().replace("target_accuracy = 0.9\n", "")
    smoke_config.write_text(text)
    assert main(["run", str(smoke_config), "--out", str(tmp_path / "out")]) == 2


def test_count_exchanges_once_halves_gossip(tmp_path):
    text = SMOKE_TEXT.replace("iterations = 200", "iterations = 1").replace(
        "target_accuracy = 0.9", "target_accuracy = 1.0"
    )
    text = text.replace("dynamic = dynamic\nrandom = random\n", "")
    cfg_path = tmp_path / "g.cfg"
    cfg_path.write_text(text)
    out_full, out_half = tmp_path / "full", tmp_path / "half"
    assert main(["run", str(cfg_path), "--out", str(out_full)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_half), "--count-exchanges-once"]) == 0
    full = _read_rows(out_full / "results_gossip.csv")
    half = _read_rows(out_half / "results_gossip.csv")
    assert full[0][2] == 6  # 3 nodes, directed
    assert half[0][2] == 3


def test_csv_dataset_end_to_end(tmp_path):
    from tramfl import generate_synthetic_split, save_csv

    train, test = generate_synthetic_split(3, 4, 30, 10, 3.0, 5)
    save_csv(train, tmp_path / "train.csv", header=True)
    save_csv(test, tmp_path / "test.csv", header=True)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n"
        "header = true\n\n"
        "[partition]\nscheme = contiguous\nnodes = 3\n\n"
        "[learner]\nlayers = 4,8,3\neta = 0.1\nbatch = 8\n\n"
        "[run]\niterations = 200\ntarget_accuracy = 0.8\ntrials = 1\nseed = 7\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dynamic"]["n_reached"] == 1


def test_csv_test_labels_missing_from_train_is_config_error(tmp_path, capsys):
    (tmp_path / "train.csv").write_text("0,0.0,1.0\n1,1.0,0.0\n0,0.5,1.0\n1,1.0,0.5\n")
    (tmp_path / "test.csv").write_text("0,0.0,1.0\n2,1.0,1.0\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 2,4,3\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "dataset.test" in err and "[2]" in err


_TWO_CLASS_TRAIN = "0,0.0,1.0\n1,1.0,0.0\n0,0.5,1.0\n1,1.0,0.5\n"


@pytest.mark.parametrize("partition, key", [
    ("scheme = contiguous\nnodes = 3", "partition.nodes"),
    ("scheme = random_k\nnodes = 2\nk_min = 1\nk_max = 3", "partition.k_max"),
], ids=["contiguous", "random_k"])
def test_csv_partition_checked_against_loaded_classes(tmp_path, capsys, partition, key):
    (tmp_path / "train.csv").write_text(_TWO_CLASS_TRAIN)
    (tmp_path / "test.csv").write_text(_TWO_CLASS_TRAIN)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        f"[partition]\n{partition}\n\n"
        "[learner]\nlayers = 2,4,2\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["gossip", "static:0,1,2"], ids=["gossip", "ring"])
def test_csv_train_labels_skipping_a_class_is_config_error(tmp_path, capsys, policy):
    # Labels {0, 2}: a contiguous split over 3 nodes would give node 1 no rows.
    (tmp_path / "train.csv").write_text("0,0.0,1.0\n2,1.0,0.0\n0,0.5,1.0\n2,1.0,0.5\n")
    (tmp_path / "test.csv").write_text("0,0.0,1.0\n2,1.0,1.0\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 3\n\n"
        "[learner]\nlayers = 2,4,3\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        f"[policies]\nrun = {policy}\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "dataset.train" in err and "[1]" in err


def test_table_counts_beyond_training_set_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "[dataset]\nkind = synthetic\nclasses = 2\ndims = 2\nper_class = 10\nseparation = 3.0\n\n"
        "[partition]\nscheme = table\nnodes = 2\ncounts = 20,0; 0,5\n\n"
        "[learner]\nlayers = 2,4,2\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "partition.counts" in err and "class 0" in err


def test_enumerate_static_routes_table():
    routes = enumerate_static_routes(5)
    assert len(routes) == 24
    assert routes[0] == (0, 1, 2, 3, 4)
    assert routes[6] == (0, 2, 1, 3, 4)
    assert routes[-1] == (0, 4, 3, 2, 1)
    assert enumerate_static_routes(3) == [(0, 1, 2), (0, 2, 1)]
    assert enumerate_static_routes(2) == [(0, 1)]
    with pytest.raises(ValueError):
        enumerate_static_routes(1)
    with pytest.raises(ValueError):
        enumerate_static_routes(9)
