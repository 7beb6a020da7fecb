import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tramfl import ConfigError, cli, enumerate_static_routes, parse_config, parse_config_text
from tramfl.cli import main, run_experiment
from tramfl.errors import StateError
from tramfl.learner import ArchSpec, ModelParams
from tramfl.simulator import params_digest

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


def _wrap_run_trials(monkeypatch, before=None, after=None):
    """Wrap ``cli.run_trials``: ``before(cfg)`` may return a replacement
    RunConfig, ``after(summary)`` sees each policy's TrialsSummary."""
    real = cli.run_trials

    def wrapped(shards, test, cfg, **kwargs):
        cfg = (before and before(cfg)) or cfg
        summary = real(shards, test, cfg, **kwargs)
        if after is not None:
            after(summary)
        return summary

    monkeypatch.setattr(cli, "run_trials", wrapped)


def test_main_success_and_dump_model(smoke_config, tmp_path, monkeypatch):
    """The dump is the final model of the last trial of the last policy."""
    digests = []
    _wrap_run_trials(monkeypatch, after=lambda summary: digests.append(
        [r.final_params_digest for r in summary.results]))
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
    assert len(digests) == 3 and all(len(d) == 3 for d in digests)
    assert len({d for per_policy in digests for d in per_policy}) == 9
    assert params_digest(ModelParams(ArchSpec(tuple(sizes)), values)) == digests[-1][-1]


def test_run_experiment_drops_each_policys_trials(smoke_config, tmp_path, monkeypatch):
    """Once a policy starts, no TrialResult of an earlier policy is alive."""
    refs, alive_at_start = [], []

    def before(cfg):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in refs))

    _wrap_run_trials(monkeypatch, before=before,
                     after=lambda summary: refs.extend(map(weakref.ref, summary.results)))
    smoke_config.write_text(smoke_config.read_text().replace("iterations = 200", "iterations = 20"))
    with redirect_stdout(io.StringIO()):
        assert run_experiment(parse_config(smoke_config), tmp_path / "out") == 0
    assert len(refs) == 9
    assert alive_at_start == [0, 0, 0]


def test_one_diverging_policy_in_a_mixed_run(smoke_config, tmp_path, monkeypatch, capsys):
    """Only the middle policy diverges: it alone is counted so in status.json,
    and the other policies' summaries are those of a run without it."""
    smoke_config.write_text(smoke_config.read_text().replace("iterations = 200", "iterations = 60"))
    clean = tmp_path / "clean"
    assert main(["run", str(smoke_config), "--out", str(clean)]) == 0
    capsys.readouterr()
    _wrap_run_trials(monkeypatch, before=lambda cfg: replace(cfg, learning_rate=1e308)
                     if cfg.policy.kind == "random" else None)
    out = tmp_path / "out"
    assert main(["run", str(smoke_config), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"warning: random trial {trial} diverged: test loss nan at transmission 1"
        for trial in range(3)]
    assert json.loads((out / "status.json").read_text()) == {
        "dynamic": {"reached": 3, "budget_exhausted": 0, "diverged": 0},
        "random": {"reached": 0, "budget_exhausted": 0, "diverged": 3},
        "gossip": {"reached": 3, "budget_exhausted": 0, "diverged": 0},
    }
    summary = json.loads((out / "summary.json").read_text())
    clean_summary = json.loads((clean / "summary.json").read_text())
    assert list(summary) == ["dynamic", "random", "gossip"]
    for label in ("dynamic", "gossip"):
        assert summary[label] == clean_summary[label]
        assert (out / f"results_{label}.csv").read_bytes() == (
            clean / f"results_{label}.csv").read_bytes()
    assert summary["random"] == {"mean": None, "std": None, "n_trials": 3, "n_reached": 0,
                                 "per_trial": [None, None, None]}


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[dataset]\nkind = synthetic\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_runtime_error_exit_code(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("0,0.0,1.0\nx,1.0,0.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'bad.csv'}\ntest = {tmp_path / 'bad.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 2,2\neta = 0.1\nbatch = 4\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["train", "test"])
def test_unreadable_csv_path_is_config_error(tmp_path, capsys, key):
    """This used to exit 3 with "error: [Errno 2] ..." and name no key."""
    (tmp_path / "train.csv").write_text(_TWO_CLASS_TRAIN)
    (tmp_path / "test.csv").write_text(_TWO_CLASS_TRAIN)
    missing = tmp_path / "nope.csv"
    paths = {"train": tmp_path / "train.csv", "test": tmp_path / "test.csv", key: missing}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"[dataset]\nkind = csv\ntrain = {paths['train']}\ntest = {paths['test']}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 2,2\neta = 0.1\nbatch = 4\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: dataset.{key}: cannot read {missing}: No such file or directory\n")


def test_rerun_removes_results_of_dropped_labels(smoke_config, tmp_path):
    out = tmp_path / "out"
    text = smoke_config.read_text().replace("iterations = 200", "iterations = 20")
    smoke_config.write_text(text)
    assert main(["run", str(smoke_config), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    assert {"results_random.csv", "results_gossip.csv"} <= set(os.listdir(out))
    smoke_config.write_text(text.replace("random = random\ngossip = gossip\n", ""))
    assert main(["run", str(smoke_config), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["notes.txt", "results_dynamic.csv", "summary.json"]
    assert list(json.loads((out / "summary.json").read_text())) == ["dynamic"]


def _snapshot(directory):
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


@pytest.mark.parametrize("fault", [StateError, KeyboardInterrupt])
def test_failed_run_publishes_nothing(smoke_config, tmp_path, monkeypatch, capsys, fault):
    """A run that fails in its second policy leaves an earlier run's outputs
    byte-identical, writes no dump and leaves no staging directory."""
    smoke_config.write_text(smoke_config.read_text().replace("iterations = 200", "iterations = 20"))
    out = tmp_path / "out"
    assert main(["run", str(smoke_config), "--out", str(out)]) == 0
    earlier = _snapshot(out)
    smoke_config.write_text(smoke_config.read_text().replace("seed = 11", "seed = 12"))
    started = []

    def second_policy_fails(cfg):
        started.append(cfg.policy)
        if len(started) == 2:
            raise fault("injected")

    _wrap_run_trials(monkeypatch, before=second_policy_fails)
    argv = ["run", str(smoke_config), "--out", str(out), "--dump-model", str(tmp_path / "model.bin")]
    if fault is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: injected\n"
    assert len(started) == 2
    assert _snapshot(out) == earlier
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "out"]


def test_next_run_clears_the_staging_directory_of_a_killed_run(tmp_path):
    """A run killed with SIGKILL cannot remove its staging directory; the
    next run into the same directory does, since that pid is gone."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    child = subprocess.Popen(
        [sys.executable, "-m", "tramfl", "run", str(root / "configs" / "route_sweep.cfg"),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (out.is_dir() and os.listdir(out)):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL
    assert [name.startswith(f"{cli.STAGING_PREFIX}{child.pid}-") for name in os.listdir(out)] == [True]
    assert main(["run", str(root / "configs" / "quickstart.cfg"), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "results_dynamic.csv", "results_random.csv", "results_ring.csv", "summary.json"]


def test_staging_directories_of_live_or_unknown_runs_are_kept(tmp_path, monkeypatch):
    """Only a staging directory whose pid is gone is removed: not one of a
    live process, one of a process that may not be signalled, nor one with
    no pid in its name, as the directories of older versions were."""
    kept = [f"{cli.STAGING_PREFIX}{os.getpid()}-live", f"{cli.STAGING_PREFIX}1-foreign",
            f"{cli.STAGING_PREFIX}12345678", f"{cli.STAGING_PREFIX}abc-x"]
    for name in kept + [f"{cli.STAGING_PREFIX}99-gone"]:
        (tmp_path / name).mkdir()

    def kill(pid, sig):
        assert sig == 0
        if pid == 99:
            raise ProcessLookupError
        if pid == 1:
            raise PermissionError

    monkeypatch.setattr(cli.os, "kill", kill)
    staging = cli._staging_dir(tmp_path)
    assert os.path.basename(staging).startswith(f"{cli.STAGING_PREFIX}{os.getpid()}-")
    assert sorted(os.listdir(tmp_path)) == sorted(kept + [os.path.basename(staging)])


def test_unwritable_dump_path_fails_before_training(smoke_config, tmp_path, monkeypatch, capsys):
    started = []
    _wrap_run_trials(monkeypatch, before=started.append)
    missing = tmp_path / "missing"
    argv = ["run", str(smoke_config), "--out", str(tmp_path / "out"), "--dump-model", str(missing / "m.bin")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: [Errno 2] No such file or directory: '{missing}/")
    assert started == []
    assert os.listdir(tmp_path / "out") == []


def test_dump_path_that_is_a_directory_fails_before_training(smoke_config, tmp_path, monkeypatch, capsys):
    """The dump could not replace a directory after the last policy, so the
    run fails before the first one and publishes nothing."""
    started = []
    _wrap_run_trials(monkeypatch, before=started.append)
    dump = tmp_path / "dd"
    dump.mkdir()
    argv = ["run", str(smoke_config), "--out", str(tmp_path / "out"), "--dump-model", str(dump)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{dump}'\n"
    assert started == []
    assert os.listdir(tmp_path / "out") == []
    assert os.listdir(dump) == []


def test_target_required_for_experiments(smoke_config, tmp_path):
    text = smoke_config.read_text().replace("target_accuracy = 0.9\n", "")
    smoke_config.write_text(text)
    assert main(["run", str(smoke_config), "--out", str(tmp_path / "out")]) == 2


def test_count_exchanges_once_halves_gossip(tmp_path):
    text = SMOKE_TEXT.replace("iterations = 200", "iterations = 1").replace(
        "target_accuracy = 0.9", "target_accuracy = 1.0"
    )
    text = text.replace("dynamic = dynamic\nrandom = random\n", "")
    full_path, half_path = tmp_path / "full.cfg", tmp_path / "half.cfg"
    full_path.write_text(text)
    half_path.write_text(text.replace("seed = 11\n", "seed = 11\ncount_exchanges_once = true\n"))
    out_full, out_half = tmp_path / "full", tmp_path / "half"
    assert main(["run", str(full_path), "--out", str(out_full)]) == 0
    assert main(["run", str(half_path), "--out", str(out_half)]) == 0
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


@pytest.mark.parametrize("rows, layers, message", [
    ("0,0.0,1.0,2.0\n1,1.0,0.0,2.0\n", "4,8,2", "learner.layers: first size 4"),
    ("0,0.0\n1,1.0\n2,2.0\n3,3.0\n", "1,8,3", "learner.layers: last size 3 != dataset.classes 4"),
], ids=["three_features_under_four_inputs", "four_labels_under_three_outputs"])
def test_csv_shape_checked_against_layers(tmp_path, capsys, rows, layers, message):
    (tmp_path / "train.csv").write_text(rows)
    (tmp_path / "test.csv").write_text(rows)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        f"[learner]\nlayers = {layers}\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def _data_kinds(tmp_path, classes, partition, layers):
    """One shape of generate_synthetic_split (classes x 4 dims, 10 training and
    5 test rows per class), as a synthetic config and as a CSV pair written by
    save_csv, both with the given [partition] and [learner] layers."""
    from tramfl import generate_synthetic_split, save_csv

    shape = {"classes": classes, "dims": 4, "per_class": 10, "test_per_class": 5, "separation": 3.0,
             "seed": 5}
    for half, data in zip(("train", "test"), generate_synthetic_split(*shape.values())):
        save_csv(data, tmp_path / f"{half}.csv")
    rest = (f"\n[partition]\n{partition}\n\n[learner]\nlayers = {layers}\neta = 0.1\nbatch = 2\n\n"
            "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n[policies]\ndynamic = dynamic\n")
    synthetic = "[dataset]\nkind = synthetic\n" + "".join(f"{k} = {v}\n" for k, v in shape.items())
    csv = f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n"
    return {"synthetic": synthetic + rest, "csv": csv + rest}


@pytest.mark.parametrize("classes, partition, layers, message", [
    (3, "scheme = contiguous\nnodes = 2", "5,8,3", "learner.layers: first size 5 != dataset.dims 4"),
    (3, "scheme = contiguous\nnodes = 2", "4,8,4", "learner.layers: last size 4 != dataset.classes 3"),
    (3, "scheme = contiguous\nnodes = 4", "4,8,3", "partition.nodes: 4 exceeds 3 labels"),
    (3, "scheme = random_k\nnodes = 2\nk_min = 1\nk_max = 4", "4,8,3", "partition.k_max: exceeds 3 classes"),
    (2, "scheme = table\nnodes = 2\ncounts = 6,0; 5,1", "4,8,2",
     "partition.counts: the nodes ask for 11 samples of class 0, the training set holds 10"),
    (3, "scheme = exponential\nnodes = 2\nrate = 1.0", "4,8,3",
     "partition.scheme: exponential needs a 2-class dataset, got 3"),
], ids=["first_size", "last_size", "contiguous_nodes", "random_k_k_max", "table_counts", "exponential_classes"])
def test_synthetic_and_csv_data_break_a_rule_alike(tmp_path, capsys, classes, partition, layers, message):
    """config.check_data states each rule between the data and [learner] or
    [partition] once: the same data as a synthetic config and as CSV files
    gives the same config error, at parse time or once loaded."""
    for kind, text in _data_kinds(tmp_path, classes, partition, layers).items():
        (tmp_path / "exp.cfg").write_text(text)
        assert main(["run", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out")]) == 2, kind
        assert capsys.readouterr().err == f"config error: {message}\n", kind
        assert not (tmp_path / "out").exists()


def test_one_class_csv_is_config_error(tmp_path, capsys):
    """A one-unit softmax predicts its one class every time, so a run on it
    'reached' any target at the first transmission; it is the error a
    synthetic config with classes = 1 gives."""
    (tmp_path / "train.csv").write_text("0,0.0\n0,1.0\n0,0.5\n0,1.5\n")
    (tmp_path / "test.csv").write_text("0,0.25\n0,0.75\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = random_k\nnodes = 2\nk_min = 1\nk_max = 1\n\n"
        "[learner]\nlayers = 1,4,1\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\nrandom = random\nring = static:0,1\ngossip = gossip\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: dataset.classes: must be >= 2, got 1\n"
    assert not (tmp_path / "out").exists()
    synthetic = _data_kinds(tmp_path, 2, "scheme = contiguous\nnodes = 2", "4,8,2")["synthetic"]
    with pytest.raises(ConfigError, match=r"^dataset\.classes: must be >= 2, got 1$"):
        parse_config_text(synthetic.replace("classes = 2", "classes = 1"))


def test_csv_test_rows_need_the_training_width(tmp_path, capsys):
    (tmp_path / "train.csv").write_text("0,0.0,1.0\n1,1.0,0.0\n")
    (tmp_path / "test.csv").write_text("0,0.0,1.0,2.0\n1,1.0,0.0,2.0\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 2,4,2\neta = 0.1\nbatch = 2\n\n"
        "[run]\niterations = 5\ntarget_accuracy = 0.5\n\n"
        "[policies]\ndynamic = dynamic\n"
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: dataset.test: {tmp_path / 'test.csv'} has 3 features per row, "
        f"the training set {tmp_path / 'train.csv'} 2\n")


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


_TWO_CLASS_SYNTHETIC = (
    "[dataset]\nkind = synthetic\nclasses = 2\ndims = 2\nper_class = {per_class}\n"
    "separation = 3.0\n\n[partition]\n{partition}\n\n"
    "[learner]\nlayers = 2,4,2\neta = 0.1\nbatch = 2\n\n"
    "[run]\niterations = 20\ntarget_accuracy = 0.5\n\n[policies]\n{policies}\n"
)


@pytest.mark.parametrize("per_class, partition, policies, key, label", [
    (50, "scheme = table\nnodes = 3\ncounts = 20,20; 0,0; 30,30",
     "p = dynamic\nq = random", "partition.counts", "policies.q"),
    (5, "scheme = exponential\nnodes = 10\nrate = 1.0",
     "g = gossip", "partition.rate", "policies.g"),
], ids=["table_random", "exponential_gossip"])
def test_empty_shard_under_visiting_policy_is_config_error(
        tmp_path, capsys, per_class, partition, policies, key, label):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_TWO_CLASS_SYNTHETIC.format(
        per_class=per_class, partition=partition, policies=policies))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and label in err
    assert not out.exists()


def test_empty_shard_under_dynamic_only_runs(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_TWO_CLASS_SYNTHETIC.format(
        per_class=50, partition="scheme = table\nnodes = 3\ncounts = 20,20; 0,0; 30,30",
        policies="p = dynamic"))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["results_p.csv", "summary.json"]


@pytest.mark.parametrize("key", ["learner.eta", "dataset.separation"])
def test_non_finite_float_is_config_error(tmp_path, capsys, key):
    """With ``inf`` here the quickstart used to train on NaN, print 0/3 for
    every policy and exit 0."""
    name = key.split(".")[1]
    text = (Path(__file__).parents[1] / "configs" / "quickstart.cfg").read_text()
    text = re.sub(rf"^{name} = .*$", f"{name} = inf", text, count=1, flags=re.M)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text.replace("iterations = 4000", "iterations = 20"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


QUICKSTART = Path(__file__).parents[1] / "configs" / "quickstart.cfg"


def _quickstart_with(tmp_path, section, key, value, iterations=20):
    """The quickstart config with ``section.key = value``, written to a file."""
    text = QUICKSTART.read_text().replace("iterations = 4000", f"iterations = {iterations}")
    head, marker, rest = text.partition(f"[{section}]\n")
    rest = re.sub(rf"^{key} = .*$", f"{key} = {value}", rest, count=1, flags=re.M)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(head + marker + rest)
    return cfg_path


@pytest.mark.parametrize("key, value", [("dataset.seed", -1), ("partition.seed", -2), ("run.seed", -3)])
def test_negative_seed_is_config_error(tmp_path, capsys, key, value):
    """These used to exit 3 with "error: expected non-negative integer"."""
    cfg_path = _quickstart_with(tmp_path, *key.split("."), value)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key}: must be >= 0, got {value}" in capsys.readouterr().err


def test_static_all_over_eight_nodes_is_config_error(tmp_path, capsys):
    """This used to exit 3 with "error: route enumeration supports 2..8 nodes"."""
    cfg_path = _quickstart_with(tmp_path, "partition", "nodes", 9)
    cfg_path.write_text(cfg_path.read_text().replace("ring = static:0,1,2,3,4", "s = static:all"))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: policies.s: route enumeration supports 2..8 nodes, got 9" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("eta", ["500", "1e308"])
def test_diverging_trials_stop_warn_and_exit_3(tmp_path, capsys, eta):
    """With these rates the quickstart used to train on NaN to its last
    iteration, write nan losses and exit 0."""
    cfg_path = _quickstart_with(tmp_path, "learner", "eta", eta, iterations=4000)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", str(cfg_path), "--out", str(out)]) == 3
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 9  # 3 policies x 3 trials
        assert all(re.fullmatch(r"warning: \w+ trial \d diverged: test loss (nan|inf) "
                                r"at transmission \d+", line) for line in warnings)
    status = json.loads((outs[0] / "status.json").read_text())
    assert status == {label: {"reached": 0, "budget_exhausted": 0, "diverged": 3}
                      for label in ("dynamic", "random", "ring")}
    for label in status:
        rows = _read_rows(outs[0] / f"results_{label}.csv")
        for trial in range(3):
            losses = [r[4] for r in rows if r[0] == trial]
            assert not np.isfinite(losses[-1]) and np.all(np.isfinite(losses[:-1]))
    assert json.loads((outs[0] / "summary.json").read_text())["ring"]["n_reached"] == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # A clean rerun into the same directory leaves no stale status behind.
    cfg_path.write_text(cfg_path.read_text().replace(f"eta = {eta}", "eta = 0.05"))
    assert main(["run", str(cfg_path), "--out", str(outs[0])]) == 0
    assert not (outs[0] / "status.json").exists()


def _float_range_case(tmp_path, train, test, seed=0):
    (tmp_path / "train.csv").write_text(train)
    (tmp_path / "test.csv").write_text(test)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"[dataset]\nkind = csv\ntrain = {tmp_path / 'train.csv'}\ntest = {tmp_path / 'test.csv'}\n\n"
        "[partition]\nscheme = contiguous\nnodes = 2\n\n"
        "[learner]\nlayers = 3,8,2\neta = 0.1\nbatch = 2\n\n"
        f"[run]\niterations = 20\ntarget_accuracy = 0.9\nseed = {seed}\n\n"
        "[policies]\ndynamic = dynamic\nring = static:1,0\ngossip = gossip\n"
    )
    return cfg_path


def test_csv_test_row_near_float_max_is_config_error(tmp_path, capsys):
    """Found by test_cli_fuzz: this test row overflows every evaluation. The
    run used to write nan losses and exit 0, then to blame every trial as
    diverged at transmission 1; the He-initialised loss on it is finite for
    some seeds, so the row is rejected by magnitude, whatever the seed."""
    bound = math.sqrt(sys.float_info.max)
    for seed in range(6):
        cfg_path = _float_range_case(tmp_path, "0,0,0,0\n1,0,0,0\n", "0,0,-1e308,0\n", seed)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: dataset.test: row 1 of {tmp_path / 'test.csv'} has a feature "
            f"of magnitude above {bound!r}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["train", "test"])
def test_csv_feature_magnitude_bound(tmp_path, capsys, key):
    """A feature at sqrt(float max) loads; the next float above it, in either
    file and of either sign, is a config error naming the file and its row."""
    bound = math.sqrt(sys.float_info.max)

    def case(row):
        files = {"train": "0,0,0,0\n1,0,0,0\n", "test": "0,0,0,0\n1,0,0,0\n"}
        files[key] += row
        return _float_range_case(tmp_path, files["train"], files["test"])

    loaded = dict(zip(["train", "test"], cli._build_datasets(parse_config(
        case(f"1,0,{-bound!r},{bound!r}\n")))))
    assert loaded[key].features[2].tolist() == [0.0, -bound, bound]
    beyond = math.nextafter(bound, math.inf)
    for value in (beyond, -beyond):
        assert main(["run", str(case(f"1,0,{value!r},0\n")), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: dataset.{key}: row 3 of {tmp_path / f'{key}.csv'} has a feature "
            f"of magnitude above {bound!r}\n")
        assert not (tmp_path / "out").exists()


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


# CLI fuzzing: mutated shipped configs and small generated CSV datasets run
# through main() in-process. Sizes stay small: at most 8 nodes, 16-wide
# layers, 50 rows per class, 20 iterations and one trial.

def _sections(text):
    """Config text as [[section, [[key, value], ...]], ...], comments dropped."""
    sections = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            sections.append([line[1:-1], []])
        elif line and not line.startswith("#"):
            key, _, value = line.partition("=")
            sections[-1][1].append([key.strip(), value.strip()])
    return sections


def _render(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in pairs) + "\n"
        for name, pairs in sections
    )


_SHIPPED = [
    path.read_text().replace("8,32,10", "8,16,10").replace("per_class = 200", "per_class = 50")
    .replace("iterations = 4000", "iterations = 20").replace("trials = 3", "trials = 1")
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
]
_NUMBERS = ["0", "-1", "1", "2", "3", "0.5", "nan", "inf", "1e308", "1e-308"]
_VALUES = _NUMBERS + ["", "x", "true", "1,0; 0,1", "3,8,2", "static:", "static:0,0,1",
                      "static:1,0", "static:all", "dynamic", "gossip", "csv", "exponential", "table"]
_KEYS = ["kind", "classes", "dims", "per_class", "separation", "train", "header", "seed", "scheme",
         "nodes", "k_min", "k_max", "rate", "counts", "layers", "eta", "batch", "iterations",
         "interval", "eval_every", "target_accuracy", "trials", "flavor", "ring"]
_FEATURES = ["0", "-1", "0.5", "2", "-0.0", "1e308", "-1e308"]
# A config error may name the section a mutation touched, or a section whose
# checks read it.
_READERS = {"dataset": {"dataset", "partition", "learner"}, "partition": {"partition", "policies"}}


@st.composite
def _csv_case(draw, fits=False):
    """A small CSV train/test pair and a config that reads it. With ``fits``
    the pair passes every data check: its features are in bounds, the
    training set holds every class, and the partition fits the classes."""
    classes, dims = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    features = [f for f in _FEATURES if abs(float(f)) <= cli.FEATURE_LIMIT] if fits else _FEATURES

    def rows(max_rows, cover=()):
        labels = [*cover, *draw(st.lists(st.integers(0, classes - 1), min_size=0 if cover else 1,
                                         max_size=max_rows - len(cover)))]
        return "".join(
            f"{y}," + ",".join(draw(st.sampled_from(features)) for _ in range(dims)) + "\n"
            for y in labels
        )

    files = {"train.csv": rows(12, range(classes) if fits else ()), "test.csv": rows(6)}
    partitions = ["scheme = contiguous\nnodes = 2", "scheme = random_k\nnodes = 2\nk_min = 1\nk_max = 2"]
    if classes == 2 or not fits:
        partitions += ["scheme = exponential\nnodes = 2\nrate = 1.0",
                       "scheme = table\nnodes = 2\ncounts = 1,0; 0,1"]
    partition = draw(st.sampled_from(partitions))
    text = (
        "[dataset]\nkind = csv\ntrain = {dir}/train.csv\ntest = {dir}/test.csv\n\n"
        f"[partition]\n{partition}\n\n[learner]\nlayers = {dims},8,{classes}\neta = 0.1\n"
        "batch = 2\n\n[run]\niterations = 20\ntarget_accuracy = 0.9\n\n"
        "[policies]\ndynamic = dynamic\nring = static:1,0\ngossip = gossip\n"
    )
    return text, files


@st.composite
def _fuzz_case(draw):
    """(config text, data files, sections a fault may be reported under)."""
    fits = False
    if draw(st.booleans()):
        fits = draw(st.booleans())
        text, files = draw(_csv_case(fits))
        touched = {"dataset", "partition"}
    else:
        text, files, touched = draw(st.sampled_from(_SHIPPED)), {}, set()
    sections = _sections(text)
    # Mostly retyped values, so that many cases get past parsing; data that
    # fits and the shipped configs get at most one, so that many of their
    # cases run.
    ops = ["set"] * 6 + ["drop", "drop", "add", "duplicate", "drop_section"]
    for _ in range(draw(st.integers(0, 2 if files and not fits else 1))):
        op = draw(st.sampled_from(ops))
        name, pairs = draw(st.sampled_from(sections))
        touched |= _READERS.get(name, {name})
        if op == "drop_section" and len(sections) > 1:
            sections.remove([name, pairs])
        elif op == "add" or not pairs:
            pairs.append([draw(st.sampled_from(_KEYS)), draw(st.sampled_from(_VALUES))])
        else:
            i = draw(st.integers(0, len(pairs) - 1))
            if op == "drop":
                del pairs[i]
            elif op == "duplicate":
                pairs.append(list(pairs[i]))
            else:
                numeric = re.fullmatch(r"[-+.\deE]+", pairs[i][1])
                pairs[i][1] = draw(st.sampled_from(_NUMBERS if numeric else _VALUES))
    return _render(sections), files, touched


def _run_main(text, files):
    """Run ``tramfl run`` on the case in a scratch directory; returns (exit
    code, stderr, {output name: bytes})."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            Path(tmp, name).write_text(body)
        cfg_path = Path(tmp, "exp.cfg")
        cfg_path.write_text(text.replace("{dir}", tmp))
        out, err = Path(tmp, "out"), io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg_path), "--out", str(out)])
        outputs = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, err.getvalue(), outputs


def _numbers(value):
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_fuzz_case())
def test_cli_fuzz(case):
    """Any config exits 0, 2 or 3 without a traceback; a config error names
    a section or key at fault; exit 0 writes only finite numbers."""
    text, files, touched = case
    code, err, outputs = _run_main(text, files)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error: ")
        assert any(name in err for name in touched), (err, touched)
    if code == 0:
        assert "status.json" not in outputs
        for name, data in outputs.items():
            if name.endswith(".csv"):
                for line in data.decode().splitlines()[1:]:
                    assert all(math.isfinite(float(v)) for v in line.split(",")), (name, line)
        summary = json.loads(outputs["summary.json"], parse_constant=float)
        assert all(math.isfinite(n) for n in _numbers(summary))
