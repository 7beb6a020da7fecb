"""Golden outputs: refactors must reproduce these values bit for bit.

Each constant was recorded from the code as it stood when this file was
added. A change that means to alter trajectories re-pins them in a separate,
reviewed step; any other change that breaks one has changed behaviour.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from tramfl import (
    ArchSpec,
    PolicySpec,
    RunConfig,
    finite_diff_check,
    generate_synthetic_split,
    init_he,
    run_gossip,
    run_tram_fl,
    split_contiguous_labels,
    split_random_k_labels,
)
from tramfl.cli import main

QUICKSTART = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "quickstart.cfg")

TRAM_GOLDENS = {
    # policy name: (final params digest, transmissions_to_target)
    "dynamic": ("d788cdfd2cb4b6a6d418092a37d12617eb3443475e0abf6a453dd0388ee55ec6", 45),
    "random": ("5586a8f6ef8d3bee909e1002547e09c7a2668f818b0ead79b66fed975559d643", 55),
    "static_0-2-1-3-4": ("4d2e63547d0ef6d316bc02ef3e175e8822d1ff0756b6d0412e5b194c8aace6b5", 85),
}
GOSSIP_DIGEST = "a9e9fb5ab0203b4c143c2493294dda9478ac8b1e3e79b1be3ae4c029ec2fc293"
QUICKSTART_SHA256 = {
    "results_dynamic.csv": "b0b249b45e87489bc095908a42c16ec5e7b2d0814ba1894a8d698470bb5ae73c",
    "results_random.csv": "42094d9e5f77c2ffd1a00c89aeb1cd6156dcc4c150c246888624171cd7be7fec",
    "results_ring.csv": "c634b9219395af6c9bb9292a2a396677ccd99500cd271fa3c501332966dd334c",
    "summary.json": "7d2054158a3962ab48b541ce1f82fa8e33e865779e19948d86bd75e13a208333",
}
FINITE_DIFF_REPR = "np.float64(5.8713114699041985e-08)"
# The same runs on an 8-16-16-10 net, so backprop through a hidden-to-hidden
# layer is pinned too: (final params digest, transmissions_to_target, sha256
# of the evaluation records as the CSV writes them).
DEEP_TRAM_GOLDEN = (
    "b5e0b65106d6370cd65f62a764cbde7bf5b1c03804a38d720c03c6e539765858", 100,
    "349e09d526a2b1537674767b6d3a35998b092cd8fffeb6c2e52971d92f57103d",
)
DEEP_GOSSIP_GOLDEN = (
    "bbf7d6a24993fff0c759f4161c842120645db29dc1bd94b5aea6d7a244b18d63", None,
    "b385dafab7c90bf023ef5c8498f6b6b97d633870975ae8c46d62b4db11a7c1bf",
)


@pytest.fixture(scope="module")
def task():
    return generate_synthetic_split(10, 8, 60, 20, 4.0, 1)


def _base_cfg():
    return RunConfig(
        arch=ArchSpec((8, 16, 10)), learning_rate=0.05, batch_size=8, interval=2,
        max_iterations=400, eval_every=5, target_accuracy=0.85, seed=3,
    )


@pytest.mark.parametrize(
    "policy", [PolicySpec("dynamic"), PolicySpec("random"), PolicySpec("static", (0, 2, 1, 3, 4))],
    ids=lambda p: p.name(),
)
def test_tram_fl_trial_digest(task, policy):
    train, test = task
    shards = split_random_k_labels(train, 5, 2, 5, np.random.default_rng(1))
    result = run_tram_fl(shards, test, replace(_base_cfg(), policy=policy))
    assert (result.final_params_digest, result.transmissions_to_target) == TRAM_GOLDENS[policy.name()]


def test_gossip_run_digest(task):
    train, test = task
    cfg = replace(_base_cfg(), max_iterations=30)
    result = run_gossip(split_contiguous_labels(train, 5), test, cfg)
    assert result.final_params_digest == GOSSIP_DIGEST
    assert result.transmissions_to_target is None


def _deep_golden(result):
    lines = "".join(
        f"{r.iteration},{r.transmissions},{r.holder},{r.test_loss!r},{r.test_accuracy!r}\n"
        for r in result.records
    )
    return (result.final_params_digest, result.transmissions_to_target,
            hashlib.sha256(lines.encode()).hexdigest())


def test_deep_tram_fl_trial_digest(task):
    train, test = task
    shards = split_random_k_labels(train, 5, 2, 5, np.random.default_rng(1))
    cfg = replace(_base_cfg(), arch=ArchSpec((8, 16, 16, 10)), policy=PolicySpec("dynamic"))
    assert _deep_golden(run_tram_fl(shards, test, cfg)) == DEEP_TRAM_GOLDEN


def test_deep_gossip_run_digest(task):
    train, test = task
    cfg = replace(_base_cfg(), arch=ArchSpec((8, 16, 16, 10)), max_iterations=30)
    assert _deep_golden(run_gossip(split_contiguous_labels(train, 5), test, cfg)) == DEEP_GOSSIP_GOLDEN


def test_quickstart_outputs(tmp_path, capsys):
    assert main(["run", QUICKSTART, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == QUICKSTART_SHA256


def test_finite_diff_check_value():
    rng = np.random.default_rng(1001)
    rows = [(rng.standard_normal(4), int(rng.integers(3))) for _ in range(8)]
    features, labels = np.stack([f for f, _ in rows]), np.array([y for _, y in rows])
    value = finite_diff_check(init_he(ArchSpec((4, 8, 3)), 1), features, labels, 1e-5)
    assert repr(value) == FINITE_DIFF_REPR
