"""Acceptance suite: one test per criterion, at the stated tolerances.

The directional comparisons (criteria 5 and 6) follow the transmissions-to-
target methodology: the target accuracy is the pooled-data (centralized)
reference accuracy minus two points, and runs are compared by the smallest
transmission count at which they first reach it.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from tramfl import (
    ArchSpec,
    LabelHistogram,
    PolicySpec,
    RoutingState,
    RunConfig,
    draw_minibatch,
    enumerate_static_routes,
    finite_diff_check,
    generate_synthetic,
    generate_synthetic_split,
    init_he,
    run_gossip,
    run_tram_fl,
    run_trials,
    select_next_dynamic,
    split_contiguous_labels,
    split_random_k_labels,
    update_ledger,
)
from tramfl.cli import main
from tramfl.partition import DatasetShard
from tramfl.routing import dispersion

ARCH = ArchSpec((8, 32, 10))
ETA = 0.05
BATCH = 16


@pytest.fixture(scope="module")
def task():
    return generate_synthetic_split(10, 8, 200, 50, 4.0, 101)


@pytest.fixture(scope="module")
def target_accuracy(task):
    """Pooled-data reference accuracy minus two points."""
    train, test = task
    cfg = RunConfig(
        arch=ARCH, learning_rate=ETA, batch_size=BATCH, interval=1,
        max_iterations=3000, eval_every=3000, policy=PolicySpec("static", (0,)), seed=909,
    )
    reference = run_tram_fl(split_contiguous_labels(train, 1), test, cfg)
    accuracy = reference.records[-1].test_accuracy
    assert accuracy > 0.9, "reference training must comfortably solve the task"
    return accuracy - 0.02


def _fake_shard(node_id, counts):
    counts = np.asarray(counts, dtype=float)
    return DatasetShard(node_id, np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
                        LabelHistogram(counts), int(counts.sum()))


def _naive_next_node(ledger, rows, batch_size, interval):
    best_node, best_var = None, None
    for node_id, counts in rows:
        total = sum(counts)
        if total == 0:
            continue
        scale = batch_size * interval / total
        candidate = [l + scale * c for l, c in zip(ledger, counts)]
        mean = sum(candidate) / len(candidate)
        var = sum((x - mean) ** 2 for x in candidate) / len(candidate)
        if best_var is None or var < best_var:
            best_node, best_var = node_id, var
    return best_node


def test_criterion_1_routing_rule_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    for _ in range(1000):
        num_classes = int(rng.integers(1, 11))
        num_nodes = int(rng.integers(1, 11))
        ledger = rng.integers(0, 200, num_classes).astype(float)
        rows = [(i, rng.integers(0, 30, num_classes).tolist()) for i in range(num_nodes)]
        if all(sum(counts) == 0 for _, counts in rows):
            rows[0] = (0, [1] * num_classes)
        batch_size = int(rng.integers(1, 65))
        interval = int(rng.integers(1, 9))
        shards = [_fake_shard(i, counts) for i, counts in rows]
        state = RoutingState(LabelHistogram(ledger), holder=0)
        got = select_next_dynamic(state, shards, batch_size * interval)
        expected = _naive_next_node(ledger.tolist(), rows, batch_size, interval)
        assert got == expected
    assert time.perf_counter() - started < 5.0


def test_criterion_2_uniform_ledger_realization():
    # two nodes holding one distinct label each, one sample per batch and visit
    shards = [
        DatasetShard(0, np.zeros((8, 2)), np.full(8, 0), LabelHistogram([8, 0]), 8),
        DatasetShard(1, np.zeros((8, 2)), np.full(8, 1), LabelHistogram([0, 8]), 8),
    ]
    cfg = 1

    def run_walk(start, steps=20):
        rng = np.random.default_rng(0)
        state = RoutingState(LabelHistogram(np.zeros(2)), holder=start)
        holder = start
        selections = []
        for step in range(1, steps + 1):
            _, counts = draw_minibatch(shards[holder], 1, rng)
            state = update_ledger(state, counts)
            if step % 2 == 0:
                assert state.cumulative.counts.tolist() == [step / 2, step / 2]
                assert dispersion(state.cumulative) == 0.0
            holder = select_next_dynamic(state, shards, cfg)
            selections.append(holder)
            state.holder = holder
        return selections

    # starting at node 0, every hop goes to the holder's complement
    selections = run_walk(0)
    assert selections == [k % 2 for k in range(1, 21)]
    assert selections == run_walk(0)  # deterministic
    # starting at node 1, one self-selection re-aligns the parity, then the
    # walk alternates strictly; ledger uniformity at even rounds still holds
    selections = run_walk(1)
    assert selections[:3] == [0, 0, 1]
    assert all(a != b for a, b in zip(selections[1:], selections[2:]))

    # end-to-end: an even-length run leaves the ledger exactly uniform
    train, test = generate_synthetic_split(2, 2, 30, 10, 4.0, 5)
    run_cfg = RunConfig(
        arch=ArchSpec((2, 4, 2)), learning_rate=0.1, batch_size=1, interval=1,
        max_iterations=40, eval_every=40, policy=PolicySpec("dynamic"), seed=8,
    )
    result = run_tram_fl(split_contiguous_labels(train, 2), test, run_cfg)
    assert result.ledger.counts.tolist() == [20.0, 20.0]


def test_criterion_3_gradient_correctness():
    arch = ArchSpec((4, 8, 3))
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        params = init_he(arch, seed)
        rows = [(rng.standard_normal(4), int(rng.integers(3))) for _ in range(8)]
        features, labels = np.stack([f for f, _ in rows]), np.array([y for _, y in rows])
        assert finite_diff_check(params, features, labels, 1e-5) < 1e-4


def test_criterion_4_transmission_accounting():
    train, test = generate_synthetic_split(4, 4, 30, 15, 3.0, 1)
    shards = split_contiguous_labels(train, 2)
    cfg = RunConfig(
        arch=ArchSpec((4, 8, 4)), learning_rate=0.05, batch_size=4, interval=4,
        max_iterations=12, eval_every=1, policy=PolicySpec("dynamic"), seed=3,
    )
    result = run_tram_fl(shards, test, cfg)
    assert result.records[-1].transmissions == 12 // 4 == 3

    shards3 = split_contiguous_labels(train, 3)
    gossip_cfg = RunConfig(
        arch=ArchSpec((4, 8, 4)), learning_rate=0.05, batch_size=4, interval=1,
        max_iterations=1, eval_every=1, policy=PolicySpec("gossip"), seed=3,
    )
    assert run_gossip(shards3, test, gossip_cfg).records[-1].transmissions == 6
    halved = run_gossip(
        shards3, test,
        RunConfig(
            arch=ArchSpec((4, 8, 4)), learning_rate=0.05, batch_size=4, interval=1,
            max_iterations=1, eval_every=1, policy=PolicySpec("gossip"), seed=3,
            count_exchanges_once=True,
        ),
    )
    assert halved.records[-1].transmissions == 3


def test_criterion_5_directional_transmissions_to_target(task, target_accuracy):
    train, test = task
    started = time.perf_counter()
    routes = enumerate_static_routes(5)
    partition_seeds = range(1, 11)
    dynamic_means, random_means, static_medians = [], [], []
    wins_vs_random = wins_vs_static = 0
    for pseed in partition_seeds:
        shards = split_random_k_labels(train, 5, 2, 5, np.random.default_rng(pseed))
        base = RunConfig(
            arch=ARCH, learning_rate=ETA, batch_size=BATCH, interval=1,
            max_iterations=4000, eval_every=1, target_accuracy=target_accuracy,
            seed=5000 + 97 * pseed,
        )
        dynamic = run_trials(shards, test, replace(base, policy=PolicySpec("dynamic")), num_trials=5)
        uniform = run_trials(shards, test, replace(base, policy=PolicySpec("random")), num_trials=5)
        per_route = [
            run_trials(shards, test, replace(base, policy=PolicySpec("static", order)), num_trials=5).mean
            for order in routes
        ]
        assert dynamic.n_reached == 5 and uniform.n_reached == 5
        assert all(mean is not None for mean in per_route)
        median_static = statistics.median(per_route)
        dynamic_means.append(dynamic.mean)
        random_means.append(uniform.mean)
        static_medians.append(median_static)
        wins_vs_random += dynamic.mean < uniform.mean
        wins_vs_static += dynamic.mean < median_static

    assert wins_vs_random >= 8, f"dynamic beat random in only {wins_vs_random}/10 partitions"
    assert wins_vs_static >= 8, f"dynamic beat the static median in only {wins_vs_static}/10"
    overall_dynamic = statistics.fmean(dynamic_means)
    assert overall_dynamic < statistics.fmean(random_means)
    assert overall_dynamic < statistics.fmean(static_medians)
    assert time.perf_counter() - started < 600.0


def test_criterion_6_tram_beats_gossip_under_extreme_skew(task, target_accuracy):
    train, test = task
    started = time.perf_counter()
    shards = split_contiguous_labels(train, 5)
    wins = 0
    for seed in range(7000, 7010):
        tram_cfg = RunConfig(
            arch=ARCH, learning_rate=ETA, batch_size=BATCH, interval=1,
            max_iterations=4000, eval_every=1, target_accuracy=target_accuracy,
            policy=PolicySpec("static", (0, 1, 2, 3, 4)), seed=seed,
        )
        tram = run_tram_fl(shards, test, tram_cfg)
        gossip_cfg = RunConfig(
            arch=ARCH, learning_rate=ETA, batch_size=BATCH, interval=1,
            max_iterations=400, eval_every=1, target_accuracy=target_accuracy,
            policy=PolicySpec("gossip"), seed=seed,
        )
        gossip = run_gossip(shards, test, gossip_cfg)
        budget = tram.transmissions_to_target
        gossip_needed = gossip.transmissions_to_target
        wins += budget is not None and (gossip_needed is None or gossip_needed > budget)
    assert wins >= 8, f"traveling model won in only {wins}/10 seeds"
    assert time.perf_counter() - started < 600.0


ACCEPTANCE_CONFIG = """
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
trials = 2
seed = 11

[policies]
dynamic = dynamic
random = random
ring = static:0,1,2
gossip = gossip
"""


def test_criterion_7_determinism_byte_identical_csv(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(ACCEPTANCE_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_criterion_8_partition_fidelity(mnist_shaped, review_shaped):
    shards = split_contiguous_labels(mnist_shaped, 3)
    assert [s.total for s in shards] == [18000, 18000, 24000]

    from tramfl import split_exponential_binary

    v3 = split_exponential_binary(
        review_shaped, 3, counts=[[10125, 2625], [2000, 4750], [375, 5125]]
    )
    assert [s.hist.counts.tolist() for s in v3] == [
        [10125.0, 2625.0], [2000.0, 4750.0], [375.0, 5125.0]
    ]
    v5 = split_exponential_binary(
        review_shaped, 5,
        counts=[[7875, 1125], [2875, 2375], [1125, 2875], [375, 3000], [250, 3125]],
    )
    assert [s.hist.counts.tolist() for s in v5] == [
        [7875.0, 1125.0], [2875.0, 2375.0], [1125.0, 2875.0], [375.0, 3000.0], [250.0, 3125.0]
    ]
    assert sum(s.total for s in v5) == len(review_shaped)
