import numpy as np
import pytest

from tramfl import (
    ArchSpec,
    PolicySpec,
    RunConfig,
    StateError,
    draw_minibatch,
    generate_synthetic,
    generate_synthetic_split,
    init_he,
    loss_and_grad,
    make_shard,
    run_gossip,
    run_tram_fl,
    run_trials,
    sgd_step,
    split_contiguous_labels,
)
from tramfl import simulator


@pytest.fixture(scope="module")
def small_task():
    train, test = generate_synthetic_split(4, 4, 30, 15, 3.0, 1)
    return train, test


def _cfg(**kwargs):
    base = dict(
        arch=ArchSpec((4, 8, 4)),
        learning_rate=0.05,
        batch_size=4,
        interval=1,
        max_iterations=20,
        eval_every=1,
        seed=3,
        policy=PolicySpec("dynamic"),
    )
    base.update(kwargs)
    return RunConfig(**base)


def test_transmissions_are_floor_k_over_t(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    for max_iterations, interval, expected in ((12, 4, 3), (14, 4, 3), (5, 1, 5), (3, 4, 0)):
        result = run_tram_fl(shards, test, _cfg(max_iterations=max_iterations, interval=interval))
        assert result.records[-1].transmissions == expected


def test_record_fields_and_ordering(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    result = run_tram_fl(shards, test, _cfg(max_iterations=12, interval=4))
    assert [r.transmissions for r in result.records] == [1, 2, 3]
    assert [r.iteration for r in result.records] == [4, 8, 12]
    for record in result.records:
        assert 0.0 <= record.test_accuracy <= 1.0
        assert record.holder in (0, 1)


@pytest.mark.parametrize("numpy_scalars", [False, True], ids=["as_is", "numpy_scalars"])
def test_record_fields_are_exact_builtin_types(small_task, monkeypatch, numpy_scalars):
    # The CSV writes repr() of each field, and repr(np.float64(x)) is not repr(x).
    if numpy_scalars:
        real = simulator.evaluate
        monkeypatch.setattr(simulator, "evaluate",
                            lambda params, ds: tuple(np.float64(v) for v in real(params, ds)))
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    results = [run_tram_fl(shards, test, _cfg(max_iterations=6)),
               run_gossip(shards, test, _cfg(max_iterations=3, policy=PolicySpec("gossip")))]
    for result in results:
        assert result.records
        for record in result.records:
            assert [type(getattr(record, f)) for f in ("iteration", "transmissions", "holder")] == [int] * 3
            assert [type(record.test_accuracy), type(record.test_loss)] == [float, float]


def test_single_node_static_self_loop(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 1)
    result = run_tram_fl(shards, test, _cfg(policy=PolicySpec("static", (0,)), max_iterations=8, interval=2))
    assert result.records[-1].transmissions == 4
    assert all(r.holder == 0 for r in result.records)


def test_static_run_follows_route_successors(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 4)
    route = (0, 2, 1, 3)
    successor = {node: route[(i + 1) % len(route)] for i, node in enumerate(route)}
    starts = set()
    for seed in (3, 4):
        # run_tram_fl's first draw from its seeded generator places the model
        holder = int(np.random.default_rng(seed).integers(len(shards)))
        starts.add(holder)
        cfg = _cfg(policy=PolicySpec("static", route), max_iterations=9, eval_every=1, seed=seed)
        expected = []
        for _ in range(9):
            holder = successor[holder]
            expected.append(holder)
        assert [r.holder for r in run_tram_fl(shards, test, cfg).records] == expected
    assert len(starts) == 2


def test_dynamic_routing_reaches_high_accuracy_fast():
    # two separable one-class nodes; pooled-data training is the feasibility oracle
    train, test = generate_synthetic_split(2, 2, 100, 50, 4.0, 11)
    pooled = split_contiguous_labels(train, 1)
    oracle_cfg = _cfg(
        arch=ArchSpec((2, 8, 2)), learning_rate=0.1, batch_size=1, interval=1,
        max_iterations=400, eval_every=400, policy=PolicySpec("static", (0,)), seed=2,
    )
    oracle = run_tram_fl(pooled, test, oracle_cfg)
    assert oracle.records[-1].test_accuracy >= 0.99

    shards = split_contiguous_labels(train, 2)
    routed_cfg = _cfg(
        arch=ArchSpec((2, 8, 2)), learning_rate=0.1, batch_size=1, interval=1,
        max_iterations=400, eval_every=1, target_accuracy=0.99,
        policy=PolicySpec("dynamic"), seed=2,
    )
    routed = run_tram_fl(shards, test, routed_cfg)
    assert routed.transmissions_to_target is not None
    assert routed.transmissions_to_target <= 400


def test_run_is_bit_deterministic(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    a = run_tram_fl(shards, test, _cfg(max_iterations=30))
    b = run_tram_fl(shards, test, _cfg(max_iterations=30))
    assert a.final_params_digest == b.final_params_digest
    assert a.records == b.records
    c = run_tram_fl(shards, test, _cfg(max_iterations=30, seed=4))
    assert c.final_params_digest != a.final_params_digest


def test_ledger_accounts_every_batch(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    cfg = _cfg(max_iterations=25, interval=3, batch_size=5)
    result = run_tram_fl(shards, test, cfg)
    assert result.ledger.total() == 25 * 5


def test_eval_cadence_strictly_increasing(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    result = run_tram_fl(shards, test, _cfg(max_iterations=24, interval=2, eval_every=3))
    gaps = np.diff([r.transmissions for r in result.records])
    assert np.all(gaps > 0)
    assert np.all(gaps % 3 == 0)
    assert result.records[0].transmissions == 3


def test_terminal_evaluation_when_cadence_misses_end(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    # 7 transmissions, eval every 5: records at 5 then terminal at 7
    result = run_tram_fl(shards, test, _cfg(max_iterations=7, interval=1, eval_every=5))
    assert [r.transmissions for r in result.records] == [5, 7]
    # 10 transmissions, eval every 3: records at 3, 6, 9 then terminal at 10
    result = run_tram_fl(shards, test, _cfg(max_iterations=10, interval=1, eval_every=3))
    assert [r.transmissions for r in result.records] == [3, 6, 9, 10]
    assert [r.iteration for r in result.records] == [3, 6, 9, 10]


def test_early_stop_records_target(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    result = run_tram_fl(shards, test, _cfg(max_iterations=500, target_accuracy=0.5))
    assert result.transmissions_to_target is not None
    assert result.records[-1].transmissions == result.transmissions_to_target
    assert result.records[-1].test_accuracy >= 0.5


def test_no_nonempty_shard_is_state_error(small_task):
    _, test = small_task
    shards = [make_shard(0, test, []), make_shard(1, test, [])]
    with pytest.raises(StateError):
        run_tram_fl(shards, test, _cfg())


def test_gossip_policy_rejected_by_tram(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    with pytest.raises(ValueError):
        run_tram_fl(shards, test, _cfg(policy=PolicySpec("gossip")))


def test_bad_static_route_rejected(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    with pytest.raises(ValueError):
        run_tram_fl(shards, test, _cfg(policy=PolicySpec("static", (0, 2, 1))))


def test_gossip_directed_transmission_count(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 3)
    result = run_gossip(shards, test, _cfg(policy=PolicySpec("gossip"), max_iterations=1))
    assert result.records[-1].transmissions == 6
    halved = run_gossip(
        shards, test, _cfg(policy=PolicySpec("gossip"), max_iterations=1, count_exchanges_once=True)
    )
    assert halved.records[-1].transmissions == 3


def test_gossip_needs_two_nodes_and_data(small_task):
    train, test = small_task
    with pytest.raises(ValueError):
        run_gossip(split_contiguous_labels(train, 1), test, _cfg(policy=PolicySpec("gossip")))
    shards = split_contiguous_labels(train, 2)
    shards[1] = make_shard(1, train, [])
    with pytest.raises(StateError):
        run_gossip(shards, test, _cfg(policy=PolicySpec("gossip")))


def test_gossip_round_equals_averaged_gradient_step(small_task):
    """Full-mesh averaging each round collapses to one mean-gradient update."""
    train, test = small_task
    shards = split_contiguous_labels(train, 4)
    cfg = _cfg(policy=PolicySpec("gossip"), max_iterations=5, seed=21)
    result = run_gossip(shards, test, cfg)

    rng = np.random.default_rng(cfg.seed)
    params = init_he(cfg.arch, cfg.seed)
    for _ in range(cfg.max_iterations):
        grads = []
        for shard in shards:
            idx, _ = draw_minibatch(shard, cfg.batch_size, rng)
            grads.append(loss_and_grad(params, shard.features[idx], shard.labels[idx])[1])
        params = sgd_step(params, np.mean(grads, axis=0), cfg.learning_rate)
    assert np.allclose(result.final_params.values, params.values, atol=1e-12)


def test_gossip_iid_shards_match_centralized_curve():
    train, test = generate_synthetic_split(10, 8, 100, 50, 4.0, 31)
    rng = np.random.default_rng(5)
    chunks = np.array_split(rng.permutation(len(train)), 5)
    shards = [make_shard(i, train, chunk) for i, chunk in enumerate(chunks)]
    rounds = 150
    arch = ArchSpec((8, 32, 10))
    gossip = run_gossip(
        shards, test,
        _cfg(arch=arch, batch_size=16, max_iterations=rounds, eval_every=20, seed=17,
             policy=PolicySpec("gossip")),
    )
    # one gossip round == one update on a 5x16 composite batch at equal sample count
    central = run_tram_fl(
        split_contiguous_labels(train, 1), test,
        _cfg(arch=arch, batch_size=80, max_iterations=rounds, eval_every=1, seed=17,
             policy=PolicySpec("static", (0,))),
    )
    gossip_acc = {r.iteration: r.test_accuracy for r in gossip.records}
    central_acc = {r.iteration: r.test_accuracy for r in central.records}
    plateau = [r for r in sorted(set(gossip_acc) & set(central_acc)) if r >= 50]
    assert len(plateau) >= 50
    for r in plateau:
        assert abs(gossip_acc[r] - central_acc[r]) <= 0.02


def test_gossip_is_deterministic(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 3)
    cfg = _cfg(policy=PolicySpec("gossip"), max_iterations=10)
    assert run_gossip(shards, test, cfg).final_params_digest == run_gossip(shards, test, cfg).final_params_digest


def test_gossip_evaluates_on_bucket_changes_only(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 3)
    # 6 transmissions per round, eval every 10: sent 6, 12, 18, 24, 30, 36 enter
    # buckets 0, 1, 1, 2, 3, 3; round 6 stays in bucket 3, so it is the terminal record
    result = run_gossip(shards, test, _cfg(policy=PolicySpec("gossip"), max_iterations=6,
                                           eval_every=10))
    assert [r.transmissions for r in result.records] == [12, 24, 30, 36]
    assert [r.iteration for r in result.records] == [2, 4, 5, 6]


@pytest.mark.parametrize("policy", [PolicySpec("dynamic"), PolicySpec("gossip")],
                         ids=lambda p: p.kind)
def test_transmissions_to_target_is_first_and_last_hit(small_task, policy):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    cfg = _cfg(policy=policy, max_iterations=500, target_accuracy=0.5)
    run = run_gossip if policy.kind == "gossip" else run_tram_fl
    result = run(shards, test, cfg)
    hits = [r for r in result.records if r.test_accuracy >= 0.5]
    assert hits and hits[0] is result.records[-1]
    assert result.transmissions_to_target == hits[0].transmissions


def test_run_trials_single_trial_convention(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    summary = run_trials(shards, test, _cfg(max_iterations=400, target_accuracy=0.5), num_trials=1)
    assert summary.n_trials == 1
    assert summary.n_reached == 1
    assert summary.std == 0.0
    assert summary.mean == summary.per_trial[0]


def test_run_trials_deterministic_and_seeded(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    cfg = _cfg(max_iterations=300, target_accuracy=0.5)
    a = run_trials(shards, test, cfg, num_trials=3)
    b = run_trials(shards, test, cfg, num_trials=3)
    assert a.per_trial == b.per_trial
    # trial 1 of this summary equals a fresh run at seed+1
    solo = run_tram_fl(shards, test, _cfg(max_iterations=300, target_accuracy=0.5, seed=4))
    assert a.per_trial[1] == solo.transmissions_to_target


def test_run_trials_counts_non_reaching(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    summary = run_trials(shards, test, _cfg(max_iterations=3, target_accuracy=1.0), num_trials=2)
    assert summary.n_reached == 0
    assert summary.mean is None and summary.std is None
    assert summary.per_trial == [None, None]


def test_run_trials_requires_target(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    with pytest.raises(ValueError):
        run_trials(shards, test, _cfg(target_accuracy=None), num_trials=2)


def test_run_trials_dispatches_gossip(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    summary = run_trials(
        shards, test, _cfg(policy=PolicySpec("gossip"), max_iterations=2, target_accuracy=1.0),
        num_trials=1,
    )
    assert summary.results[0].records[-1].transmissions == 4  # 2 rounds x V(V-1)
    assert summary.results[0].records[-1].holder == -1
