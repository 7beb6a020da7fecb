from dataclasses import replace

import numpy as np
import pytest

from tramfl import (
    ArchSpec,
    DatasetShard,
    LabeledDataset,
    LabelHistogram,
    ModelParams,
    PolicySpec,
    RoutingState,
    RunConfig,
    StateError,
    TrialResult,
    TrialsSummary,
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
    split_random_k_labels,
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


def _model():
    return ModelParams(ArchSpec((2, 2)), np.zeros(6))


def _trial():
    return TrialResult([], None, "digest", _model(), "budget_exhausted", LabelHistogram([1.0, 2.0]))


ARRAY_HOLDERS = {
    "LabeledDataset": lambda: LabeledDataset(np.zeros((2, 2)), [0, 1], 2, 2),
    "LabelHistogram": lambda: LabelHistogram([1.0, 2.0]),
    "ModelParams": _model,
    "DatasetShard": lambda: DatasetShard(0, np.zeros((2, 2)), np.array([0, 1]),
                                         LabelHistogram([1.0, 1.0]), 2),
    "RoutingState": lambda: RoutingState(LabelHistogram([1.0, 2.0]), 0),
    "TrialResult": _trial,
    "TrialsSummary": lambda: TrialsSummary([_trial()], [None], None, None, 1, 0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_types_holding_arrays_compare_by_identity(make):
    a, b = make(), make()
    assert a != b
    assert not a == b
    assert a == a
    hash(a)


@pytest.mark.parametrize("make, fragment", [
    (lambda shards, test: PolicySpec("nope"), "unknown policy kind"),
    (lambda shards, test: PolicySpec("dynamic", route=(0, 1)), "others must not carry one"),
    (lambda shards, test: PolicySpec("static"), "static policies need a route"),
    (lambda shards, test: _cfg(learning_rate=0.0), "learning_rate: must be > 0"),
    (lambda shards, test: _cfg(batch_size=0), "must be >= 1"),
    (lambda shards, test: _cfg(interval=0), "must be >= 1"),
    (lambda shards, test: _cfg(max_iterations=0), "must be >= 1"),
    (lambda shards, test: _cfg(eval_every=0), "must be >= 1"),
    (lambda shards, test: _cfg(target_accuracy=0.0), "target_accuracy: must be in (0, 1]"),
    (lambda shards, test: _cfg(target_accuracy=1.5), "target_accuracy: must be in (0, 1]"),
    (lambda shards, test: _cfg(max_iterations=1, interval=2),
     "max_iterations: 1 is less than interval 2, so dynamic would never send the model"),
    (lambda shards, test: run_tram_fl(shards, test, _cfg(policy=None)), "cfg.policy is not set"),
    (lambda shards, test: run_trials(shards, test, _cfg(policy=None, target_accuracy=0.5)),
     "cfg.policy is not set"),
    (lambda shards, test: run_trials(shards, test, _cfg(target_accuracy=0.5), num_trials=0),
     "num_trials must be >= 1"),
], ids=["unknown_kind", "route_on_dynamic", "static_without_route", "learning_rate",
        "batch_size", "interval", "max_iterations", "eval_every", "target_zero",
        "target_above_one", "iterations_below_interval", "tram_fl_no_policy", "trials_no_policy", "zero_trials"])
def test_simulator_checks(small_task, make, fragment):
    train, test = small_task
    with pytest.raises(ValueError) as info:
        make(split_contiguous_labels(train, 2), test)
    assert fragment in str(info.value)


def test_route_nodes_are_integers_not_truncated_floats():
    """PolicySpec("static", (0.0, 1.9)) used to become route (0, 1)."""
    with pytest.raises(TypeError):
        PolicySpec("static", (0.0, 1.9))
    route = PolicySpec("static", np.array([1, 0])).route
    assert route == (1, 0) and all(type(i) is int for i in route)


def test_transmissions_are_floor_k_over_t(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    for max_iterations, interval, expected in ((12, 4, 3), (14, 4, 3), (5, 1, 5), (4, 4, 1)):
        result = run_tram_fl(shards, test, _cfg(max_iterations=max_iterations, interval=interval))
        assert result.records[-1].transmissions == expected
    with pytest.raises(ValueError, match="never send"):  # floor(3 / 4) = 0 sends
        _cfg(max_iterations=3, interval=4)


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
        monkeypatch.setattr(simulator, "evaluate", lambda params, ds, **kwargs: tuple(
            np.float64(v) for v in real(params, ds, **kwargs)))
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


@pytest.mark.parametrize("first", ["tram", "gossip"])
def test_no_state_leaks_between_trials(small_task, first):
    # Each trial trains in its own workspace, so a trial run again after
    # another one (other policy, net and batch size) repeats exactly.
    train, test = small_task
    shards = split_contiguous_labels(train, 2)

    def tram():
        return run_tram_fl(shards, test, _cfg(max_iterations=15, interval=2))

    def gossip():
        return run_gossip(shards, test, _cfg(arch=ArchSpec((4, 6, 5, 4)), batch_size=3,
                                             max_iterations=6, policy=PolicySpec("gossip")))

    a, b = (tram, gossip) if first == "tram" else (gossip, tram)
    before, _, after = a(), b(), a()
    assert after.final_params_digest == before.final_params_digest
    assert after.records == before.records


def test_ledger_accounts_every_batch(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    cfg = _cfg(max_iterations=25, interval=3, batch_size=5)
    result = run_tram_fl(shards, test, cfg)
    assert result.ledger.counts.sum() == 25 * 5
    assert result.ledger.counts.dtype == np.float64  # perfbench's _cv reads it as floats


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


def test_terminal_evaluation_does_not_count_the_target(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    # 4 sends, eval every 5: the only record is the terminal one, off the grid
    result = run_tram_fl(shards, test, _cfg(max_iterations=4, eval_every=5, target_accuracy=0.05))
    assert [(r.iteration, r.transmissions) for r in result.records] == [(4, 4)]
    assert result.records[0].test_accuracy >= 0.05
    assert result.transmissions_to_target is None
    assert result.status == "budget_exhausted"
    # two gossip rounds of 2 sends each, eval every 5: terminal record at 4
    result = run_gossip(shards, test, _cfg(max_iterations=2, eval_every=5, target_accuracy=0.05,
                                           policy=PolicySpec("gossip")))
    assert [r.transmissions for r in result.records] == [4]
    assert result.records[0].test_accuracy >= 0.05
    assert result.status == "budget_exhausted"


def test_run_config_rejects_a_budget_without_a_send(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    with pytest.raises(ValueError, match="never send"):  # before run_trials could report [0, 0]
        run_trials(shards, test, _cfg(policy=PolicySpec("random"), interval=5, max_iterations=3,
                                      target_accuracy=0.05), num_trials=2)
    # gossip exchanges every round, and an unset policy is checked when set
    _cfg(policy=PolicySpec("gossip"), interval=5, max_iterations=3)
    _cfg(policy=None, interval=5, max_iterations=3)


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


@pytest.mark.parametrize("policy", [PolicySpec("random"), PolicySpec("static", (0, 1, 2))],
                         ids=lambda p: p.name())
def test_visiting_policy_rejects_an_empty_shard_whatever_the_budget(small_task, policy):
    """Random and static visit every node, so an empty shard fails before
    the first step, not only once the model reaches it."""
    train, test = small_task
    shards = split_contiguous_labels(train, 3)
    shards[1] = make_shard(1, train, [])
    for iterations in (1, 40):
        with pytest.raises(StateError, match="shard 1 is empty"):
            run_tram_fl(shards, test, _cfg(policy=policy, max_iterations=iterations))


def test_gossip_needs_node_ids_0_to_v_minus_1(small_task):
    train, test = small_task
    shards = split_contiguous_labels(train, 2)
    shards[1] = replace(shards[1], node_id=5)
    with pytest.raises(ValueError, match="node ids"):
        run_gossip(shards, test, _cfg(policy=PolicySpec("gossip")))


def _with_extra_class(ds, row):
    """``ds`` with one class more, given to ``row``."""
    labels = ds.labels.copy()
    labels[row] = ds.num_classes
    return LabeledDataset(ds.features, labels, ds.num_classes + 1, ds.dims)


@pytest.mark.parametrize("run, policy", [(run_tram_fl, PolicySpec("dynamic")),
                                         (run_gossip, PolicySpec("gossip"))], ids=["tram", "gossip"])
@pytest.mark.parametrize("where, fragment", [("shards", "shards have 5 classes"),
                                             ("test", "test set has 5 classes")], ids=["shards", "test"])
@pytest.mark.parametrize("row", ["middle", "last"])
def test_a_class_past_the_output_width_fails_before_the_first_step(small_task, monkeypatch, run, policy,
                                                                     where, fragment, row):
    """The learner finds a label's logit by its flat offset, so label 4 of a
    4-wide output layer would read and write the next row's entries in a
    middle row, and fall off the buffer in the last one. Each trial rejects
    such data before training."""
    train, test = small_task
    steps = []
    monkeypatch.setattr(simulator, "loss_and_grad", lambda *args, **kwargs: steps.append(args))
    if where == "shards":
        train = _with_extra_class(train, len(train) // 4 if row == "middle" else -1)
    else:
        test = _with_extra_class(test, len(test) // 2 if row == "middle" else -1)
    shards = [make_shard(i, train, rows) for i, rows in enumerate(np.array_split(np.arange(len(train)), 2))]
    with pytest.raises(ValueError, match=f"{fragment}, but the output layer has 4"):
        run(shards, test, _cfg(policy=policy))
    assert steps == []


@pytest.mark.parametrize("policy", [PolicySpec("dynamic"), PolicySpec("random"),
                                    PolicySpec("static", (0, 1))], ids=lambda p: p.name())
def test_gossip_rejects_another_policy(small_task, policy):
    train, test = small_task
    with pytest.raises(ValueError, match="run_gossip runs gossip"):
        run_gossip(split_contiguous_labels(train, 2), test, _cfg(policy=policy))


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


@pytest.mark.parametrize("eta", [500.0, 1e308])
@pytest.mark.parametrize("kind", ["dynamic", "gossip"])
def test_diverging_trial_stops_at_first_non_finite_evaluation(small_task, kind, eta):
    """Such a trial used to train on NaN to its last iteration."""
    train, test = small_task
    cfg = _cfg(policy=PolicySpec(kind), learning_rate=eta, max_iterations=200, target_accuracy=0.99)
    run = run_gossip if kind == "gossip" else run_tram_fl
    with np.errstate(over="ignore", invalid="ignore"):
        result = run(split_contiguous_labels(train, 2), test, cfg)
    losses = [r.test_loss for r in result.records]
    assert result.status == "diverged"
    assert not np.isfinite(losses[-1]) and np.all(np.isfinite(losses[:-1]))
    assert result.records[-1].iteration < cfg.max_iterations
    assert result.transmissions_to_target is None


def test_non_finite_loss_at_target_accuracy_is_diverged(small_task, monkeypatch):
    monkeypatch.setattr(simulator, "evaluate", lambda params, ds, **kwargs: (1.0, float("inf")))
    train, test = small_task
    result = run_tram_fl(split_contiguous_labels(train, 2), test, _cfg(target_accuracy=0.5))
    assert result.status == "diverged" and result.transmissions_to_target is None
    assert len(result.records) == 1


@pytest.mark.parametrize("arch, policy, status", [
    ((8, 16, 10), "dynamic", "reached"),
    ((8, 16, 10), "random", "reached"),
    ((8, 16, 10), "static", "reached"),
    ((8, 16, 10), "gossip", "budget_exhausted"),
    ((8, 16, 16, 10), "dynamic", "reached"),
    ((8, 16, 16, 10), "gossip", "budget_exhausted"),
])
def test_golden_trials_reach_or_exhaust_their_budget(arch, policy, status):
    """The trials test_goldens pins end as reached or budget_exhausted, with
    every test loss finite."""
    train, test = generate_synthetic_split(10, 8, 60, 20, 4.0, 1)
    cfg = RunConfig(arch=ArchSpec(arch), learning_rate=0.05, batch_size=8, interval=2,
                    max_iterations=400, eval_every=5, target_accuracy=0.85, seed=3)
    if policy == "gossip":
        result = run_gossip(split_contiguous_labels(train, 5), test, replace(cfg, max_iterations=30))
    else:
        spec = PolicySpec("static", (0, 2, 1, 3, 4)) if policy == "static" else PolicySpec(policy)
        shards = split_random_k_labels(train, 5, 2, 5, np.random.default_rng(1))
        result = run_tram_fl(shards, test, replace(cfg, policy=spec))
    assert result.status == status
    assert np.all(np.isfinite([r.test_loss for r in result.records]))
