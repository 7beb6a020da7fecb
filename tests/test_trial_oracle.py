"""A plain-Python reference for the whole trial loop, compared bit for bit.

The reference below re-states the rules of ``run_tram_fl`` and
``run_gossip`` one step at a time: the order of the rng draws (initial
holder, then per iteration the batch and, under ``random``, the next node),
the ledger updated before the router runs, the evaluation schedule, the
target and divergence stops with the terminal evaluation (which records a
target hit but does not count it), and gossip copying the round average
back into every node. It shares only the library's
building blocks: ``draw_minibatch``, and ``loss_and_grad``, ``evaluate`` and
``average_params`` without a workspace. It steps out of place and routes
with ``test_routing.sequential_select``, a scan of ``dispersion`` in node
order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_routing import sequential_select

from tramfl import (
    ArchSpec,
    DatasetShard,
    LabelHistogram,
    ModelParams,
    PolicySpec,
    RoutingState,
    RunConfig,
    average_params,
    draw_minibatch,
    evaluate,
    generate_synthetic_split,
    init_he,
    loss_and_grad,
    params_digest,
    run_gossip,
    run_tram_fl,
)


def evaluation_points(sends, per_send, every):
    """The sends after which a trial evaluates: those that carry the total
    transmission count into a new multiple of ``every``."""
    return {k for k in range(1, sends + 1) if k * per_send // every > (k - 1) * per_send // every}


class Trace:
    """Records, stop flags and the terminal evaluation, kept as plain values."""

    def __init__(self, test_set, cfg):
        self.test_set, self.cfg = test_set, cfg
        self.records, self.reached, self.diverged = [], None, False

    def evaluate(self, iteration, transmissions, holder, values, terminal=False):
        """Append a record; True if the trial stops here."""
        accuracy, loss = evaluate(ModelParams(self.cfg.arch, values), self.test_set)
        self.records.append((iteration, transmissions, holder, float(accuracy), float(loss)))
        if not math.isfinite(loss):
            self.diverged = True
            return True
        if terminal or self.cfg.target_accuracy is None:
            return False
        if accuracy >= self.cfg.target_accuracy:
            self.reached = transmissions
            return True
        return False

    def finish(self, transmissions, holder, values, ledger):
        if not self.records or self.records[-1][1] != transmissions:
            self.evaluate(self.cfg.max_iterations, transmissions, holder, values, terminal=True)
        status = "diverged" if self.diverged else (
            "budget_exhausted" if self.reached is None else "reached")
        return self.records, self.reached, values, status, ledger


def reference_tram_fl(shards, test_set, cfg):
    shards = sorted(shards, key=lambda s: s.node_id)
    policy, volume = cfg.policy, cfg.batch_size * cfg.interval
    rng = np.random.default_rng(cfg.seed)
    values = init_he(cfg.arch, cfg.seed).values
    nonempty = [s.node_id for s in shards if s.total > 0]
    holder = nonempty[int(rng.integers(len(nonempty)))]
    ledger = np.zeros(len(shards[0].hist.counts))
    schedule = evaluation_points(cfg.max_iterations // cfg.interval, 1, cfg.eval_every)
    trace = Trace(test_set, cfg)
    transmissions = 0
    for iteration in range(1, cfg.max_iterations + 1):
        shard = shards[holder]
        idx, counts = draw_minibatch(shard, cfg.batch_size, rng)
        _, grad = loss_and_grad(ModelParams(cfg.arch, values),
                                shard.features[idx], shard.labels[idx])
        values = values - cfg.learning_rate * grad
        ledger = ledger + counts
        if iteration % cfg.interval != 0:
            continue
        if policy.kind == "dynamic":
            state = RoutingState(LabelHistogram(ledger), holder)
            holder = sequential_select(state, shards, volume)
        elif policy.kind == "static":
            holder = policy.route[(policy.route.index(holder) + 1) % len(policy.route)]
        else:
            pick = int(rng.integers(len(shards) - 1))
            holder = pick if pick < holder else pick + 1
        transmissions += 1
        if transmissions in schedule and trace.evaluate(iteration, transmissions, holder, values):
            break
    return trace.finish(transmissions, holder, values, ledger)


def reference_gossip(shards, test_set, cfg):
    shards = sorted(shards, key=lambda s: s.node_id)
    num_nodes = len(shards)
    per_round = num_nodes * (num_nodes - 1)
    if cfg.count_exchanges_once:
        per_round //= 2
    rng = np.random.default_rng(cfg.seed)
    models = [init_he(cfg.arch, cfg.seed).values for _ in shards]
    schedule = evaluation_points(cfg.max_iterations, per_round, cfg.eval_every)
    trace = Trace(test_set, cfg)
    transmissions = 0
    for round_num in range(1, cfg.max_iterations + 1):
        for i, shard in enumerate(shards):
            idx, _ = draw_minibatch(shard, cfg.batch_size, rng)
            _, grad = loss_and_grad(ModelParams(cfg.arch, models[i]),
                                    shard.features[idx], shard.labels[idx])
            models[i] = models[i] - cfg.learning_rate * grad
        averaged = average_params(np.stack(models), cfg.arch).values
        models = [averaged.copy() for _ in shards]
        transmissions += per_round
        if round_num in schedule and trace.evaluate(round_num, transmissions, -1, averaged):
            break
    return trace.finish(transmissions, -1, averaged, None)


def _bits(records):
    return [(i, t, h, a.hex(), loss.hex()) for i, t, h, a, loss in records]


@st.composite
def trials(draw):
    """A small task, its shards and a RunConfig covering every policy kind.

    Under ``dynamic`` one shard may be empty; the other kinds get a row on
    every node. Learning rates of 1e150 and more make some trials diverge.
    """
    kind = draw(st.sampled_from(["dynamic", "static", "random", "gossip"]))
    num_classes = draw(st.integers(min_value=2, max_value=4))
    dims = draw(st.integers(min_value=2, max_value=3))
    train, test = generate_synthetic_split(num_classes, dims, 6, 4, 3.0,
                                           draw(st.integers(min_value=0, max_value=99)))
    low = 1 if kind == "dynamic" else 2
    num_nodes = draw(st.integers(min_value=low, max_value=5))
    empty = draw(st.sampled_from([None, *range(num_nodes)])) if kind == "dynamic" else None
    if empty is not None and num_nodes == 1:
        empty = None
    owners = [v for v in range(num_nodes) if v != empty]
    rows = draw(st.permutations(range(len(train))))
    assigned = draw(st.lists(st.sampled_from(owners), min_size=len(rows), max_size=len(rows)))
    if kind != "dynamic":
        assigned[:num_nodes] = range(num_nodes)
    held = {v: [r for r, a in zip(rows, assigned) if a == v] for v in range(num_nodes)}
    shards = [DatasetShard(train.features[held[v]], train.labels[held[v]], num_classes, node_id=v)
              for v in draw(st.permutations(range(num_nodes)))]
    hidden = draw(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3))
    policy = (PolicySpec("static", draw(st.permutations(range(num_nodes))))
              if kind == "static" else PolicySpec(kind))
    target = draw(st.one_of(st.floats(min_value=0.8, max_value=1.0),
                            st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))
    # a traveling model needs one interval of budget to be sent at all
    interval = draw(st.integers(min_value=1, max_value=3))
    cfg = RunConfig(
        arch=ArchSpec((dims, *hidden, num_classes)),
        learning_rate=draw(st.sampled_from([0.05, 0.5, 5.0, 1e150, 1e300])),
        batch_size=draw(st.integers(min_value=1, max_value=8)),
        interval=interval,
        max_iterations=draw(st.integers(min_value=1 if kind == "gossip" else interval,
                                        max_value=60)),
        eval_every=draw(st.integers(min_value=1, max_value=5)),
        target_accuracy=None if draw(st.booleans()) else target,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        policy=policy,
        count_exchanges_once=draw(st.booleans()),
    )
    return shards, test, cfg


def _assert_matches_the_reference(shards, test, cfg):
    with np.errstate(all="ignore"):
        if cfg.policy.kind == "gossip":
            got = run_gossip(shards, test, cfg)
            records, reached, values, status, ledger = reference_gossip(shards, test, cfg)
        else:
            got = run_tram_fl(shards, test, cfg)
            records, reached, values, status, ledger = reference_tram_fl(shards, test, cfg)
    assert _bits([(r.iteration, r.transmissions, r.holder, r.test_accuracy, r.test_loss)
                  for r in got.records]) == _bits(records)
    assert got.transmissions_to_target == reached
    assert got.status == status
    assert got.final_params.values.tobytes() == values.tobytes()
    assert got.final_params_digest == params_digest(ModelParams(cfg.arch, values))
    if ledger is None:
        assert got.ledger is None
    else:
        assert got.ledger.counts.tobytes() == ledger.tobytes()
    return got


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trials())
def test_trial_loop_matches_the_reference(trial):
    _assert_matches_the_reference(*trial)


def test_terminal_target_hit_matches_the_reference():
    """4 sends with evaluation every 5: the terminal record clears the
    target, and the trial still ends without reaching it."""
    train, test = generate_synthetic_split(4, 4, 30, 15, 3.0, 1)
    halves = [train.labels // 2 == v for v in range(2)]
    shards = [DatasetShard(train.features[rows], train.labels[rows], train.num_classes, node_id=v)
              for v, rows in enumerate(halves)]
    cfg = RunConfig(arch=ArchSpec((4, 8, 4)), learning_rate=0.05, batch_size=4, interval=1,
                    max_iterations=4, eval_every=5, target_accuracy=0.05, seed=3,
                    policy=PolicySpec("dynamic"))
    got = _assert_matches_the_reference(shards, test, cfg)
    assert got.records[-1].test_accuracy >= cfg.target_accuracy
    assert got.status == "budget_exhausted"
