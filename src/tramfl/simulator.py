"""Run traveling-model training and the gossip baseline over partitioned
shards, counting model transmissions and recording the accuracy trace.

A traveling-model run owns exactly one live model: the holder trains it for
`interval` batches, the routing policy picks the next node, and the send
bumps the transmission counter by one. The gossip baseline keeps one model
per node and counts V*(V-1) directed sends per synchronous full-mesh
averaging round (halved when `count_exchanges_once` is set).
"""

from __future__ import annotations

import hashlib
import math
import operator
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import LabelHistogram, draw_minibatch
from .errors import StateError
from .learner import (
    ArchSpec,
    ModelParams,
    _Workspace,
    average_params,
    evaluate,
    init_he,
    loss_and_grad,
    sgd_step,
)
from .routing import (
    RouteTable,
    RoutingState,
    next_random,
    next_static,
    select_next_dynamic,
    update_ledger,
)

POLICY_KINDS = ("dynamic", "static", "random", "gossip")
TRIAL_STATUSES = ("reached", "budget_exhausted", "diverged")


@dataclass(frozen=True)
class PolicySpec:
    """Which routing policy to run; static carries its node permutation."""

    kind: str
    route: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if (self.kind == "static") != (self.route is not None):
            raise ValueError("static policies need a route; others must not carry one")
        if self.route is not None:
            object.__setattr__(self, "route", tuple(operator.index(i) for i in self.route))

    def name(self) -> str:
        if self.kind == "static":
            return "static_" + "-".join(str(i) for i in self.route)
        return self.kind


@dataclass(frozen=True)
class RunConfig:
    """Everything one trial needs besides the shards and test set.

    Each range rule is stated here once; its ``ValueError`` starts with the
    field it names, so the config reports it under that field's key."""

    arch: ArchSpec
    learning_rate: float
    batch_size: int
    interval: int
    max_iterations: int
    eval_every: int = 1
    target_accuracy: float | None = None
    seed: int = 0
    policy: PolicySpec | None = None
    count_exchanges_once: bool = False

    def __post_init__(self):
        for name in ("batch_size", "interval", "max_iterations", "eval_every", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate: must be > 0, got {self.learning_rate}")
        if self.learning_rate == math.inf:
            raise ValueError(f"learning_rate: must be finite, got {self.learning_rate}")
        for name in ("batch_size", "interval", "max_iterations", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.target_accuracy is not None and not 0 < self.target_accuracy <= 1:
            raise ValueError(f"target_accuracy: must be in (0, 1], got {self.target_accuracy}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        traveling = self.policy is not None and self.policy.kind != "gossip"
        if traveling and self.max_iterations < self.interval:
            raise ValueError(f"max_iterations: {self.max_iterations} is less than interval "
                             f"{self.interval}, so {self.policy.kind} would never send the model")


@dataclass(frozen=True)
class EvalRecord:
    """One test-set evaluation point along a run."""

    iteration: int
    transmissions: int
    holder: int
    test_accuracy: float
    test_loss: float


@dataclass(eq=False)
class TrialResult:
    """Evaluation trace plus where (if ever) the target accuracy was hit.

    ``status`` is one of TRIAL_STATUSES: the trial reached the target, used
    up its iterations, or stopped at its first evaluation whose test loss
    was not finite (its last record)."""

    records: list[EvalRecord]
    transmissions_to_target: int | None
    final_params_digest: str
    final_params: ModelParams = field(repr=False)
    status: str
    ledger: LabelHistogram | None = None


def params_digest(params: ModelParams) -> str:
    """SHA-256 over the architecture and the little-endian parameter bytes."""
    digest = hashlib.sha256()
    digest.update(np.asarray(params.arch.layer_sizes, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(params.values, dtype="<f8").tobytes())
    return digest.hexdigest()


class _EvalTrace:
    """The evaluation tail shared by the traveling-model and gossip loops.

    After each send the loop reports its counts; the trace evaluates the
    model whenever ``transmissions // eval_every`` enters a new bucket (for
    a traveling model, which sends one at a time, that is every
    ``eval_every``-th transmission) and reports whether the trial should
    stop: the target accuracy was reached, or the test loss is not finite,
    which marks the trial diverged. :meth:`result` adds the terminal
    evaluation and builds the :class:`TrialResult`. Evaluations run in the
    trace's own workspace, sized for the test set for the whole trial.
    """

    def __init__(self, test_set, cfg: RunConfig):
        self.test_set = test_set
        self.cfg = cfg
        self.workspace = _Workspace(cfg.arch, len(test_set))
        self.records: list[EvalRecord] = []
        self.reached: int | None = None
        self.diverged = False
        self.bucket = 0

    def after_send(self, iteration: int, transmissions: int, holder: int, params) -> bool:
        """Evaluate on a bucket change; True once the trial should stop."""
        bucket = transmissions // self.cfg.eval_every
        if bucket <= self.bucket:
            return False
        self.bucket = bucket
        accuracy = self._evaluate(iteration, transmissions, holder, params)
        target = self.cfg.target_accuracy
        if not self.diverged and target is not None and accuracy >= target:
            self.reached = transmissions
        return self.diverged or self.reached is not None

    def _evaluate(self, iteration, transmissions, holder, params) -> float:
        """Record one evaluation and return its accuracy; a loss that is not
        finite marks the trial diverged."""
        accuracy, loss = evaluate(params, self.test_set, workspace=self.workspace)
        # Plain floats, so a numpy scalar never reaches the CSV's repr().
        accuracy, loss = float(accuracy), float(loss)
        self.records.append(EvalRecord(iteration, transmissions, holder, accuracy, loss))
        if not math.isfinite(loss):
            self.diverged = True
        return accuracy

    def result(self, transmissions: int, holder: int, params, ledger=None) -> TrialResult:
        """Evaluate at termination unless the last send was already
        evaluated (as it is when the target or a non-finite loss stopped the
        run), then package the trial.

        The terminal evaluation is off the ``eval_every`` cadence, so a
        target hit there is recorded but not counted: where the budget ends
        must not decide ``transmissions_to_target``."""
        evaluated = self.records and self.records[-1].transmissions == transmissions
        if not evaluated:
            self._evaluate(self.cfg.max_iterations, transmissions, holder, params)
        if self.diverged:
            status = "diverged"
        else:
            status = "budget_exhausted" if self.reached is None else "reached"
        return TrialResult(self.records, self.reached, params_digest(params), params, status, ledger)


def _start_trial(shards, test_set, cfg: RunConfig, kind: str):
    """Check a trial's inputs and build what both loops start from: the
    shards in node-id order, ``np.random.default_rng(cfg.seed)``, the
    training workspace and the evaluation trace.

    Node ids must be 0..V-1. Every policy kind but dynamic visits each node,
    so under it an empty shard is a StateError. Shards or a test set with
    more classes than ``cfg.arch`` has outputs are a ValueError: the learner
    indexes each label's logit by its flat offset and, with a workspace,
    checks no labels, so a label past the width would read and write the
    next row's entries."""
    shards = sorted(shards, key=lambda s: s.node_id)
    if [s.node_id for s in shards] != list(range(len(shards))):
        raise ValueError("shards must carry node ids 0..V-1")
    if kind != "dynamic":
        for shard in shards:
            if shard.total == 0:
                raise StateError(f"shard {shard.node_id} is empty")
    width = cfg.arch.layer_sizes[-1]
    counts = (("shards have", max((len(s.hist.counts) for s in shards), default=0)),
              ("test set has", test_set.num_classes))
    for what, classes in counts:
        if classes > width:
            raise ValueError(f"{what} {classes} classes, but the output layer has {width}")
    return (shards, np.random.default_rng(cfg.seed), _Workspace(cfg.arch, cfg.batch_size),
            _EvalTrace(test_set, cfg))


def run_tram_fl(shards, test_set, cfg: RunConfig) -> TrialResult:
    """Train one traveling model over the shards under ``cfg.policy``.

    Deterministic in cfg.seed: the seed fixes the He initialization, the
    initial holder (uniform over nonempty shards), every minibatch draw, and
    any random routing choices. Evaluates after every `eval_every`-th
    transmission and at termination; stops early once `target_accuracy` is
    reached at one of the every-`eval_every` evaluations (a hit at the
    terminal one is not counted). The one model is trained in place, in a
    workspace built for the trial; the trace evaluates in its own. The
    checks of :func:`_start_trial` run before the first step; a trial with
    no nonempty shard, under any policy, is a StateError.
    """
    policy = cfg.policy
    if policy is None:
        raise ValueError("cfg.policy is not set")
    if policy.kind == "gossip":
        raise ValueError("gossip runs through run_gossip, not run_tram_fl")
    shards, rng, workspace, trace = _start_trial(shards, test_set, cfg, policy.kind)
    num_nodes = len(shards)
    starts = range(num_nodes)
    if policy.kind == "dynamic":
        shards = RouteTable(shards, cfg.batch_size * cfg.interval)
        starts = shards.node_ids
    elif not starts:
        raise StateError("no nonempty shard to route to")
    if policy.kind == "static" and sorted(policy.route) != list(range(num_nodes)):
        raise ValueError(f"route {policy.route} is not a permutation of 0..{num_nodes - 1}")

    params = init_he(cfg.arch, cfg.seed)
    holder = int(starts[rng.integers(len(starts))])
    state = RoutingState(LabelHistogram(np.zeros_like(shards[0].hist.counts)), holder=holder)
    transmissions = 0
    for iteration in range(1, cfg.max_iterations + 1):
        shard = shards[holder]
        idx, counts = draw_minibatch(shard, cfg.batch_size, rng)
        _, grad = loss_and_grad(params, shard.features.take(idx, axis=0), shard.labels[idx],
                                workspace=workspace, loss=False)
        sgd_step(params, grad, cfg.learning_rate)
        state = update_ledger(state, counts)
        if iteration % cfg.interval == 0:
            if policy.kind == "dynamic":
                holder = select_next_dynamic(state, shards, shards.volume)
            elif policy.kind == "static":
                holder = next_static(policy.route, holder)
            else:
                holder = next_random(num_nodes, holder, rng)
            state.holder = holder
            transmissions += 1
            if trace.after_send(iteration, transmissions, holder, params):
                break
    return trace.result(transmissions, holder, params, ledger=state.cumulative)


def run_gossip(shards, test_set, cfg: RunConfig) -> TrialResult:
    """Synchronous full-mesh gossip baseline.

    Every node keeps its own model, all initialized from the shared seed.
    The V models are the rows of one (V, P) matrix for the whole trial, and
    node i's ModelParams wraps row i. Per round each node takes one in-place
    SGD step on a local minibatch, then the unweighted average of the rows
    is written back into every row with one broadcast. The evaluated and
    returned model is that round average, a separate ModelParams; its
    holder is recorded as -1. The set-up, its checks included, is
    :func:`run_tram_fl`'s, and gossip needs at least 2 nodes.
    ``cfg.policy`` may be unset; set, it must be gossip.
    """
    if cfg.policy is not None and cfg.policy.kind != "gossip":
        raise ValueError(f"run_gossip runs gossip, not {cfg.policy.kind}")
    shards, rng, workspace, trace = _start_trial(shards, test_set, cfg, "gossip")
    num_nodes = len(shards)
    if num_nodes < 2:
        raise ValueError(f"gossip needs at least 2 nodes, got {num_nodes}")

    matrix = np.tile(init_he(cfg.arch, cfg.seed).values, (num_nodes, 1))
    models = [ModelParams(cfg.arch, row) for row in matrix]
    per_round = num_nodes * (num_nodes - 1)
    if cfg.count_exchanges_once:
        per_round //= 2
    transmissions = 0
    for round_num in range(1, cfg.max_iterations + 1):
        for i, shard in enumerate(shards):
            idx, _ = draw_minibatch(shard, cfg.batch_size, rng)
            _, grad = loss_and_grad(models[i], shard.features.take(idx, axis=0), shard.labels[idx],
                                    workspace=workspace, loss=False)
            sgd_step(models[i], grad, cfg.learning_rate)
        averaged = average_params(matrix, cfg.arch)
        matrix[...] = averaged.values
        transmissions += per_round
        if trace.after_send(round_num, transmissions, -1, averaged):
            break
    return trace.result(transmissions, -1, averaged)


@dataclass(eq=False)
class TrialsSummary:
    """Per-trial outcomes plus mean/std over the trials that reached target."""

    results: list[TrialResult]
    per_trial: list[int | None]
    mean: float | None
    std: float | None
    n_trials: int
    n_reached: int


def run_trials(shards, test_set, cfg: RunConfig, num_trials: int = 1) -> TrialsSummary:
    """Repeat a ``cfg.policy`` run with seeds cfg.seed, cfg.seed+1, ... and summarize.

    Mean and sample standard deviation cover only the trials that reached the
    target; a single reaching trial reports std 0.0 by convention. Trials
    that never reach the target appear as None in per_trial and are counted
    in n_trials - n_reached.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    if cfg.policy is None:
        raise ValueError("cfg.policy is not set")
    if cfg.target_accuracy is None:
        raise ValueError("run_trials needs cfg.target_accuracy")
    results = []
    for trial in range(num_trials):
        trial_cfg = replace(cfg, seed=cfg.seed + trial)
        if cfg.policy.kind == "gossip":
            results.append(run_gossip(shards, test_set, trial_cfg))
        else:
            results.append(run_tram_fl(shards, test_set, trial_cfg))
    per_trial = [r.transmissions_to_target for r in results]
    reached = [v for v in per_trial if v is not None]
    mean = statistics.fmean(reached) if reached else None
    if len(reached) >= 2:
        std = statistics.stdev(reached)
    elif len(reached) == 1:
        std = 0.0
    else:
        std = None
    return TrialsSummary(results, per_trial, mean, std, num_trials, len(reached))
