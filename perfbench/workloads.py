"""The three benchmark workloads, driven through the public ``tramfl`` API.

Each workload is a closed loop: one trial at a time in one process. The
dataset and partition of a workload are fixed, so every seed times the same
task; the workload seed picks the trial seeds (initialisation, minibatch
order, random routing). Work is cut into blocks of trials; a run repeats
blocks ``b = 0, 1, 2, ...`` until its time is up, and block ``b`` reuses the
trial seeds of block ``b % BLOCKS``, so every run only ever meets trials that
the pinned goldens cover.

Every trial goes through :class:`TrialLog`, a hook on the names
``tramfl.simulator.run_tram_fl`` and ``run_gossip`` (``run_trials`` looks
them up at call time), which times the trial and keeps its params digest and
transmissions-to-target.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace

import numpy as np

from tramfl import cli, datasets, partition, simulator
from tramfl.learner import ArchSpec
from tramfl.partition import PartitionPlan
from tramfl.simulator import PolicySpec, RunConfig

BLOCKS = 8  # distinct trial-seed blocks per workload seed


@dataclass
class Run:
    """One simulator call: a traveling-model trial or a gossip run."""

    key: str
    block: int
    policy: str
    seconds: float
    iterations: int
    steps: int
    digest: str  # leading hex digits of the final params digest
    tx: int | None  # transmissions_to_target
    transmissions: int
    evaluations: int
    final_accuracy: float
    ledger: np.ndarray | None

    @property
    def check(self) -> str:
        """What the goldens pin for this run."""
        return f"{self.digest}:{self.tx}"


class TrialLog:
    """Hook that times every simulator call and keeps what the checks need."""

    def __init__(self):
        self.runs: list[Run] = []
        self.block = 0  # set by the caller before each block
        self.context = ""
        self._restore = []

    def install(self) -> None:
        for attr in ("run_tram_fl", "run_gossip"):
            fn = getattr(simulator, attr)
            self._restore.append((attr, fn))
            setattr(simulator, attr, self._hook(fn, attr == "run_gossip"))

    def uninstall(self) -> None:
        for attr, fn in self._restore:
            setattr(simulator, attr, fn)
        self._restore.clear()

    def _hook(self, fn, gossip: bool):
        def timed(shards, test_set, cfg, *args, **kwargs):
            start = time.perf_counter()
            result = fn(shards, test_set, cfg, *args, **kwargs)
            seconds = time.perf_counter() - start
            policy = "gossip" if gossip else cfg.policy.name()
            last = result.records[-1]
            self.runs.append(Run(
                key=f"{self.context}/{policy}/s{cfg.seed}",
                block=self.block,
                policy=policy,
                seconds=seconds,
                iterations=last.iteration,
                steps=last.iteration * (len(shards) if gossip else 1),
                digest=result.final_params_digest[:16],
                tx=result.transmissions_to_target,
                transmissions=last.transmissions,
                evaluations=len(result.records),
                final_accuracy=last.test_accuracy,
                ledger=None if result.ledger is None else result.ledger.counts,
            ))
            return result

        return timed


def _cv(counts: np.ndarray) -> float:
    return float(np.std(counts) / np.mean(counts))


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


class Sweep:
    """The route-sweep experiment, run as ``tramfl run <config>``."""

    name = "sweep"
    in_process_setup = False  # each `tramfl run` builds its own data
    partition_seeds = (1, 2)
    trials = 1  # per policy and call; a run's blocks give each policy several
    config = """\
[dataset]
kind = synthetic
classes = 10
dims = 8
per_class = 200
test_per_class = 50
separation = 4.0
seed = 1

[partition]
scheme = random_k
nodes = 5
k_min = 2
k_max = 5
seed = {pseed}

[learner]
layers = 8,32,10
eta = 0.05
batch = 16

[run]
iterations = 4000
interval = 1
eval_every = 1
target_accuracy = 0.9
trials = {trials}
seed = {seed}

[policies]
dynamic = dynamic
random = random
static = static:all
"""

    @staticmethod
    def _config_path(work_dir, block, pseed):
        return os.path.join(work_dir, f"sweep-b{block}-p{pseed}.cfg")

    def prepare(self, work_dir, seed) -> None:
        for block in range(BLOCKS):
            for pseed in self.partition_seeds:
                text = self.config.format(pseed=pseed, trials=self.trials,
                                          seed=1000 * seed + 10 * block)
                with open(self._config_path(work_dir, block, pseed), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def setup(self, work_dir):
        """``tramfl run``'s own set-up: each block-0 config run with no policies.

        ``run_experiment`` then builds the data, the partition plan and the
        shards, trains nothing and writes an empty summary.
        """
        out_dir = os.path.join(work_dir, "setup-out")
        for pseed in self.partition_seeds:
            cfg = cli.parse_config(self._config_path(work_dir, 0, pseed))
            with redirect_stdout(io.StringIO()):
                cli.run_experiment(replace(cfg, policies=()), out_dir)
        shutil.rmtree(out_dir)

    def block(self, inputs, work_dir, seed, log, checks) -> list[float]:
        del inputs, seed  # the CLI builds its own inputs; the configs carry the seeds
        first = len(log.runs)
        for pseed in self.partition_seeds:
            context = f"b{log.block}/p{pseed}"
            out_dir = os.path.join(work_dir, f"out-{context.replace('/', '-')}")
            log.context = context
            try:
                with redirect_stdout(io.StringIO()):
                    code = cli.main(["run", self._config_path(work_dir, log.block, pseed),
                                     "--out", out_dir])
            except Exception as exc:  # a crashing trial fails this call, the run goes on
                checks.fail(context, f"raised {exc!r}")
                continue
            if code != 0:
                checks.fail(context, f"tramfl run exited {code}")
                continue
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    data = fh.read()
                checks.output_bytes += len(data)
                checks.compare(f"{context}/{fname}", hashlib.sha256(data).hexdigest()[:16])
            shutil.rmtree(out_dir)
        return [run.seconds for run in log.runs[first:]]

    def quality(self, runs: list[Run]) -> dict:
        by_policy: dict[str, list[Run]] = {}
        for run in runs:
            by_policy.setdefault(run.policy, []).append(run)
        dynamic = by_policy.get("dynamic", [])
        static_means = [_mean_or_none(r.tx for r in rs)
                        for name, rs in by_policy.items() if name.startswith("static_")]
        static_means = [m for m in static_means if m is not None]
        tx = _mean_or_none(r.tx for r in dynamic)
        static_median = statistics.median(static_means) if static_means else None
        return {
            "tx_to_target": tx,
            "tx_to_target.ratio": tx / static_median if tx and static_median else None,
            "ledger_cv": _mean_or_none(_cv(r.ledger) for r in dynamic),
            "dynamic_reached": f"{sum(r.tx is not None for r in dynamic)}/{len(dynamic)}",
        }


class RouteMany:
    """Dynamic routing over 32 nodes: the router scores 32 candidates per hop."""

    name = "route_many"
    in_process_setup = True
    trials_per_block = 4
    base = RunConfig(arch=ArchSpec((8, 32, 10)), learning_rate=0.05, batch_size=16,
                     interval=1, max_iterations=400, eval_every=50,
                     policy=PolicySpec("dynamic"))

    def prepare(self, work_dir, seed) -> None:
        pass

    def setup(self, work_dir):
        train, test = datasets.generate_synthetic_split(10, 8, 200, 50, 4.0, 1)
        plan = PartitionPlan("random_k", 32, k_min=1, k_max=3, seed=1)
        return partition.make_shards(train, plan), test

    def block(self, inputs, work_dir, seed, log, checks) -> list[float]:
        shards, test = inputs
        log.context = f"b{log.block}"
        latencies = []
        for i in range(self.trials_per_block):
            cfg = replace(self.base, seed=1000 * seed + 100 * log.block + i)
            start = time.perf_counter()
            try:
                simulator.run_tram_fl(shards, test, cfg)
            except Exception as exc:
                checks.fail(f"{log.context}/s{cfg.seed}", f"raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
        return latencies

    def quality(self, runs: list[Run]) -> dict:
        return {
            "final_accuracy": _mean_or_none(r.final_accuracy for r in runs),
            "ledger_cv": _mean_or_none(_cv(r.ledger) for r in runs),
        }


class GossipWide:
    """Gossip against a fixed ring on a wider net, where BLAS does the work."""

    name = "gossip_wide"
    in_process_setup = True
    pairs_per_block = 4
    base = RunConfig(arch=ArchSpec((32, 128, 128, 10)), learning_rate=0.05, batch_size=32,
                     interval=1, max_iterations=4000, eval_every=1, target_accuracy=0.9)
    gossip_rounds = 400
    ring = PolicySpec("static", (0, 1, 2, 3, 4))

    def prepare(self, work_dir, seed) -> None:
        pass

    def setup(self, work_dir):
        train, test = datasets.generate_synthetic_split(10, 32, 200, 50, 4.0, 1)
        return partition.make_shards(train, PartitionPlan("contiguous", 5)), test

    def block(self, inputs, work_dir, seed, log, checks) -> list[float]:
        """A trial is one seed's comparison: a gossip run, then a ring run."""
        shards, test = inputs
        log.context = f"b{log.block}"
        latencies = []
        for i in range(self.pairs_per_block):
            trial_seed = 1000 * seed + 100 * log.block + i
            gossip_cfg = replace(self.base, seed=trial_seed, max_iterations=self.gossip_rounds,
                                 policy=PolicySpec("gossip"))
            ring_cfg = replace(self.base, seed=trial_seed, policy=self.ring)
            start = time.perf_counter()
            try:
                simulator.run_gossip(shards, test, gossip_cfg)
                simulator.run_tram_fl(shards, test, ring_cfg)
            except Exception as exc:
                checks.fail(f"{log.context}/s{trial_seed}", f"raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
        return latencies

    def quality(self, runs: list[Run]) -> dict:
        gossip = _mean_or_none(r.tx for r in runs if r.policy == "gossip")
        ring = _mean_or_none(r.tx for r in runs if r.policy != "gossip")
        return {
            "tx_to_target": gossip,
            "tx_to_target.ratio": ring / gossip if ring and gossip else None,
            "ring_tx_to_target": ring,
        }


WORKLOADS = {w.name: w for w in (Sweep(), RouteMany(), GossipWide())}
