"""The names the benchmark in ``perfbench/`` wraps or constructs.

``perfbench/run.py`` replaces module attributes of ``tramfl`` with timing
wrappers and builds ``RunConfig``/``PartitionPlan`` objects directly, so a
refactor that renames or reshapes one of them breaks the benchmark. These
checks catch that here. They read ``run.py`` with ``ast`` instead of
importing it, because importing it sets thread variables and loads the
benchmark's own modules.
"""

import ast
import importlib
from dataclasses import fields, replace
from pathlib import Path

import tramfl.simulator
from tramfl import (
    ArchSpec,
    PartitionPlan,
    PolicySpec,
    RoutingState,
    RunConfig,
    expected_usage,
    generate_synthetic_split,
    run_gossip,
    run_tram_fl,
)
from tramfl.cli import make_shards, parse_config, run_experiment

ROOT = Path(__file__).parents[1]


def _wrapped():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no WRAPPED list")


def test_every_wrapped_name_exists():
    wrapped = _wrapped()
    assert wrapped
    for module, name, _layer in wrapped:
        assert callable(getattr(importlib.import_module(f"tramfl.{module}"), name, None)), (
            f"tramfl.{module}.{name} is gone"
        )


def test_runtime_types_build_as_the_benchmark_builds_them(tmp_path):
    cfg = RunConfig(arch=ArchSpec((8, 32, 10)), learning_rate=0.05, batch_size=16,
                    interval=1, max_iterations=400, eval_every=50,
                    policy=PolicySpec("dynamic"))
    assert cfg.policy.name() == "dynamic"
    train, test = generate_synthetic_split(10, 8, 20, 5, 4.0, 1)
    shards = make_shards(train, PartitionPlan("random_k", 4, k_min=1, k_max=3, seed=1))
    assert sum(s.total for s in shards) >= len(train)
    # the trial hook reads these off each result, the router hook off its state
    result = run_tram_fl(shards, test, replace(cfg, max_iterations=5))
    assert result.records[-1].iteration == 5 and result.ledger.counts.shape == (10,)
    assert {"cumulative", "holder"} <= {f.name for f in fields(RoutingState)}

    parsed = replace(parse_config(ROOT / "configs" / "quickstart.cfg"), policies=())
    assert run_experiment(parsed, tmp_path / "out") == 0


def _recording(monkeypatch, name, results=None):
    """Wrap ``tramfl.simulator.<name>`` as the benchmark's hooks do and
    return the list of argument tuples it was called with; each return
    value goes to ``results`` when given."""
    calls = []
    inner = getattr(tramfl.simulator, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        result = inner(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(tramfl.simulator, name, wrapper)
    return calls


def test_router_arguments_as_the_benchmark_reads_them(monkeypatch):
    """``route_stats`` in ``perfbench/run.py`` passes the router's third
    argument to ``expected_usage`` and reads the state's ledger and holder."""
    cfg = RunConfig(arch=ArchSpec((8, 16, 10)), learning_rate=0.05, batch_size=4,
                    interval=2, max_iterations=12, eval_every=6,
                    policy=PolicySpec("dynamic"))
    train, test = generate_synthetic_split(10, 8, 20, 5, 4.0, 1)
    shards = make_shards(train, PartitionPlan("random_k", 4, k_min=1, k_max=3, seed=1))
    hops = _recording(monkeypatch, "select_next_dynamic")
    run_tram_fl(shards, test, cfg)
    assert len(hops) == 6
    # route_stats caches usage by id(shards): one object per trial, in node order
    assert all(hop_shards is hops[0][1] for _, hop_shards, _ in hops)
    assert [s.node_id for s in hops[0][1]] == sorted(s.node_id for s in shards)
    for state, hop_shards, third in hops:
        assert state.cumulative.counts.shape == (10,)
        assert isinstance(state.holder, int)
        for shard in hop_shards:
            if shard.total > 0:
                assert expected_usage(shard, third).counts.shape == (10,)

    statics = _recording(monkeypatch, "next_static")
    run_tram_fl(shards, test, replace(cfg, policy=PolicySpec("static", (0, 1, 2, 3))))
    assert len(statics) == 6


def test_learner_arguments_as_the_benchmark_reads_them(monkeypatch):
    """``Counters`` in ``perfbench/run.py`` reads ``args[0].arch`` and
    ``len(args[1])`` of ``loss_and_grad`` (batch rows) and of ``evaluate``
    (test rows), and ``len(args[0])`` of ``average_params`` with the
    ``values.nbytes`` of its result; its step counts assume one
    ``loss_and_grad`` call per SGD step."""
    cfg = RunConfig(arch=ArchSpec((8, 16, 10)), learning_rate=0.05, batch_size=4,
                    interval=2, max_iterations=12, eval_every=3,
                    policy=PolicySpec("dynamic"))
    train, test = generate_synthetic_split(10, 8, 20, 5, 4.0, 1)
    shards = make_shards(train, PartitionPlan("random_k", 4, k_min=1, k_max=3, seed=1))
    gossip_cfg = replace(cfg, max_iterations=3, eval_every=1, policy=PolicySpec("gossip"))
    for run, run_cfg, steps in ((run_tram_fl, cfg, 12), (run_gossip, gossip_cfg, 3 * len(shards))):
        averages = []
        calls = {name: _recording(monkeypatch, name)
                 for name in ("loss_and_grad", "sgd_step", "evaluate")}
        calls["average_params"] = _recording(monkeypatch, "average_params", averages)
        run(shards, test, run_cfg)
        assert len(calls["loss_and_grad"]) == len(calls["sgd_step"]) == steps
        assert calls["evaluate"]
        for name in ("loss_and_grad", "sgd_step", "evaluate"):
            assert all(args[0].arch == cfg.arch for args in calls[name])
        assert all(len(args[1]) == cfg.batch_size for args in calls["loss_and_grad"])
        assert all(len(args[1]) == len(test) for args in calls["evaluate"])
        rounds = 3 if run is run_gossip else 0
        assert [len(args[0]) for args in calls["average_params"]] == [len(shards)] * rounds
        assert all(args[0].ndim == 2 for args in calls["average_params"])
        assert [avg.values.nbytes for avg in averages] == [8 * cfg.arch.num_params()] * rounds
