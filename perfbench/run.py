#!/usr/bin/env python3
"""tramfl benchmark: time one workload, and with ``--trace 1`` also trace it.

    python3 perfbench/run.py --workload sweep --trace 0 [--seed 1] [--seconds 30]

``--trace 0`` times the workload with tracing off for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` is the one command for both
passes: it spends half of ``--seconds`` on the same untraced pass, then half
on a pass with every layer wrapped, prints the end-to-end figures, the layer
split and the tracing overhead, and reports the per-layer metrics. Every run
checks each trial's params digest and transmissions-to-target (and, on
``sweep``, the sha256 of every output file): against ``goldens.json`` for
the default seed, and for any other seed, each repeat of a trial within the
run (the traced pass and repeated blocks) against its first run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit codes: 0 all checks pass, 1 a
check failed, 2 the checkout holds no tramfl sources, 3 a traced layer is
missing. ``--pin`` re-records the goldens of one workload at the default seed;
do that only in a reviewed change that means to alter trajectories.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from tracer import Tracer

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # must precede the first numpy import

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDENS = os.path.join(HERE, "goldens.json")
DEFAULT_SEED = 1
SETUP_PROBES = 11
QUALITY_BLOCKS = 4  # outcome metrics cover these blocks, which every run reaches

# (module, name, layer): the names tramfl.simulator and tramfl.cli look up at
# call time, plus the benchmark's own set-up calls into datasets and partition.
WRAPPED = [
    ("simulator", "draw_minibatch", "datasets.draw_minibatch"),
    ("simulator", "loss_and_grad", "learner.loss_and_grad"),
    ("simulator", "sgd_step", "learner.sgd_step"),
    ("simulator", "evaluate", "learner.evaluate"),
    ("simulator", "average_params", "learner.average_params"),
    ("simulator", "select_next_dynamic", "routing.select_next_dynamic"),
    ("simulator", "update_ledger", "routing.update_ledger"),
    ("simulator", "next_random", "routing.next_random"),
    ("simulator", "next_static", "routing.next_static"),
    ("simulator", "params_digest", "simulator.params_digest"),
    ("simulator", "run_tram_fl", "simulator.run_tram_fl"),
    ("simulator", "run_gossip", "simulator.run_gossip"),
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "generate_synthetic_split", "datasets.generate_synthetic_split"),
    ("cli", "make_shards", "partition.make_shards"),
    ("cli", "run_trials", "simulator.run_trials"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("datasets", "generate_synthetic_split", "datasets.generate_synthetic_split"),
    ("partition", "make_shards", "partition.make_shards"),
]
TRIAL_LAYERS = {"simulator.run_tram_fl", "simulator.run_gossip"}
SIMULATOR_LAYERS = TRIAL_LAYERS | {"simulator.run_trials"}

# Layers each workload must call; zero calls there means the name moved.
_COMMON = {
    "datasets.draw_minibatch", "learner.loss_and_grad", "learner.sgd_step", "learner.evaluate",
    "routing.update_ledger", "simulator.params_digest", "simulator.run_tram_fl",
    "datasets.generate_synthetic_split", "partition.make_shards",
}
EXPECTED = {
    "sweep": _COMMON | {"routing.select_next_dynamic", "routing.next_random",
                        "routing.next_static", "config.parse_config", "simulator.run_trials",
                        "cli.run_experiment"},
    "route_many": _COMMON | {"routing.select_next_dynamic"},
    "gossip_wide": _COMMON | {"learner.average_params", "routing.next_static",
                              "simulator.run_gossip"},
}

END_TO_END = {"setup_s": "s", "steps_per_ref": "1/ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    "datasets.draw_minibatch.calls": "count",
    "datasets.draw_minibatch.us_per_call": "us",
    "datasets.draw_minibatch.busy_s": "s",
    "datasets.generate_synthetic_split.s": "s",
    "partition.make_shards.s": "s",
    "partition.samples_held": "count",
    "config.parse_config.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.output_bytes": "bytes",
    "learner.loss_and_grad.calls": "count",
    "learner.loss_and_grad.us_per_call": "us",
    "learner.loss_and_grad.busy_s": "s",
    "learner.loss_and_grad.mflop": "Mflop-computed",
    "learner.loss_and_grad.gflops": "Gflop/s-computed",
    "learner.sgd_step.calls": "count",
    "learner.sgd_step.us_per_call": "us",
    "learner.sgd_step.busy_s": "s",
    "learner.evaluate.calls": "count",
    "learner.evaluate.us_per_call": "us",
    "learner.evaluate.busy_s": "s",
    "learner.evaluate.samples": "count",
    "learner.average_params.calls": "count",
    "learner.average_params.us_per_call": "us",
    "learner.average_params.busy_s": "s",
    "learner.average_params.mbytes": "MB-computed",
    "routing.select_next_dynamic.calls": "count",
    "routing.select_next_dynamic.us_per_call": "us",
    "routing.select_next_dynamic.busy_s": "s",
    "routing.candidates_scored": "count",
    "routing.us_per_candidate": "us",
    "routing.tie_frac": "fraction",
    "routing.reselect_frac": "fraction",
    "routing.update_ledger.calls": "count",
    "routing.update_ledger.us_per_call": "us",
    "routing.next_random.calls": "count",
    "routing.next_random.us_per_call": "us",
    "routing.next_static.calls": "count",
    "routing.next_static.us_per_call": "us",
    "simulator.self_s": "s",
    "simulator.trials": "count",
    "simulator.transmissions": "count",
    "simulator.evaluations": "count",
    "simulator.gossip_round_us": "us",
    "simulator.params_digest.us_per_call": "us",
    "trace.steps_per_ref": "1/ref",
}


@dataclass
class Block:
    wall_s: float
    cpu_s: float
    steps: int
    latencies: list[float]
    ref_s: float  # the reference kernel's time around this block


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.standard_normal(shape) for shape in ((16, 8), (8, 32), (32, 128), (128, 128))]


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter work and small and mid-sized numpy
    products, the best of three; it runs no tramfl code.

    On a shared 2-vCPU VM the speed of the host drifts by up to a third over
    minutes, in wall and CPU time alike. Steps per wall second times this
    time cancels most of that drift, while a change to tramfl moves the
    product as much as it moves the rate.
    """
    import numpy as np

    a, b, c, d = _reference_inputs()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(20000):
            total += k
        for _ in range(150):
            np.maximum(a @ b, 0.0).sum()
            (c @ d).sum()
        best = min(best, time.perf_counter() - start)
    return best


class Checks:
    """Compares each check value with the pinned or previously seen one."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.seen: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.output_bytes = 0

    def compare(self, key: str, value: str) -> None:
        self.attempted += 1
        want = self.expected.get(key, self.seen.get(key))
        if want is not None and want != value:
            self.failures.append(f"{key}: got {value}, expected {want}")
        self.seen.setdefault(key, value)

    def fail(self, key: str, why: str) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {why}")


class Counters:
    """Work counted at the traced boundaries, outside the spans."""

    def __init__(self):
        self.rows = collections.Counter()  # loss_and_grad batch rows per architecture
        self.eval_samples = 0
        self.avg_bytes = 0
        self.held: list[int] = []
        self.hops: list[tuple] = []

    def loss_and_grad(self, args, result):
        self.rows[args[0].arch] += len(args[1])

    def evaluate(self, args, result):
        self.eval_samples += len(args[1])

    def average_params(self, args, result):
        self.avg_bytes += (len(args[0]) + 1) * result.values.nbytes

    def make_shards(self, args, result):
        self.held.append(sum(s.total for s in result))

    def select_next_dynamic(self, args, result):
        state, shards, cfg = args
        self.hops.append((state.cumulative.counts, state.holder, result, shards, cfg))


def flop_per_row(arch) -> int:
    """Multiply-add flops of one sample through loss_and_grad: forward, weight
    gradients, and back-propagation into every layer but the first."""
    pairs = arch.layer_pairs()
    macs = sum(fan_in * fan_out for fan_in, fan_out in pairs)
    return 2 * (3 * macs - pairs[0][0] * pairs[0][1])


def route_stats(hops) -> tuple[int, int, int]:
    """(candidates scored, hops with a tied minimum, hops keeping the holder).

    Scores are screened with numpy, then near-minimal candidates are decided
    with the router's own exact ``dispersion``.
    """
    import numpy as np
    from tramfl.datasets import LabelHistogram
    from tramfl.routing import dispersion, expected_usage

    usage = {}
    candidates = ties = reselects = 0
    for ledger, holder, chosen, shards, cfg in hops:
        if id(shards) not in usage:
            nodes = [s for s in sorted(shards, key=lambda s: s.node_id) if s.total > 0]
            usage[id(shards)] = np.stack([expected_usage(s, cfg).counts for s in nodes])
        scores = ledger + usage[id(shards)]
        approx = scores.var(axis=1)
        near = np.flatnonzero(approx <= approx.min() * (1 + 1e-9) + 1e-12)
        if len(near) > 1:
            exact = [dispersion(LabelHistogram(scores[i])) for i in near]
            ties += exact.count(min(exact)) > 1
        candidates += len(scores)
        reselects += chosen == holder
    return candidates, ties, reselects


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREAD_VARS,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def timed_pass(workload, seed, seconds, work_dir, checks, tracer=None, counters=None,
               min_blocks=1):
    """Run whole blocks until ``seconds`` have passed; returns (blocks, runs)."""
    import workloads
    from tramfl import cli, datasets, partition, simulator

    modules = {"simulator": simulator, "cli": cli, "datasets": datasets, "partition": partition}
    log = workloads.TrialLog()
    log.install()
    if tracer is not None:
        for module, name, layer in WRAPPED:
            tracer.wrap(modules[module], name, layer, note=getattr(counters, name, None),
                        starts_trial=layer in TRIAL_LAYERS)
    try:
        inputs = workload.setup(work_dir) if workload.in_process_setup else None
        blocks = []
        ref = reference_seconds()
        start = time.perf_counter()
        while len(blocks) < min_blocks or time.perf_counter() - start < seconds:
            first = len(log.runs)
            log.block = len(blocks) % workloads.BLOCKS
            wall, cpu = time.perf_counter(), time.process_time()
            latencies = workload.block(inputs, work_dir, seed, log, checks)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            ref_before, ref = ref, reference_seconds()
            blocks.append(Block(wall, cpu, sum(r.steps for r in log.runs[first:]), latencies,
                                (ref_before + ref) / 2))
    finally:
        if tracer is not None:
            tracer.unwrap()
        log.uninstall()
    for run in log.runs:
        checks.compare(run.key, run.check)
    return blocks, log.runs


def setup_probe(workload, work_dir) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload.name, work_dir],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worked_blocks(blocks):
    """Blocks that did steps; a block whose trials all failed does none."""
    return [b for b in blocks if b.steps] or blocks[:1]


def steps_per_ref(blocks) -> float:
    """Median over blocks of the steps done in one reference-kernel time."""
    return statistics.median(b.steps / b.wall_s * b.ref_s for b in worked_blocks(blocks))


def end_to_end(blocks, setup_times, rss_mb):
    """The gated metrics, and report lines with their samples and spread.

    Throughput is gated as steps per reference-kernel time, a median over
    blocks, so neither one stalled block nor the host's drift in speed moves
    it much. Steps per wall second and CPU per step are printed as measured.
    Trial latency is reported but not gated: how many steps a trial takes
    depends on its seed, so its median moves from seed to seed.
    """
    worked = worked_blocks(blocks)
    per_ref = [b.steps / b.wall_s * b.ref_s for b in worked]
    rates = [b.steps / b.wall_s for b in worked]
    cpus = [1e6 * b.cpu_s / b.steps for b in worked if b.steps] or [0.0]
    refs = [1e3 * b.ref_s for b in worked]
    latencies = [1e3 * x for b in blocks for x in b.latencies] or [0.0]
    wall = sum(b.wall_s for b in blocks)
    steps = sum(b.steps for b in blocks)
    values = {
        "setup_s": statistics.median(setup_times),
        "steps_per_ref": statistics.median(per_ref),
        "peak_rss_mb": rss_mb,
    }
    lines = {
        "setup_s": "median of {} fresh processes, q1 {:.4f} q3 {:.4f}".format(
            len(setup_times), *quartiles(setup_times)),
        "steps_per_ref": "median of {} blocks, q1 {:.3f} q3 {:.3f}".format(
            len(per_ref), *quartiles(per_ref)),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    report = [
        "steps_per_s {:.1f} 1/s, median of {} blocks, q1 {:.1f} q3 {:.1f}; {} steps in {:.2f} s"
        .format(statistics.median(rates), len(rates), *quartiles(rates), steps, wall),
        "cpu_us_per_step {:.2f} us, median of {} blocks, q1 {:.2f} q3 {:.2f}".format(
            statistics.median(cpus), len(cpus), *quartiles(cpus)),
        "reference kernel {:.3f} ms, median of {} blocks, q1 {:.3f} q3 {:.3f}".format(
            statistics.median(refs), len(refs), *quartiles(refs)),
    ]
    trial = "trial_ms.p50 {:.2f} ms over {} trials, q1 {:.2f} q3 {:.2f}".format(
        statistics.median(latencies), len(latencies), *quartiles(latencies))
    if len(latencies) >= 10:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        beyond = sum(x > p90 for x in latencies)
        trial += (f"; p90 {p90:.2f} ms ({beyond} beyond)" if beyond >= 10
                  else f"; no p90, only {beyond} trials beyond it")
    return values, lines, report + [trial]


def per_layer(tracer, counters, blocks, runs, output_bytes):
    stats = tracer.layer_stats()

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def us_per_call(layer):
        calls = get(layer, "calls")
        return 1e6 * get(layer, "busy_s") / calls if calls else 0.0

    m = {}
    for layer in ("datasets.draw_minibatch", "learner.loss_and_grad", "learner.sgd_step",
                  "learner.evaluate", "learner.average_params", "routing.select_next_dynamic"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.us_per_call"] = us_per_call(layer)
        m[f"{layer}.busy_s"] = get(layer, "busy_s")
    for layer in ("routing.update_ledger", "routing.next_random", "routing.next_static"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.us_per_call"] = us_per_call(layer)
    m["datasets.generate_synthetic_split.s"] = get("datasets.generate_synthetic_split", "busy_s")
    m["partition.make_shards.s"] = get("partition.make_shards", "busy_s")
    m["partition.samples_held"] = statistics.fmean(counters.held) if counters.held else 0
    m["config.parse_config.s"] = get("config.parse_config", "busy_s")
    m["cli.run_experiment.self_s"] = get("cli.run_experiment", "self_s")
    m["cli.output_bytes"] = output_bytes
    mflop = sum(rows * flop_per_row(arch) for arch, rows in counters.rows.items()) / 1e6
    m["learner.loss_and_grad.mflop"] = mflop
    busy = get("learner.loss_and_grad", "busy_s")
    m["learner.loss_and_grad.gflops"] = mflop / 1e3 / busy if busy else 0.0
    m["learner.evaluate.samples"] = counters.eval_samples
    m["learner.average_params.mbytes"] = counters.avg_bytes / 1e6
    candidates, ties, reselects = route_stats(counters.hops)
    hops = len(counters.hops)
    m["routing.candidates_scored"] = candidates
    m["routing.us_per_candidate"] = (
        1e6 * get("routing.select_next_dynamic", "busy_s") / candidates if candidates else 0.0)
    m["routing.tie_frac"] = ties / hops if hops else 0.0
    m["routing.reselect_frac"] = reselects / hops if hops else 0.0
    m["simulator.self_s"] = sum(get(layer, "self_s") for layer in SIMULATOR_LAYERS)
    m["simulator.trials"] = len(runs)
    m["simulator.transmissions"] = sum(r.transmissions for r in runs)
    m["simulator.evaluations"] = sum(r.evaluations for r in runs)
    rounds = sum(r.iterations for r in runs if r.policy == "gossip")
    m["simulator.gossip_round_us"] = (
        1e6 * get("simulator.run_gossip", "busy_s") / rounds if rounds else 0.0)
    m["simulator.params_digest.us_per_call"] = us_per_call("simulator.params_digest")
    m["trace.steps_per_ref"] = steps_per_ref(blocks)
    return m, stats


def print_layers(workload, stats, missing, wall):
    print(f"  layer self time over {wall:.2f} s traced:")
    ranked = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    for layer, s in ranked:
        print(f"    {layer:<36} {s['self_s']:9.3f} s self {100 * s['self_s'] / wall:5.1f}%"
              f"  {int(s['calls']):>8} calls")
    for layer in sorted(missing):
        print(f"    {layer:<36} missing")
    idle = {layer for _, _, layer in WRAPPED} - set(stats) - missing
    if idle:
        print(f"    not called on this workload (their metrics read 0): {', '.join(sorted(idle))}")
    shares = {layer: s["self_s"] / wall for layer, s in stats.items()}
    top = ranked[0][0] if ranked else None
    router = shares.get("routing.select_next_dynamic", 0.0)
    predictions = {
        "sweep": [("learner.evaluate is the largest self-time layer", top == "learner.evaluate"),
                  ("routing.select_next_dynamic under 5%", router < 0.05),
                  ("learner.average_params not called", "learner.average_params" not in stats)],
        "route_many": [("routing.select_next_dynamic is the largest self-time layer",
                        top == "routing.select_next_dynamic"),
                       ("learner.average_params not called", "learner.average_params" not in stats)],
        "gossip_wide": [("routing.select_next_dynamic not called",
                         "routing.select_next_dynamic" not in stats),
                        ("learner.average_params called", "learner.average_params" in stats)],
    }[workload.name]
    for text, holds in predictions:
        print(f"  prediction: {text}: {'holds' if holds else 'DIFFERS'}")


def pinned_on() -> dict:
    """The facts float results depend on: CPU model, numpy and BLAS."""
    facts = machine_facts()
    model = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "?")
    except OSError:
        pass
    return {"cpu": model, "numpy": facts["numpy"], "blas": facts["blas"]}


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def write_json(path, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "route_many", "gossip_wide"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"),
                        help="1 adds a traced pass after the untraced one")
    parser.add_argument("--pin", action="store_true",
                        help="re-record this workload's goldens at the default seed")
    args = parser.parse_args(argv)
    if args.trace is None and not args.pin:
        parser.error("--trace is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tramfl", "__init__.py")):
        print(f"perfbench: no tramfl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts()
    print("machine:", json.dumps(facts, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT)
    try:
        if args.pin:
            return pin(workload, work_dir)
        return measure(args, workload, work_dir, facts)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def pin(workload, work_dir) -> int:
    import workloads

    workload.prepare(work_dir, DEFAULT_SEED)
    checks = Checks({})
    timed_pass(workload, DEFAULT_SEED, 0, work_dir, checks, min_blocks=workloads.BLOCKS)
    if checks.failures:
        print("\n".join(checks.failures), file=sys.stderr)
        return 1
    goldens = load_json(GOLDENS)
    goldens["seed"] = DEFAULT_SEED
    goldens["pinned_on"] = pinned_on()
    goldens.setdefault("workloads", {})[workload.name] = checks.seen
    write_json(GOLDENS, goldens)
    print(f"pinned {len(checks.seen)} checks for {workload.name}")
    return 0


def measure(args, workload, work_dir, facts) -> int:
    expected = {}  # any other seed: repeats within this run are checked against each other
    if args.seed == DEFAULT_SEED:
        goldens = load_json(GOLDENS)
        expected = goldens.get("workloads", {}).get(workload.name, {})
        if not expected:
            print(f"warning: no goldens pinned for {workload.name}", file=sys.stderr)
        if goldens.get("pinned_on", {}) != pinned_on():
            print(f"warning: goldens were pinned on {goldens.get('pinned_on')}; float results "
                  "may differ on another CPU or BLAS", file=sys.stderr)
    checks = Checks(expected)
    workload.prepare(work_dir, args.seed)
    traced = args.trace == "1"
    seconds = args.seconds / 2 if traced else args.seconds
    print(f"workload {workload.name} seed {args.seed}")

    setup_times = [setup_probe(workload, work_dir) for _ in range(SETUP_PROBES)]
    blocks, runs = timed_pass(workload, args.seed, seconds, work_dir, checks)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values, lines, report = end_to_end(blocks, setup_times, rss_mb)
    print(f"untraced: {len(blocks)} blocks, {len(runs)} simulator runs")
    for name, value in values.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name]:<5} ({lines[name]})")
    for line in report:
        print(f"  {line}")
    first = {}
    for r in runs:
        if r.block < QUALITY_BLOCKS:
            first.setdefault(r.key, r)
    print(f"  outcomes of the {len(first)} distinct runs in blocks 0-{QUALITY_BLOCKS - 1}"
          " (repeat exactly per seed; not timed):")
    for name, value in workload.quality(list(first.values())).items():
        print(f"    {name:<20} {value:.4f}" if isinstance(value, float) else
              f"    {name:<20} {value}")
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}

    missing = set()
    if traced:
        untraced_rate = values["steps_per_ref"]
        tracer, counters = Tracer(), Counters()
        bytes_before = checks.output_bytes
        blocks, runs = timed_pass(workload, args.seed, seconds, work_dir, checks,
                                  tracer=tracer, counters=counters)
        values, stats = per_layer(tracer, counters, blocks, runs,
                                  checks.output_bytes - bytes_before)
        wall = sum(b.wall_s for b in blocks)
        missing = set(tracer.absent) | {l for l in EXPECTED[workload.name] if l not in stats}
        print(f"traced: {len(blocks)} blocks, {len(runs)} simulator runs, {len(tracer.spans)} spans")
        print_layers(workload, stats, missing, wall)
        print(f"  tracing overhead: traced steps_per_ref {values['trace.steps_per_ref']:.3f} "
              f"vs untraced {untraced_rate:.3f} "
              f"({values['trace.steps_per_ref'] / untraced_rate:.3f}x)")
        spans_path = os.path.join(OUT, f"trace-{workload.name}.tsv.gz")
        tracer.write(spans_path, "# " + json.dumps({"workload": workload.name, "seed": args.seed,
                                                    "machine": facts}))
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}

    failed = len(checks.failures)
    print(f"  failed_frac    {failed}/{checks.attempted}"
          f" (trials{', output files' if workload.name == 'sweep' else ''})")
    for line in checks.failures[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    if missing:
        print(f"perfbench: traced layers missing: {', '.join(sorted(missing))}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
