"""Experiment config: a flat INI-style file with strict validation.

Sections: [dataset], [partition], [learner], [run], [policies]. Unknown
sections or keys are rejected, and every error names the offending field as
``section.key``. The [policies] section is the one free-form part: each key
is a policy label (used in output file names) and each value one of
``dynamic``, ``random``, ``gossip``, ``static:<route>``, or ``static:all``
which expands to every route over the configured node count.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass

from .errors import ConfigError
from .learner import ArchSpec
from .partition import PartitionPlan
from .routing import enumerate_static_routes
from .simulator import PolicySpec, RunConfig

_LABEL_RE = re.compile(r"^[A-Za-z0-9_\-]+$")
_DATASET_KINDS = ("synthetic", "csv")
_PARTITION_SCHEMES = ("contiguous", "random_k", "exponential", "table")


@dataclass(frozen=True)
class DatasetSection:
    kind: str
    classes: int | None = None
    dims: int | None = None
    per_class: int | None = None
    test_per_class: int | None = None
    separation: float | None = None
    seed: int = 0
    train: str | None = None
    test: str | None = None
    header: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config. [partition] becomes the ``PartitionPlan`` and
    [learner] plus [run] the base ``RunConfig`` (without a policy); only
    ``run.trials`` has no runtime field, so it is kept here."""

    dataset: DatasetSection
    partition: PartitionPlan
    run: RunConfig
    trials: int
    policies: tuple[tuple[str, PolicySpec], ...]


def _parse_int(path, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None


def _parse_float(path, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {raw!r}")
    return value


def _parse_bool(path, raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"{path}: expected true or false, got {raw!r}")


def _parse_int_list(path, raw):
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{path}: expected comma-separated integers, got {raw!r}") from None


def _parse_count_table(path, raw):
    rows = []
    for chunk in raw.split(";"):
        rows.append(_parse_int_list(path, chunk.strip()))
    return tuple(rows)


def _parse_str(path, raw):
    if not raw.strip():
        raise ConfigError(f"{path}: value must not be empty")
    return raw.strip()


# key -> (parser, required)
_SCHEMAS = {
    "dataset": {
        "kind": (_parse_str, True),
        "classes": (_parse_int, False),
        "dims": (_parse_int, False),
        "per_class": (_parse_int, False),
        "test_per_class": (_parse_int, False),
        "separation": (_parse_float, False),
        "seed": (_parse_int, False),
        "train": (_parse_str, False),
        "test": (_parse_str, False),
        "header": (_parse_bool, False),
    },
    "partition": {
        "scheme": (_parse_str, True),
        "nodes": (_parse_int, True),
        "k_min": (_parse_int, False),
        "k_max": (_parse_int, False),
        "rate": (_parse_float, False),
        "counts": (_parse_count_table, False),
        "seed": (_parse_int, False),
    },
    "learner": {
        "layers": (_parse_int_list, True),
        "eta": (_parse_float, True),
        "batch": (_parse_int, True),
    },
    "run": {
        "iterations": (_parse_int, True),
        "interval": (_parse_int, False),
        "eval_every": (_parse_int, False),
        "target_accuracy": (_parse_float, False),
        "trials": (_parse_int, False),
        "seed": (_parse_int, False),
    },
}


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _take_section(raw_sections, name) -> dict:
    if name not in raw_sections:
        raise ConfigError(f"missing section [{name}]")
    schema = _SCHEMAS[name]
    raw = raw_sections[name]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    parsed = {}
    for key, (fn, required) in schema.items():
        if key in raw:
            parsed[key] = fn(f"{name}.{key}", raw[key])
        elif required:
            raise ConfigError(f"{name}.{key}: missing required key")
    return parsed


def _require(section, parsed, key):
    if key not in parsed:
        raise ConfigError(f"{section}.{key}: missing required key")
    return parsed[key]


def _build_dataset(parsed) -> DatasetSection:
    kind = parsed["kind"]
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"dataset.kind: expected one of {_DATASET_KINDS}, got {kind!r}")
    if kind == "synthetic":
        classes = _require("dataset", parsed, "classes")
        dims = _require("dataset", parsed, "dims")
        per_class = _require("dataset", parsed, "per_class")
        separation = _require("dataset", parsed, "separation")
        test_per_class = parsed.get("test_per_class", per_class)
        if classes < 2:
            raise ConfigError(f"dataset.classes: must be >= 2, got {classes}")
        if dims < 1:
            raise ConfigError(f"dataset.dims: must be >= 1, got {dims}")
        if per_class < 1 or test_per_class < 1:
            raise ConfigError("dataset.per_class/test_per_class: must be >= 1")
        if not separation > 0:
            raise ConfigError(f"dataset.separation: must be > 0, got {separation}")
        for key in ("train", "test", "header"):
            if key in parsed:
                raise ConfigError(f"dataset.{key}: not valid for kind=synthetic")
        return DatasetSection(
            kind="synthetic",
            classes=classes,
            dims=dims,
            per_class=per_class,
            test_per_class=test_per_class,
            separation=separation,
            seed=parsed.get("seed", 0),
        )
    for key in ("classes", "dims", "per_class", "test_per_class", "separation"):
        if key in parsed:
            raise ConfigError(f"dataset.{key}: not valid for kind=csv")
    return DatasetSection(
        kind="csv",
        train=_require("dataset", parsed, "train"),
        test=_require("dataset", parsed, "test"),
        header=parsed.get("header", False),
        seed=parsed.get("seed", 0),
    )


def _build_partition(parsed, dataset: DatasetSection) -> PartitionPlan:
    scheme = parsed["scheme"]
    if scheme not in _PARTITION_SCHEMES:
        raise ConfigError(f"partition.scheme: expected one of {_PARTITION_SCHEMES}, got {scheme!r}")
    nodes = parsed["nodes"]
    if nodes < 2:
        raise ConfigError(f"partition.nodes: must be >= 2, got {nodes}")
    allowed = {"scheme", "nodes", "seed"}
    if scheme == "random_k":
        allowed |= {"k_min", "k_max"}
        k_min = _require("partition", parsed, "k_min")
        k_max = _require("partition", parsed, "k_max")
        if k_min < 1 or k_min > k_max:
            raise ConfigError(f"partition.k_min: need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
    elif scheme == "exponential":
        allowed |= {"rate"}
        rate = _require("partition", parsed, "rate")
        if not rate > 0:
            raise ConfigError(f"partition.rate: must be > 0, got {rate}")
    elif scheme == "table":
        allowed |= {"counts"}
        counts = _require("partition", parsed, "counts")
        if len(counts) != nodes:
            raise ConfigError(f"partition.counts: {len(counts)} rows for {nodes} nodes")
        for row in counts:
            if len(row) != 2 or any(n < 0 for n in row):
                raise ConfigError(f"partition.counts: each row must be two nonnegative ints, got {row}")
    for key in parsed:
        if key not in allowed:
            raise ConfigError(f"partition.{key}: not valid for scheme={scheme}")
    plan = PartitionPlan(
        scheme=scheme,
        nodes=nodes,
        k_min=parsed.get("k_min"),
        k_max=parsed.get("k_max"),
        rate=parsed.get("rate"),
        counts=parsed.get("counts"),
        seed=parsed.get("seed", 0),
    )
    if dataset.kind == "synthetic":
        _check_partition_fits(plan, [dataset.per_class] * dataset.classes)
    return plan


def _check_partition_fits(plan: PartitionPlan, class_totals) -> None:
    """The [partition] checks that need the training set: ``class_totals[c]``
    is its number of rows of class c. Synthetic data is checked at parse
    time, CSV data once it is loaded."""
    classes = len(class_totals)
    if plan.scheme == "contiguous" and plan.nodes > classes:
        raise ConfigError(f"partition.nodes: {plan.nodes} exceeds {classes} labels")
    if plan.scheme == "random_k":
        if plan.k_max > classes:
            raise ConfigError(f"partition.k_max: exceeds {classes} classes")
        if plan.nodes * plan.k_max < classes:
            raise ConfigError(
                f"partition.k_max: coverage unattainable, {plan.nodes} x {plan.k_max} < {classes}"
            )
    if plan.scheme in ("exponential", "table") and classes != 2:
        raise ConfigError(f"partition.scheme: {plan.scheme} needs a 2-class dataset, got {classes}")
    if plan.scheme == "table":
        for c, held in enumerate(class_totals):
            asked = sum(row[c] for row in plan.counts)
            if asked > held:
                raise ConfigError(
                    f"partition.counts: the nodes ask for {asked} samples of class {c}, "
                    f"the training set holds {held}"
                )


def _check_learner(parsed, dataset: DatasetSection) -> None:
    layers = parsed["layers"]
    if len(layers) < 2 or any(n < 1 for n in layers):
        raise ConfigError(f"learner.layers: need >= 2 positive sizes, got {layers}")
    if dataset.kind == "synthetic":
        if layers[0] != dataset.dims:
            raise ConfigError(f"learner.layers: first size {layers[0]} != dataset.dims {dataset.dims}")
        if layers[-1] != dataset.classes:
            raise ConfigError(
                f"learner.layers: last size {layers[-1]} != dataset.classes {dataset.classes}"
            )
    if not parsed["eta"] > 0:
        raise ConfigError(f"learner.eta: must be > 0, got {parsed['eta']}")
    if parsed["batch"] < 1:
        raise ConfigError(f"learner.batch: must be >= 1, got {parsed['batch']}")


def _build_run(learner, parsed) -> tuple[RunConfig, int]:
    """The base RunConfig from [learner] and [run], plus run.trials."""
    iterations = parsed["iterations"]
    interval = parsed.get("interval", 1)
    eval_every = parsed.get("eval_every", 1)
    target_accuracy = parsed.get("target_accuracy")
    trials = parsed.get("trials", 1)
    if min(iterations, interval, eval_every, trials) < 1:
        raise ConfigError("run.iterations/interval/eval_every/trials: must be >= 1")
    if target_accuracy is not None and not 0 < target_accuracy <= 1:
        raise ConfigError(f"run.target_accuracy: must be in (0, 1], got {target_accuracy}")
    run = RunConfig(
        arch=ArchSpec(learner["layers"]),
        learning_rate=learner["eta"],
        batch_size=learner["batch"],
        interval=interval,
        max_iterations=iterations,
        eval_every=eval_every,
        target_accuracy=target_accuracy,
        seed=parsed.get("seed", 0),
    )
    return run, trials


def _parse_route(path, raw, nodes):
    parts = [p.strip() for p in raw.split(",")]
    try:
        route = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{path}: expected comma-separated node indices, got {raw!r}") from None
    if sorted(route) != list(range(nodes)):
        raise ConfigError(f"{path}: route {raw!r} is not a permutation of 0..{nodes - 1}")
    return route


def _build_policies(raw_sections, nodes) -> tuple[tuple[str, PolicySpec], ...]:
    if "policies" not in raw_sections:
        raise ConfigError("missing section [policies]")
    raw = raw_sections["policies"]
    if not raw:
        raise ConfigError("policies: at least one policy is required")
    policies: list[tuple[str, PolicySpec]] = []
    for label, value in raw.items():
        path = f"policies.{label}"
        if not _LABEL_RE.match(label):
            raise ConfigError(f"{path}: label must match [A-Za-z0-9_-]+")
        value = value.strip()
        if value in ("dynamic", "random", "gossip"):
            policies.append((label, PolicySpec(value)))
        elif value.startswith("static:"):
            spec = value[len("static:"):].strip()
            if spec == "all":
                for num, order in enumerate(enumerate_static_routes(nodes), start=1):
                    policies.append((f"{label}_{num:02d}", PolicySpec("static", order)))
            else:
                policies.append((label, PolicySpec("static", _parse_route(path, spec, nodes))))
        else:
            raise ConfigError(
                f"{path}: expected dynamic, random, gossip, static:<route>, or static:all, got {value!r}"
            )
    labels = [label for label, _ in policies]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"policies.{label}: duplicate policy label")
    return tuple(policies)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError naming the field."""
    raw_sections = _read_sections(text)
    known = set(_SCHEMAS) | {"policies"}
    for name in raw_sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    dataset = _build_dataset(_take_section(raw_sections, "dataset"))
    partition = _build_partition(_take_section(raw_sections, "partition"), dataset)
    learner = _take_section(raw_sections, "learner")
    _check_learner(learner, dataset)
    run, trials = _build_run(learner, _take_section(raw_sections, "run"))
    policies = _build_policies(raw_sections, partition.nodes)
    return ExperimentConfig(dataset, partition, run, trials, policies)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(cfg: ExperimentConfig) -> str:
    """Emit canonical config text; parse_config_text(format_config(c)) == c."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for key, value in pairs:
            if value is not None:
                out.write(f"{key} = {_fmt(value)}\n")
        out.write("\n")

    d = cfg.dataset
    if d.kind == "synthetic":
        section("dataset", [
            ("kind", d.kind), ("classes", d.classes), ("dims", d.dims),
            ("per_class", d.per_class), ("test_per_class", d.test_per_class),
            ("separation", d.separation), ("seed", d.seed),
        ])
    else:
        section("dataset", [
            ("kind", d.kind), ("train", d.train), ("test", d.test),
            ("header", d.header), ("seed", d.seed),
        ])
    p = cfg.partition
    counts = None
    if p.counts is not None:
        counts = "; ".join(",".join(str(n) for n in row) for row in p.counts)
    section("partition", [
        ("scheme", p.scheme), ("nodes", p.nodes), ("k_min", p.k_min),
        ("k_max", p.k_max), ("rate", p.rate), ("counts", counts), ("seed", p.seed),
    ])
    r = cfg.run
    section("learner", [
        ("layers", ",".join(str(n) for n in r.arch.layer_sizes)),
        ("eta", r.learning_rate), ("batch", r.batch_size),
    ])
    section("run", [
        ("iterations", r.max_iterations), ("interval", r.interval), ("eval_every", r.eval_every),
        ("target_accuracy", r.target_accuracy), ("trials", cfg.trials), ("seed", r.seed),
    ])
    out.write("[policies]\n")
    for label, spec in cfg.policies:
        if spec.kind == "static":
            out.write(f"{label} = static:{','.join(str(i) for i in spec.route)}\n")
        else:
            out.write(f"{label} = {spec.kind}\n")
    return out.getvalue()
