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
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError
from .learner import ArchSpec
from .partition import PartitionPlan
from .routing import enumerate_static_routes
from .simulator import PolicySpec, RunConfig

_LABEL_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


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
    return tuple(_parse_int_list(path, chunk.strip()) for chunk in raw.split(";"))


def _parse_str(path, raw):
    if not raw.strip():
        raise ConfigError(f"{path}: value must not be empty")
    return raw.strip()


# Every section's keys in canonical order, as key -> (parser, rule). The rule
# is True for a required key, False for an optional one, or {variant: required}
# for a key that only those variants take. _VARIANTS names the key whose value
# is a section's variant and lists its values. _take_section and format_config
# both walk this table.
_SCHEMAS = {
    "dataset": {
        "kind": (_parse_str, True),
        "classes": (_parse_int, {"synthetic": True}),
        "dims": (_parse_int, {"synthetic": True}),
        "per_class": (_parse_int, {"synthetic": True}),
        "test_per_class": (_parse_int, {"synthetic": False}),
        "separation": (_parse_float, {"synthetic": True}),
        "train": (_parse_str, {"csv": True}),
        "test": (_parse_str, {"csv": True}),
        "header": (_parse_bool, {"csv": False}),
        "seed": (_parse_int, False),
    },
    "partition": {
        "scheme": (_parse_str, True),
        "nodes": (_parse_int, True),
        "k_min": (_parse_int, {"random_k": True}),
        "k_max": (_parse_int, {"random_k": True}),
        "rate": (_parse_float, {"exponential": True}),
        "counts": (_parse_count_table, {"table": True}),
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
        "count_exchanges_once": (_parse_bool, False),
    },
}
# Each [learner] and [run] key's RunConfig field; _build_run and format_config
# both read it. run.trials has none, and an absent key takes RunConfig's default.
_RUN_FIELDS = {"layers": "arch", "eta": "learning_rate", "batch": "batch_size",
               "iterations": "max_iterations", "interval": "interval", "eval_every": "eval_every",
               "target_accuracy": "target_accuracy", "seed": "seed",
               "count_exchanges_once": "count_exchanges_once"}
_VARIANTS = {
    "dataset": ("kind", ("synthetic", "csv")),
    "partition": ("scheme", ("contiguous", "random_k", "exponential", "table")),
}
# Each section's range rules in check order, as keys -> rule. A rule over
# several keys ("a/b") holds for each of them present. _RULES tests a value.
_BOUNDS = {
    "dataset": {
        "classes": ">= 2", "dims": ">= 1", "per_class/test_per_class": ">= 1",
        "separation": "> 0", "seed": ">= 0",
    },
    "partition": {"nodes": ">= 2", "rate": "> 0", "seed": ">= 0"},
    "learner": {"eta": "> 0", "batch": ">= 1"},
    "run": {
        "iterations/interval/eval_every/trials": ">= 1", "target_accuracy": "in (0, 1]", "seed": ">= 0",
    },
}
_RULES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          "> 0": lambda v: v > 0, "in (0, 1]": lambda v: 0 < v <= 1}


def _applies(rule, variant) -> bool:
    return not isinstance(rule, dict) or variant in rule


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _take_section(raw_sections, name) -> dict:
    """Parse one section by its schema. Unknown keys, missing required keys,
    keys the section's variant does not take and values out of range are
    errors."""
    if name not in raw_sections:
        raise ConfigError(f"missing section [{name}]")
    schema, raw = _SCHEMAS[name], raw_sections[name]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    parsed = {}
    for key, (fn, rule) in schema.items():
        if key in raw:
            parsed[key] = fn(f"{name}.{key}", raw[key])
        elif rule is True:
            raise ConfigError(f"{name}.{key}: missing required key")
    variant_key, variants = _VARIANTS.get(name, (None, ()))
    variant = parsed.get(variant_key)
    if variants and variant not in variants:
        raise ConfigError(f"{name}.{variant_key}: expected one of {variants}, got {variant!r}")
    for key, (_, rule) in schema.items():
        if key in parsed and not _applies(rule, variant):
            raise ConfigError(f"{name}.{key}: not valid for {variant_key}={variant}")
        if key not in parsed and isinstance(rule, dict) and rule.get(variant):
            raise ConfigError(f"{name}.{key}: missing required key")
    for keys, rule in _BOUNDS[name].items():
        values = [parsed[key] for key in keys.split("/") if key in parsed]
        if not all(map(_RULES[rule], values)):
            got = "" if "/" in keys else f", got {values[0]}"
            raise ConfigError(f"{name}.{keys}: must be {rule}{got}")
    return parsed


def _build_partition(parsed, dataset: DatasetSection) -> PartitionPlan:
    plan = PartitionPlan(**parsed)
    if plan.scheme == "random_k" and not 1 <= plan.k_min <= plan.k_max:
        raise ConfigError(f"partition.k_min: need 1 <= k_min <= k_max, got [{plan.k_min}, {plan.k_max}]")
    if plan.scheme == "table":
        if len(plan.counts) != plan.nodes:
            raise ConfigError(f"partition.counts: {len(plan.counts)} rows for {plan.nodes} nodes")
        for row in plan.counts:
            if len(row) != 2 or any(n < 0 for n in row):
                raise ConfigError(f"partition.counts: each row must be two nonnegative ints, got {row}")
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
            raise ConfigError(f"learner.layers: last size {layers[-1]} != dataset.classes {dataset.classes}")


def _build_run(learner, parsed) -> tuple[RunConfig, int]:
    """The base RunConfig from [learner] and [run] (run.interval defaults to 1), plus run.trials."""
    given = {"interval": 1, **learner, **parsed, "layers": ArchSpec(learner["layers"])}
    fields = {field: given[key] for key, field in _RUN_FIELDS.items() if key in given}
    return RunConfig(**fields), parsed.get("trials", 1)


def _parse_route(path, raw, nodes):
    try:
        route = tuple(int(p) for p in raw.split(","))
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
                try:
                    routes = enumerate_static_routes(nodes)
                except ValueError as exc:
                    raise ConfigError(f"{path}: {exc}") from None
                for num, order in enumerate(routes, start=1):
                    policies.append((f"{label}_{num:02d}", PolicySpec("static", order)))
            else:
                policies.append((label, PolicySpec("static", _parse_route(path, spec, nodes))))
        else:
            raise ConfigError(
                f"{path}: expected dynamic, random, gossip, static:<route>, or static:all, got {value!r}"
            )
    counts = Counter(label for label, _ in policies)
    for label, _ in policies:
        if counts[label] > 1:
            raise ConfigError(f"policies.{label}: duplicate policy label")
    return tuple(policies)


def _check_sends(run: RunConfig, policies) -> None:
    """A traveling model is sent once per ``interval`` iterations, so a run
    shorter than one interval would never send it; gossip exchanges every
    iteration and is exempt."""
    traveling = [(label, spec.kind) for label, spec in policies if spec.kind != "gossip"]
    if traveling and run.max_iterations < run.interval:
        label, kind = traveling[0]
        raise ConfigError(
            f"run.iterations: {run.max_iterations} is less than run.interval {run.interval}, "
            f"so policies.{label} ({kind}) would never send the model"
        )


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError naming the field."""
    raw_sections = _read_sections(text)
    known = set(_SCHEMAS) | {"policies"}
    for name in raw_sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    parsed = _take_section(raw_sections, "dataset")
    # A synthetic test set defaults to per_class rows per class.
    dataset = DatasetSection(**{"test_per_class": parsed.get("per_class"), **parsed})
    partition = _build_partition(_take_section(raw_sections, "partition"), dataset)
    learner = _take_section(raw_sections, "learner")
    _check_learner(learner, dataset)
    run, trials = _build_run(learner, _take_section(raw_sections, "run"))
    policies = _build_policies(raw_sections, partition.nodes)
    _check_sends(run, policies)
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
    if isinstance(value, tuple):  # int lists join with ",", count-table rows with "; "
        return ("; " if isinstance(value[0], tuple) else ",").join(_fmt(v) for v in value)
    return str(value)


def format_config(cfg: ExperimentConfig) -> str:
    """Emit canonical config text; parse_config_text(format_config(c)) == c.

    Walks _SCHEMAS, writing each key its section's variant takes and whose
    value is not None."""
    run = {key: getattr(cfg.run, field) for key, field in _RUN_FIELDS.items()}
    run.update(layers=cfg.run.arch.layer_sizes, trials=cfg.trials)
    values = {"dataset": vars(cfg.dataset), "partition": vars(cfg.partition), "learner": run, "run": run}
    out = io.StringIO()
    for name, schema in _SCHEMAS.items():
        section = values[name]
        variant = section.get(_VARIANTS[name][0]) if name in _VARIANTS else None
        out.write(f"[{name}]\n")
        for key, (_, rule) in schema.items():
            if section[key] is not None and _applies(rule, variant):
                out.write(f"{key} = {_fmt(section[key])}\n")
        out.write("\n")
    out.write("[policies]\n")
    for label, spec in cfg.policies:
        value = f"static:{_fmt(spec.route)}" if spec.kind == "static" else spec.kind
        out.write(f"{label} = {value}\n")
    return out.getvalue()
