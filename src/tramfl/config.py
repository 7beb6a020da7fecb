"""Experiment config: a flat INI-style file with strict validation.

Sections: [dataset], [partition], [learner], [run], [policies]. Unknown
sections or keys are rejected, and every error names the offending field as
``section.key``. The types the sections build (``DatasetSection``,
``PartitionPlan``, ``ArchSpec``, ``RunConfig``) state their own rules; this
module states only the required keys, ``partition.nodes >= 2``, ``run.trials
>= 1`` and the checks across sections. :func:`check_data` holds every rule
between the data and [learner] or [partition], for synthetic data at parse
time and for CSV data once loaded. The [policies] section is the one
free-form part: each key is a policy label (used in output file names) and
each value one of ``dynamic``, ``random``, ``gossip``, ``static:<route>``, or
``static:all`` which expands to every route over the configured node count.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

from .datasets import ascii_number, check_synthetic
from .errors import ConfigError
from .learner import ArchSpec
from .partition import PartitionPlan, check_fits
from .routing import enumerate_static_routes
from .simulator import PolicySpec, RunConfig

_LABEL_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


# The fields each dataset kind takes, as name -> required; no other kind takes them.
_KIND_FIELDS = {"synthetic": {"classes": True, "dims": True, "per_class": True, "test_per_class": False,
                              "separation": True},
                "csv": {"train": True, "test": True, "header": False}}


@dataclass(frozen=True)
class DatasetSection:
    """The [dataset] section. Each rule's ``ValueError`` starts with the key
    it names. ``test_per_class`` defaults to ``per_class``, ``header`` to false."""

    kind: str  # synthetic | csv
    classes: int | None = None
    dims: int | None = None
    per_class: int | None = None
    test_per_class: int | None = None
    separation: float | None = None
    seed: int = 0
    train: str | None = None
    test: str | None = None
    header: bool | None = None

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"kind: expected one of {tuple(_KIND_FIELDS)}, got {self.kind!r}")
        taken = _KIND_FIELDS[self.kind]
        for name in (name for fields in _KIND_FIELDS.values() for name in fields):
            if taken.get(name) and getattr(self, name) is None:
                raise ValueError(f"{name}: missing required key")
            if name not in taken and getattr(self, name) is not None:
                raise ValueError(f"{name}: not valid for kind={self.kind}")
        if self.kind == "csv" and self.header is None:
            object.__setattr__(self, "header", False)
        if self.kind == "synthetic":
            if self.test_per_class is None:
                object.__setattr__(self, "test_per_class", self.per_class)
            check_synthetic(self.classes, self.dims, self.per_class, self.test_per_class, self.separation)
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


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
        return ascii_number(raw, int)
    except ValueError:
        raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None


def _parse_float(path, raw):
    try:
        value = ascii_number(raw, float)
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
        return tuple(ascii_number(part, int) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{path}: expected comma-separated integers, got {raw!r}") from None


def _parse_count_table(path, raw):
    return tuple(_parse_int_list(path, chunk.strip()) for chunk in raw.split(";"))


def _parse_str(path, raw):
    if not raw.strip():
        raise ConfigError(f"{path}: value must not be empty")
    return raw.strip()


# Every section's keys in canonical order, as key -> (parser, required); which
# keys a kind or scheme takes is DatasetSection's or PartitionPlan's rule.
# _take_section and format_config both walk this table.
_SCHEMAS = {
    "dataset": {
        "kind": (_parse_str, True),
        "classes": (_parse_int, False),
        "dims": (_parse_int, False),
        "per_class": (_parse_int, False),
        "test_per_class": (_parse_int, False),
        "separation": (_parse_float, False),
        "train": (_parse_str, False),
        "test": (_parse_str, False),
        "header": (_parse_bool, False),
        "seed": (_parse_int, False),
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
        "count_exchanges_once": (_parse_bool, False),
    },
}
# Each [learner] and [run] key's RunConfig field; _build_run and format_config
# both read it. run.trials has none, and an absent key takes RunConfig's default.
# _RUN_KEYS maps a field that a RunConfig or ArchSpec error names back to its key.
_RUN_FIELDS = {"layers": "arch", "eta": "learning_rate", "batch": "batch_size",
               "iterations": "max_iterations", "interval": "interval", "eval_every": "eval_every",
               "target_accuracy": "target_accuracy", "seed": "seed",
               "count_exchanges_once": "count_exchanges_once"}
_RUN_KEYS = {field: f"{'learner' if key in _SCHEMAS['learner'] else 'run'}.{key}"
             for key, field in _RUN_FIELDS.items()} | {"layer_sizes": "learner.layers"}


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _take_section(raw_sections, name) -> dict:
    """Parse one section by its schema; unknown and missing required keys are errors."""
    if name not in raw_sections:
        raise ConfigError(f"missing section [{name}]")
    schema, raw = _SCHEMAS[name], raw_sections[name]
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


def _build_partition(parsed) -> PartitionPlan:
    """The PartitionPlan, of at least two nodes; check_data fits it to the data."""
    if parsed["nodes"] < 2:
        raise ConfigError(f"partition.nodes: must be >= 2, got {parsed['nodes']}")
    try:
        return PartitionPlan(**parsed)
    except ValueError as exc:
        raise ConfigError(f"partition.{exc}") from None


def check_data(partition: PartitionPlan, arch: ArchSpec, dims: int, class_totals) -> None:
    """Check data of ``dims`` features and ``class_totals[c]`` rows of class c against [learner]
    and [partition]: at least 2 classes, ``layers`` as wide at both ends, then ``check_fits``."""
    layers, classes = arch.layer_sizes, len(class_totals)
    if classes < 2:
        raise ConfigError(f"dataset.classes: must be >= 2, got {classes}")
    if layers[0] != dims:
        raise ConfigError(f"learner.layers: first size {layers[0]} != dataset.dims {dims}")
    if layers[-1] != classes:
        raise ConfigError(f"learner.layers: last size {layers[-1]} != dataset.classes {classes}")
    try:
        check_fits(partition, class_totals)
    except ValueError as exc:
        raise ConfigError(f"partition.{exc}") from None


def _build_run(learner, parsed) -> tuple[RunConfig, int]:
    """The base RunConfig from [learner] and [run] (run.interval defaults to 1), plus run.trials."""
    if parsed.setdefault("trials", 1) < 1:
        raise ConfigError(f"run.trials: must be >= 1, got {parsed['trials']}")
    try:
        given = {"interval": 1, **learner, **parsed, "layers": ArchSpec(learner["layers"])}
        run = RunConfig(**{field: given[key] for key, field in _RUN_FIELDS.items() if key in given})
    except ValueError as exc:
        field, _, rule = str(exc).partition(": ")
        raise ConfigError(f"{_RUN_KEYS[field]}: {rule}") from None
    return run, parsed["trials"]


def _parse_route(path, raw, nodes):
    try:
        route = tuple(ascii_number(p, int) for p in raw.split(","))
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
    """RunConfig's rule that a traveling model is sent at least once; gossip is exempt."""
    for label, spec in policies:
        try:
            replace(run, policy=spec)
        except ValueError:
            raise ConfigError(
                f"run.iterations: {run.max_iterations} is less than run.interval {run.interval}, "
                f"so policies.{label} ({spec.kind}) would never send the model"
            ) from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError naming the field."""
    raw_sections = _read_sections(text)
    for name in raw_sections:
        if name not in _SCHEMAS and name != "policies":
            raise ConfigError(f"unknown section [{name}]")
    parsed = _take_section(raw_sections, "dataset")
    try:
        dataset = DatasetSection(**parsed)
    except ValueError as exc:
        raise ConfigError(f"dataset.{exc}") from None
    partition = _build_partition(_take_section(raw_sections, "partition"))
    learner = _take_section(raw_sections, "learner")
    run, trials = _build_run(learner, _take_section(raw_sections, "run"))
    if dataset.kind == "synthetic":
        check_data(partition, run.arch, dataset.dims, [dataset.per_class] * dataset.classes)
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

    Walks _SCHEMAS, writing each key whose value is not None."""
    run = {key: getattr(cfg.run, field) for key, field in _RUN_FIELDS.items()}
    run.update(layers=cfg.run.arch.layer_sizes, trials=cfg.trials)
    values = {"dataset": vars(cfg.dataset), "partition": vars(cfg.partition), "learner": run, "run": run}
    out = io.StringIO()
    for name, schema in _SCHEMAS.items():
        section = values[name]
        out.write(f"[{name}]\n")
        for key in schema:
            if section[key] is not None:
                out.write(f"{key} = {_fmt(section[key])}\n")
        out.write("\n")
    out.write("[policies]\n")
    for label, spec in cfg.policies:
        value = f"static:{_fmt(spec.route)}" if spec.kind == "static" else spec.kind
        out.write(f"{label} = {value}\n")
    return out.getvalue()
