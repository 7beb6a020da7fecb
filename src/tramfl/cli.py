"""Config-driven experiment runner.

``tramfl run <config> --out <dir>`` builds the dataset and partition, runs
every configured policy for the configured number of trials, writes one
``results_<label>.csv`` per policy plus a ``summary.json``, and prints a
comparison table ordered by mean transmissions-to-target. A policy's trials
are dropped once its CSV is written, so a run holds one policy's results at
a time however many routes ``static:all`` expands to. A trial whose test
loss stops being finite ends there as diverged and gets a warning on
stderr; then the run also writes ``status.json``, the per-policy counts of
trial statuses. A run with no diverged trial writes no ``status.json``, so
its outputs are the same files as before the status existed.

Outputs are all or nothing. They are written into a staging directory in
``<dir>`` (the ``--dump-model`` file into one beside its path) and published
only after the last policy: the ``status.json`` and ``results_*.csv`` that
an earlier run left for labels no longer written are removed, then every
staged file is moved into place with ``os.replace``, the dump last. A run
that fails or is interrupted before then leaves the files in ``<dir>`` as
they were, and its staging directories are removed however it ends. Both
are made before the first policy runs, so a dump path in a missing
directory, or one that is a directory, fails at once. A staging directory
is named ``.tramfl-staging-<pid>-*``; one whose process no longer exists,
as after a SIGKILL, is removed by the next run that stages in the same
directory.

Exit codes: 0 success (every number written is finite), 2 config error (an
unreadable dataset CSV included, a CSV feature of magnitude above
``FEATURE_LIMIT``, a random_k partition whose draws never cover every class,
or an empty shard under a policy that visits every node), 3 runtime/simulation
error or a diverged trial (after all outputs are written).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, check_data, parse_config
from .datasets import LabeledDataset, generate_synthetic_split, load_csv
from .errors import ParseError, StateError
from .learner import ModelParams
from .partition import make_shards
from .simulator import TRIAL_STATUSES, TrialsSummary, run_trials

CSV_COLUMNS = "trial,iteration,transmissions,holder,test_loss,test_accuracy"
STAGING_PREFIX = ".tramfl-staging-"
# A feature no larger than this, times a weight no larger than it, stays
# finite. A row beyond it overflows every evaluation, whatever the model, so
# it is rejected as data rather than reported later as a diverged trial.
FEATURE_LIMIT = math.sqrt(sys.float_info.max)


def _staging_dir(parent) -> str:
    """A new staging directory in ``parent``, named for this process, made
    after removing those there whose process is gone. A directory of a live
    process, of one this user may not signal, or with no pid in its name is
    left alone."""
    try:
        names = os.listdir(parent)
    except OSError:
        names = []  # then mkdtemp reports what is wrong with ``parent``
    for name in names:
        pid, dash, _ = name[len(STAGING_PREFIX):].partition("-")
        if name.startswith(STAGING_PREFIX) and dash and pid.isdecimal():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
            except PermissionError:
                pass
    return tempfile.mkdtemp(prefix=f"{STAGING_PREFIX}{os.getpid()}-", dir=parent)


def _read_csv(d, key) -> LabeledDataset:
    path = getattr(d, key)
    try:
        data = load_csv(path, has_header=d.header)
    except OSError as exc:
        raise ConfigError(f"dataset.{key}: cannot read {path}: {exc.strerror}") from None
    too_large = np.flatnonzero((np.abs(data.features) > FEATURE_LIMIT).any(axis=1))
    if len(too_large):
        raise ConfigError(
            f"dataset.{key}: row {too_large[0] + 1} of {path} has a feature of magnitude "
            f"above {FEATURE_LIMIT!r}"
        )
    return data


def _build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    d = cfg.dataset
    if d.kind == "synthetic":
        return generate_synthetic_split(
            d.classes, d.dims, d.per_class, d.test_per_class, d.separation, d.seed
        )
    train, test = _read_csv(d, "train"), _read_csv(d, "test")
    if test.dims != train.dims:
        raise ConfigError(f"dataset.test: {d.test} has {test.dims} features per row, "
                          f"the training set {d.train} {train.dims}")
    totals = np.bincount(train.labels)
    absent = np.flatnonzero(totals == 0)
    if len(absent):
        raise ConfigError(
            f"dataset.train: classes {absent.tolist()} have no rows in {d.train}; "
            f"labels must cover 0..{train.num_classes - 1}"
        )
    unseen = np.setdiff1d(test.labels, train.labels)
    if len(unseen):
        raise ConfigError(
            f"dataset.test: labels {unseen.tolist()} do not occur in the training set {d.train}"
        )
    check_data(cfg.partition, cfg.run.arch, train.dims, totals)
    return train, test


def _check_shards_visitable(cfg: ExperimentConfig, shards) -> None:
    """An empty shard is a config error under any policy that visits every
    node (random, static, gossip); only dynamic routing skips it."""
    empty = [shard.node_id for shard in shards if shard.total == 0]
    visiting = [(label, spec.kind) for label, spec in cfg.policies if spec.kind != "dynamic"]
    if empty and visiting:
        key = {"exponential": "rate", "table": "counts"}.get(cfg.partition.scheme, "nodes")
        label, kind = visiting[0]
        raise ConfigError(
            f"partition.{key}: node {empty[0]} gets no training rows, and policies.{label} "
            f"({kind}) visits every node; only dynamic routing skips an empty shard"
        )


def _write_results_csv(path, summary: TrialsSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_COLUMNS + "\n")
        for trial, result in enumerate(summary.results):
            for rec in result.records:
                handle.write(
                    f"{trial},{rec.iteration},{rec.transmissions},{rec.holder},"
                    f"{repr(rec.test_loss)},{repr(rec.test_accuracy)}\n"
                )


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_checkpoint(params: ModelParams, path) -> None:
    """Flat little-endian float64 values prefixed by [n_layers, sizes...] as int64."""
    sizes = params.arch.layer_sizes
    header = np.asarray((len(sizes),) + sizes, dtype="<i8")
    with open(path, "wb") as handle:
        handle.write(header.tobytes())
        handle.write(np.ascontiguousarray(params.values, dtype="<f8").tobytes())


def _print_table(rows) -> None:
    print(f"{'policy':<24} {'mean':>12} {'std':>10} {'reached':>8}")
    for label, entry in rows:
        mean = f"{entry['mean']:.2f}" if entry["mean"] is not None else "-"
        std = f"{entry['std']:.2f}" if entry["std"] is not None else "-"
        reached = f"{entry['n_reached']}/{entry['n_trials']}"
        print(f"{label:<24} {mean:>12} {std:>10} {reached:>8}")


def _run_policy(cfg: ExperimentConfig, label, spec, shards, test, out_dir):
    """Run one policy's trials, write its CSV and warn of each diverged trial.

    Returns what the rest of the run reads: the policy's summary.json entry,
    its status counts and the last trial's final params. The trials
    themselves die with this frame."""
    # A diverging trial is reported once, below, not by numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_trials(shards, test, replace(cfg.run, policy=spec), num_trials=cfg.trials)
    _write_results_csv(os.path.join(out_dir, f"results_{label}.csv"), summary)
    for trial, result in enumerate(summary.results):
        if result.status == "diverged":
            rec = result.records[-1]
            print(f"warning: {label} trial {trial} diverged: test loss {rec.test_loss!r} "
                  f"at transmission {rec.transmissions}", file=sys.stderr)
    entry = {
        "mean": summary.mean,
        "std": summary.std,
        "n_trials": summary.n_trials,
        "n_reached": summary.n_reached,
        "per_trial": summary.per_trial,
    }
    statuses = {name: sum(r.status == name for r in summary.results) for name in TRIAL_STATUSES}
    return entry, statuses, summary.results[-1].final_params


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    dump_model: str | None = None,
) -> int:
    """Run every configured policy and write CSVs, summary.json, and the table.

    Returns 0, or 3 when a trial diverged; only then is status.json written.
    The outputs are staged and published together after the last policy (see
    the module docstring)."""
    if cfg.run.target_accuracy is None:
        raise ConfigError("run.target_accuracy: required to measure transmissions-to-target")
    if dump_model is not None and not cfg.policies:
        raise ValueError("dump_model: no policy runs, so there is no final model to write")
    train, test = _build_datasets(cfg)
    try:
        shards = make_shards(train, cfg.partition)
    except StateError as exc:  # only random_k's coverage draws raise it
        raise ConfigError(f"partition.k_max: {exc} at partition.seed = {cfg.partition.seed}; "
                          f"raise k_max or try another seed") from None
    _check_shards_visitable(cfg, shards)
    os.makedirs(out_dir, exist_ok=True)
    staging, dump_staging = _staging_dir(out_dir), None
    try:
        if dump_model is not None:
            if os.path.isdir(dump_model):  # os.replace would fail only after the last policy
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), dump_model)
            # Staged beside its target, so that os.replace stays on one filesystem.
            dump_staging = _staging_dir(os.path.dirname(os.path.abspath(dump_model)))
            staged_dump = os.path.join(dump_staging, os.path.basename(dump_model))
        entries, statuses = {}, {}
        last_params = None
        for label, spec in cfg.policies:
            entries[label], statuses[label], last_params = _run_policy(
                cfg, label, spec, shards, test, staging)
        diverged = any(counts["diverged"] for counts in statuses.values())
        _write_json(os.path.join(staging, "summary.json"), entries)
        if diverged:
            _write_json(os.path.join(staging, "status.json"), statuses)
        if dump_staging is not None:
            _write_checkpoint(last_params, staged_dump)

        staged = os.listdir(staging)
        for name in os.listdir(out_dir):
            stale = name == "status.json" or (name.startswith("results_") and name.endswith(".csv"))
            if stale and name not in staged:
                os.remove(os.path.join(out_dir, name))
        for name in staged:
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        if dump_staging is not None:
            os.replace(staged_dump, dump_model)
    finally:
        for path in (staging, dump_staging):
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)

    _print_table(sorted(entries.items(), key=lambda row: (row[1]["mean"] is None, row[1]["mean"])))
    return 3 if diverged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tramfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to the experiment config file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--dump-model", metavar="PATH",
                            help="write the last trial's final model to PATH")
    args = parser.parse_args(argv)

    try:
        return run_experiment(parse_config(args.config), args.out, dump_model=args.dump_model)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, StateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
