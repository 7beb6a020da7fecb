"""Config-driven experiment runner.

``tramfl run <config> --out <dir>`` builds the dataset and partition, runs
every configured policy for the configured number of trials, writes one
``results_<label>.csv`` per policy plus a ``summary.json``, and prints a
comparison table ordered by mean transmissions-to-target.

Exit codes: 0 success, 2 config error, 3 runtime/simulation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, _check_partition_fits, parse_config
from .datasets import LabeledDataset, generate_synthetic_split, load_csv
from .errors import ParseError, StateError
from .learner import ModelParams
from .partition import make_shards
from .simulator import TrialsSummary, run_trials

CSV_COLUMNS = "trial,iteration,transmissions,holder,test_loss,test_accuracy"


def _build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    d = cfg.dataset
    if d.kind == "synthetic":
        return generate_synthetic_split(
            d.classes, d.dims, d.per_class, d.test_per_class, d.separation, d.seed
        )
    train = load_csv(d.train, has_header=d.header)
    test = load_csv(d.test, has_header=d.header)
    layers = cfg.run.arch.layer_sizes
    if train.dims != layers[0] or test.dims != layers[0]:
        raise ConfigError(
            f"learner.layers: first size {layers[0]} does not match CSV dims "
            f"{train.dims}/{test.dims}"
        )
    if train.num_classes > layers[-1] or test.num_classes > layers[-1]:
        raise ConfigError(
            f"learner.layers: last size {layers[-1]} is smaller than the CSV label range"
        )
    class_totals = np.bincount(train.labels, minlength=train.num_classes)
    absent = np.flatnonzero(class_totals == 0)
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
    _check_partition_fits(cfg.partition, class_totals.tolist())
    return train, test


def _write_results_csv(path, summary: TrialsSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_COLUMNS + "\n")
        for trial, result in enumerate(summary.results):
            for rec in result.records:
                handle.write(
                    f"{trial},{rec.iteration},{rec.transmissions},{rec.holder},"
                    f"{repr(rec.test_loss)},{repr(rec.test_accuracy)}\n"
                )


def _write_checkpoint(params: ModelParams, path) -> None:
    """Flat little-endian float64 values prefixed by [n_layers, sizes...] as int64."""
    sizes = params.arch.layer_sizes
    header = np.asarray((len(sizes),) + sizes, dtype="<i8")
    with open(path, "wb") as handle:
        handle.write(header.tobytes())
        handle.write(np.ascontiguousarray(params.values, dtype="<f8").tobytes())


def _print_table(rows) -> None:
    print(f"{'policy':<24} {'mean':>12} {'std':>10} {'reached':>8}")
    for label, summary in rows:
        mean = f"{summary.mean:.2f}" if summary.mean is not None else "-"
        std = f"{summary.std:.2f}" if summary.std is not None else "-"
        reached = f"{summary.n_reached}/{summary.n_trials}"
        print(f"{label:<24} {mean:>12} {std:>10} {reached:>8}")


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    dump_model: str | None = None,
    count_exchanges_once: bool = False,
) -> int:
    """Run every configured policy and write CSVs, summary.json, and the table."""
    if cfg.run.target_accuracy is None:
        raise ConfigError("run.target_accuracy: required to measure transmissions-to-target")
    train, test = _build_datasets(cfg)
    shards = make_shards(train, cfg.partition)
    base = replace(cfg.run, count_exchanges_once=count_exchanges_once)
    os.makedirs(out_dir, exist_ok=True)

    summaries: list[tuple[str, TrialsSummary]] = []
    last_params = None
    for label, spec in cfg.policies:
        summary = run_trials(shards, test, replace(base, policy=spec), num_trials=cfg.trials)
        _write_results_csv(os.path.join(out_dir, f"results_{label}.csv"), summary)
        summaries.append((label, summary))
        last_params = summary.results[-1].final_params

    payload = {
        label: {
            "mean": s.mean,
            "std": s.std,
            "n_trials": s.n_trials,
            "n_reached": s.n_reached,
            "per_trial": s.per_trial,
        }
        for label, s in summaries
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    ordered = sorted(summaries, key=lambda row: (row[1].mean is None, row[1].mean))
    _print_table(ordered)
    if dump_model is not None:
        _write_checkpoint(last_params, dump_model)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tramfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to the experiment config file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--dump-model", metavar="PATH",
                            help="write the last trial's final model to PATH")
    run_parser.add_argument("--count-exchanges-once", action="store_true",
                            help="count each gossip exchange as one transmission instead of two")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        return run_experiment(
            cfg, args.out, dump_model=args.dump_model, count_exchanges_once=args.count_exchanges_once
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, StateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
