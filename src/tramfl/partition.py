"""Split a dataset across nodes with deliberately skewed label distributions.

Three schemes: contiguous label groups (disjoint), random label subsets per
node (overlapping, coverage-enforced), and a two-class exponential skew with
either an analytic rate or an explicit per-node count table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, LabelHistogram
from .errors import StateError

# rejection-sampling cap for the label-coverage constraint
MAX_COVERAGE_ATTEMPTS = 10_000


@dataclass(eq=False)
class DatasetShard:
    """One node's local rows (``features`` (n, dims), ``labels`` (n,)) plus
    their label histogram and row count."""

    node_id: int
    features: np.ndarray
    labels: np.ndarray
    hist: LabelHistogram
    total: int


@dataclass(frozen=True)
class PartitionPlan:
    """Declarative description of a split, as read from an experiment config."""

    scheme: str  # contiguous | random_k | exponential | table
    nodes: int
    k_min: int | None = None
    k_max: int | None = None
    rate: float | None = None
    counts: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0


def make_shard(node_id: int, ds: LabeledDataset, rows) -> DatasetShard:
    """Gather ``ds``'s rows (in the given order) into a shard with a
    consistent histogram and total."""
    rows = np.asarray(rows, dtype=np.intp)
    labels = ds.labels[rows]
    hist = LabelHistogram(np.bincount(labels, minlength=ds.num_classes))
    return DatasetShard(node_id, ds.features[rows], labels, hist, len(rows))


def _shards_from_label_sets(ds: LabeledDataset, label_sets: list[set[int]]) -> list[DatasetShard]:
    return [
        make_shard(node_id, ds, np.flatnonzero(np.isin(ds.labels, sorted(labels))))
        for node_id, labels in enumerate(label_sets)
    ]


def split_contiguous_labels(ds: LabeledDataset, num_nodes: int) -> list[DatasetShard]:
    """Partition labels into contiguous groups of near-equal size.

    Remainder labels go to the last nodes, so 10 classes over 3 nodes yields
    group sizes 3, 3, 4. Every sample lands in exactly one shard.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_nodes > ds.num_classes:
        raise ValueError(
            f"cannot split {ds.num_classes} labels contiguously over {num_nodes} nodes"
        )
    base, rem = divmod(ds.num_classes, num_nodes)
    sizes = [base] * (num_nodes - rem) + [base + 1] * rem
    label_sets = []
    start = 0
    for size in sizes:
        label_sets.append(set(range(start, start + size)))
        start += size
    return _shards_from_label_sets(ds, label_sets)


def split_random_k_labels(
    ds: LabeledDataset, num_nodes: int, k_min: int, k_max: int, rng: np.random.Generator
) -> list[DatasetShard]:
    """Assign each node a random label subset of size uniform in [k_min, k_max].

    Assignments are redrawn until every label is held by at least one node
    (capped at MAX_COVERAGE_ATTEMPTS). A node receives all samples of its
    assigned labels, so samples whose label is held by several nodes are
    duplicated into each of those shards.
    """
    num_classes = ds.num_classes
    if not 1 <= k_min <= k_max <= num_classes:
        raise ValueError(f"need 1 <= k_min <= k_max <= {num_classes}, got [{k_min}, {k_max}]")
    if num_nodes * k_max < num_classes:
        raise ValueError(
            f"label coverage unattainable: {num_nodes} nodes x {k_max} labels < {num_classes}"
        )
    for _ in range(MAX_COVERAGE_ATTEMPTS):
        sizes = rng.integers(k_min, k_max + 1, size=num_nodes)
        label_sets = [set(rng.choice(num_classes, size=k, replace=False).tolist()) for k in sizes]
        if set().union(*label_sets) == set(range(num_classes)):
            return _shards_from_label_sets(ds, label_sets)
    raise StateError(
        f"no full label coverage after {MAX_COVERAGE_ATTEMPTS} assignment draws"
    )


def _assign_by_counts(ds: LabeledDataset, counts: list[list[int]]) -> list[DatasetShard]:
    """Assign the first available samples of each class, in dataset order."""
    by_class = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]
    cursors = [0] * ds.num_classes
    shards = []
    for node_id, row in enumerate(counts):
        picked = []
        for c, n in enumerate(row):
            avail = len(by_class[c]) - cursors[c]
            if n > avail:
                raise ValueError(
                    f"node {node_id} requests {n} samples of class {c}, only {avail} remain"
                )
            picked.append(by_class[c][cursors[c] : cursors[c] + n])
            cursors[c] += n
        shards.append(make_shard(node_id, ds, np.sort(np.concatenate(picked))))
    return shards


def split_exponential_binary(
    ds: LabeledDataset,
    num_nodes: int,
    rate: float | None = None,
    counts: list[list[int]] | None = None,
) -> list[DatasetShard]:
    """Skew a two-class dataset across nodes along an exponential profile.

    Exactly one of ``rate`` and ``counts`` must be given. With ``counts``, the
    per-node per-class sample counts are applied verbatim. With ``rate``, node
    v's share of class 0 follows the exponential density exp(-rate*v) and its
    share of class 1 the complementary cumulative mass 1 - exp(-rate*(v+1)),
    each normalized over nodes; shares are converted to integer counts by
    cumulative rounding so per-class totals are conserved exactly.
    """
    if ds.num_classes != 2:
        raise ValueError(f"exponential split needs exactly 2 classes, got {ds.num_classes}")
    if (rate is None) == (counts is None):
        raise ValueError("give exactly one of rate= or counts=")
    if counts is not None:
        counts = [list(row) for row in counts]
        if len(counts) != num_nodes:
            raise ValueError(f"counts has {len(counts)} rows, expected {num_nodes}")
        for row in counts:
            if len(row) != 2 or any(n < 0 for n in row):
                raise ValueError(f"each counts row must be two nonnegative ints, got {row}")
        return _assign_by_counts(ds, counts)

    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    class_totals = np.bincount(ds.labels, minlength=ds.num_classes)
    density = np.array([math.exp(-rate * v) for v in range(num_nodes)])
    ccm = np.array([1.0 - math.exp(-rate * (v + 1)) for v in range(num_nodes)])
    table = []
    for shares, total in ((density, class_totals[0]), (ccm, class_totals[1])):
        cumulative = np.cumsum(shares / shares.sum())
        marks = [int(round(float(f) * int(total))) for f in cumulative]
        table.append([marks[0]] + [marks[v] - marks[v - 1] for v in range(1, num_nodes)])
    per_node = [[table[0][v], table[1][v]] for v in range(num_nodes)]
    return _assign_by_counts(ds, per_node)


def make_shards(ds: LabeledDataset, plan: PartitionPlan) -> list[DatasetShard]:
    """Dispatch a partition plan onto a dataset."""
    if plan.scheme == "contiguous":
        return split_contiguous_labels(ds, plan.nodes)
    if plan.scheme == "random_k":
        rng = np.random.default_rng(plan.seed)
        return split_random_k_labels(ds, plan.nodes, plan.k_min, plan.k_max, rng)
    if plan.scheme == "exponential":
        return split_exponential_binary(ds, plan.nodes, rate=plan.rate)
    if plan.scheme == "table":
        return split_exponential_binary(ds, plan.nodes, counts=[list(r) for r in plan.counts])
    raise ValueError(f"unknown partition scheme {plan.scheme!r}")
