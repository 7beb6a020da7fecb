"""Split a dataset across nodes with deliberately skewed label distributions.

Three schemes: contiguous label groups (disjoint), random label subsets per
node (overlapping, coverage-enforced), and a two-class exponential skew with
either an analytic rate or an explicit per-node count table.

Each split rule is stated once, on the plan alone in ``PartitionPlan`` (which
fields each scheme takes included) and against the training set's class
totals in :func:`check_fits`. Its ``ValueError`` starts with the field it
names, a ``[partition]`` config key, so ``config.check_data`` reports the
same text for synthetic and CSV data, behind a ``partition.`` prefix.

:func:`make_shards` is the one split path: it counts the class totals once,
calls ``check_fits`` once, and runs the scheme, with random_k drawing from
``plan.seed``. The ``split_*`` functions are shortcuts that build the plan;
``split_random_k_labels`` draws from the caller's generator instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, pairwise

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


# The fields each scheme needs besides ``nodes``; no other scheme takes them.
_SCHEME_FIELDS = {"contiguous": (), "random_k": ("k_min", "k_max"), "exponential": ("rate",),
                  "table": ("counts",)}


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

    def __post_init__(self):
        if self.scheme not in _SCHEME_FIELDS:
            raise ValueError(f"scheme: expected one of {tuple(_SCHEME_FIELDS)}, got {self.scheme!r}")
        needed = _SCHEME_FIELDS[self.scheme]
        for name in sum(_SCHEME_FIELDS.values(), ()):
            if name in needed and getattr(self, name) is None:
                raise ValueError(f"{name}: missing required key")
            if name not in needed and getattr(self, name) is not None:
                raise ValueError(f"{name}: not valid for scheme={self.scheme}")
        for name in ("nodes", "k_min", "k_max", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.counts is not None:
            counts = tuple(tuple(operator.index(n) for n in row) for row in self.counts)
            object.__setattr__(self, "counts", counts)
        if self.nodes < 1:
            raise ValueError(f"nodes: must be >= 1, got {self.nodes}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.scheme == "random_k" and not 1 <= self.k_min <= self.k_max:
            raise ValueError(f"k_min: need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.scheme == "exponential" and not self.rate > 0:
            raise ValueError(f"rate: must be > 0, got {self.rate}")
        if self.scheme == "exponential" and self.rate == math.inf:
            raise ValueError(f"rate: must be finite, got {self.rate}")
        if self.scheme == "table":
            if len(self.counts) != self.nodes:
                raise ValueError(f"counts: {len(self.counts)} rows for {self.nodes} nodes")
            for row in self.counts:
                if len(row) != 2 or any(n < 0 for n in row):
                    raise ValueError(f"counts: each row must be two nonnegative ints, got {row}")


def check_fits(plan: PartitionPlan, class_totals) -> None:
    """The rules of ``plan`` that need the training set: ``class_totals[c]``
    is its number of rows of class c."""
    classes = len(class_totals)
    if plan.scheme == "contiguous" and plan.nodes > classes:
        raise ValueError(f"nodes: {plan.nodes} exceeds {classes} labels")
    if plan.scheme == "random_k":
        if plan.k_max > classes:
            raise ValueError(f"k_max: exceeds {classes} classes")
        if plan.nodes * plan.k_max < classes:
            raise ValueError(f"k_max: coverage unattainable, {plan.nodes} x {plan.k_max} < {classes}")
    if plan.scheme in ("exponential", "table") and classes != 2:
        raise ValueError(f"scheme: {plan.scheme} needs a 2-class dataset, got {classes}")
    if plan.scheme == "table":
        for c, held in enumerate(class_totals):
            asked = sum(row[c] for row in plan.counts)
            if asked > held:
                raise ValueError(f"counts: the nodes ask for {asked} samples of class {c}, "
                                 f"the training set holds {held}")


def make_shard(node_id: int, ds: LabeledDataset, rows) -> DatasetShard:
    """Gather ``ds``'s rows (in the given order) into a shard with a
    consistent histogram and total."""
    rows = np.asarray(rows, dtype=np.intp)
    labels = ds.labels[rows]
    hist = LabelHistogram(np.bincount(labels, minlength=ds.num_classes))
    return DatasetShard(node_id, ds.features[rows], labels, hist, len(rows))


def split_contiguous_labels(ds: LabeledDataset, num_nodes: int) -> list[DatasetShard]:
    """Partition labels into contiguous groups of near-equal size.

    Remainder labels go to the last nodes, so 10 classes over 3 nodes yields
    group sizes 3, 3, 4. Every sample lands in exactly one shard.
    """
    return make_shards(ds, PartitionPlan("contiguous", num_nodes))


def split_random_k_labels(
    ds: LabeledDataset, num_nodes: int, k_min: int, k_max: int, rng: np.random.Generator
) -> list[DatasetShard]:
    """Assign each node a random label subset of size uniform in [k_min, k_max].

    Assignments are redrawn until every label is held by at least one node
    (capped at MAX_COVERAGE_ATTEMPTS). A node receives all samples of its
    assigned labels, so samples whose label is held by several nodes are
    duplicated into each of those shards.
    """
    return _split(ds, PartitionPlan("random_k", num_nodes, k_min, k_max), rng)


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
    if (rate is None) == (counts is None):
        raise ValueError("give exactly one of rate= or counts=")
    if counts is None:
        return make_shards(ds, PartitionPlan("exponential", num_nodes, rate=rate))
    return make_shards(ds, PartitionPlan("table", num_nodes, counts=counts))


def make_shards(ds: LabeledDataset, plan: PartitionPlan) -> list[DatasetShard]:
    """Split ``ds`` as ``plan`` says; random_k draws from ``plan.seed``."""
    return _split(ds, plan, np.random.default_rng(plan.seed))


def _split(ds: LabeledDataset, plan: PartitionPlan, rng: np.random.Generator) -> list[DatasetShard]:
    """Every scheme's split, after one ``check_fits``; only random_k uses ``rng``."""
    classes = ds.num_classes
    class_totals = np.bincount(ds.labels, minlength=classes)
    check_fits(plan, class_totals)
    if plan.scheme == "exponential":
        return _assign_by_counts(ds, _exponential_table(plan.rate, plan.nodes, class_totals))
    if plan.scheme == "table":
        return _assign_by_counts(ds, plan.counts)
    if plan.scheme == "contiguous":
        base, rem = divmod(classes, plan.nodes)
        bounds = [0, *accumulate([base] * (plan.nodes - rem) + [base + 1] * rem)]
        label_sets = [range(start, stop) for start, stop in pairwise(bounds)]
    else:
        for _ in range(MAX_COVERAGE_ATTEMPTS):
            sizes = rng.integers(plan.k_min, plan.k_max + 1, size=plan.nodes)
            label_sets = [set(rng.choice(classes, size=k, replace=False).tolist()) for k in sizes]
            if set().union(*label_sets) == set(range(classes)):
                break
        else:
            raise StateError(f"no full label coverage after {MAX_COVERAGE_ATTEMPTS} assignment draws")
    return [make_shard(node_id, ds, np.flatnonzero(np.isin(ds.labels, sorted(labels))))
            for node_id, labels in enumerate(label_sets)]


def _exponential_table(rate: float, nodes: int, class_totals) -> list[tuple[int, int]]:
    """Per-node (class 0, class 1) counts: exp(-rate*v) and 1 - exp(-rate*(v+1)),
    each normalized over nodes and rounded cumulatively against its class total."""
    density = np.array([math.exp(-rate * v) for v in range(nodes)])
    ccm = np.array([1.0 - math.exp(-rate * (v + 1)) for v in range(nodes)])
    columns = []
    for shares, total in ((density, class_totals[0]), (ccm, class_totals[1])):
        marks = [int(round(float(f) * int(total))) for f in np.cumsum(shares / shares.sum())]
        columns.append([stop - start for start, stop in pairwise([0, *marks])])
    return list(zip(*columns))


def _assign_by_counts(ds: LabeledDataset, counts) -> list[DatasetShard]:
    """Assign the first available samples of each class, in dataset order."""
    by_class = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]
    cursors = [0] * ds.num_classes
    shards = []
    for node_id, row in enumerate(counts):
        picked = []
        for c, n in enumerate(row):
            picked.append(by_class[c][cursors[c] : cursors[c] + n])
            cursors[c] += n
        shards.append(make_shard(node_id, ds, np.sort(np.concatenate(picked))))
    return shards
