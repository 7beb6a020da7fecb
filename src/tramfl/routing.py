"""Next-node selection policies for the traveling model.

The dynamic policy keeps a cumulative ledger of label counts consumed by
training so far and hands the model to whichever node minimizes the ledger's
variance after that node's expected batch usage is added. Static policies
walk a fixed node permutation; random picks a uniform neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .datasets import LabelHistogram
from .errors import StateError


@dataclass(eq=False)
class RoutingState:
    """Cumulative label-usage ledger and model holder."""

    cumulative: LabelHistogram
    holder: int


def _variances(columns: np.ndarray) -> np.ndarray:
    """Population variance of each column of a C-contiguous (C, V) array.

    Both sums are column reductions. With V >= 2 numpy runs an axis-0
    reduction row by row, so each column is summed one class at a time, in
    the left-to-right order of :func:`dispersion`, and each deviation is
    squared with one multiply: every variance has ``dispersion``'s bits. With
    V == 1 numpy sums the one column pairwise, and for C >= 8 its bits may
    differ, but the argmin of one candidate is that candidate, so the
    router's choice cannot change.
    """
    size = columns.shape[0]
    mean = np.add.reduce(columns, axis=0) / size
    deviations = columns - mean
    deviations *= deviations
    return np.add.reduce(deviations, axis=0) / size


def dispersion(hist: LabelHistogram) -> float:
    """Population variance of the histogram entries, in the arithmetic the
    router ranks its candidates with.

    Both sums run down the entries one at a time, as a left-to-right ``+=``
    loop would, and each deviation is squared with one multiply, so the bits
    do not depend on the Python version. The sums use ``np.add.accumulate``:
    ``np.add.reduce`` over a single column sums pairwise and may change the
    bits, which the router's multi-column reduction does not.
    """
    counts = hist.counts
    if counts.size == 0:
        raise ValueError("dispersion of an empty histogram is undefined")
    mean = np.add.accumulate(counts)[-1] / counts.size
    deviations = counts - mean
    return float(np.add.accumulate(deviations * deviations)[-1] / counts.size)


def _check_volume(volume: int) -> None:
    if volume < 1:
        raise ValueError(f"volume (batch_size * interval) must be >= 1, got {volume}")


def expected_usage(shard, volume: int) -> LabelHistogram:
    """Expected per-label counts a full visit at this shard would consume.

    ``volume`` is the samples one visit trains on, batch_size * interval.
    Scales the shard's label histogram by volume / total, i.e. the expected
    composition of `interval` uniform batches.
    """
    _check_volume(volume)
    if shard.total <= 0:
        raise ValueError(f"shard {shard.node_id} is empty")
    factor = volume / shard.total
    return LabelHistogram(shard.hist.counts * factor)


class RouteTable(tuple):
    """The shards sorted by node id, carrying the dynamic router's constants
    for one ``volume``.

    It is a tuple of the shards, so it can stand in for the shard list
    wherever one is read. Built once per run, it holds ``volume``,
    ``node_ids`` (every nonempty shard, in ascending order) and ``usage``, a
    C-contiguous (C, V) array whose column j is the :func:`expected_usage`
    of ``node_ids[j]``. Raises StateError if every shard is empty.
    """

    def __new__(cls, shards, volume: int):
        _check_volume(volume)
        table = super().__new__(cls, sorted(shards, key=lambda s: s.node_id))
        nonempty = [shard for shard in table if shard.total > 0]
        if not nonempty:
            raise StateError("no nonempty shard to route to")
        table.volume = volume
        table.node_ids = [shard.node_id for shard in nonempty]
        table.usage = np.column_stack([expected_usage(s, volume).counts for s in nonempty])
        return table


def select_next_dynamic(state: RoutingState, shards, volume: int) -> int:
    """Pick the node whose expected usage of ``volume`` samples leaves the
    ledger most uniform.

    Every nonempty shard is a candidate, including the current holder; the
    choice is the first minimum of :func:`dispersion` over the candidate
    ledgers (ledger plus :func:`expected_usage`), found in one exact pass,
    so ties break to the lowest node id. Raises StateError if all shards
    are empty, ValueError if the ledger's length is not the class count.

    ``shards`` is a :class:`RouteTable` built for ``volume``, or any sequence
    of shards, for which a table is built for this call. A table built for
    another volume is rebuilt too. The simulator builds one table per run.
    """
    if not (isinstance(shards, RouteTable) and shards.volume == volume):
        shards = RouteTable(shards, volume)
    ledger = state.cumulative.counts
    if len(ledger) != len(shards.usage):
        raise ValueError(f"ledger length {len(ledger)} does not match the "
                         f"{len(shards.usage)} classes of the shards")
    return shards.node_ids[_variances(ledger[:, None] + shards.usage).argmin()]


def next_static(route: tuple[int, ...], holder: int) -> int:
    """The holder's successor on the cyclic route; ValueError if the holder
    is not on it."""
    return route[(route.index(holder) + 1) % len(route)]


def next_random(num_nodes: int, holder: int, rng: np.random.Generator) -> int:
    """Uniform draw over all nodes except the holder (full-mesh neighbors)."""
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes}")
    if not 0 <= holder < num_nodes:
        raise ValueError(f"holder {holder} out of range for {num_nodes} nodes")
    pick = int(rng.integers(num_nodes - 1))
    return pick if pick < holder else pick + 1


def update_ledger(state: RoutingState, batch_counts: np.ndarray) -> RoutingState:
    """Fold one batch's realized label counts, the array
    :func:`~tramfl.datasets.draw_minibatch` returns, into a new ledger."""
    if batch_counts.shape != state.cumulative.counts.shape:
        raise ValueError(
            f"batch counts length {batch_counts.shape[0]} does not match "
            f"ledger length {state.cumulative.counts.shape[0]}"
        )
    return RoutingState(
        cumulative=LabelHistogram(state.cumulative.counts + batch_counts),
        holder=state.holder,
    )


def enumerate_static_routes(num_nodes: int) -> list[tuple[int, ...]]:
    """All cyclic routes fixing node 0 first, in lexicographic order."""
    if not 2 <= num_nodes <= 8:
        raise ValueError(f"route enumeration supports 2..8 nodes, got {num_nodes}")
    return [(0,) + p for p in permutations(range(1, num_nodes))]
