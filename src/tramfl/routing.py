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


@dataclass
class RoutingState:
    """Cumulative label-usage ledger and model holder."""

    cumulative: LabelHistogram
    holder: int


def dispersion(hist: LabelHistogram) -> float:
    """Population variance of the histogram entries.

    Zero exactly when all entries are equal. It sums with the builtin ``sum``
    and squares with float ``**``, the same operations as the tests'
    sequential oracles, so on one interpreter it ties exactly where they do.
    That does not carry across platforms: ``**`` goes through the C
    library's ``pow``, and from Python 3.12 on ``sum`` of floats is
    compensated. The goldens were pinned on CPython 3.11.
    """
    counts = [float(c) for c in hist.counts]
    if not counts:
        raise ValueError("dispersion of an empty histogram is undefined")
    mean = sum(counts) / len(counts)
    return sum((c - mean) ** 2 for c in counts) / len(counts)


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
    wherever one is read. Built once per run, it holds:

    - ``node_ids``: the candidate node of each row below, in ascending order;
    - ``usage``: S, one :func:`expected_usage` row per nonempty shard, with
      each repeated row kept only at its lowest node id;
    - ``centred``: Sc, each row of S minus its mean, and ``norms``, the
      squared row norms of Sc;
    - ``max_usage``: the largest entry of S.

    Raises StateError if every shard is empty.
    """

    def __new__(cls, shards, volume: int):
        _check_volume(volume)
        table = super().__new__(cls, sorted(shards, key=lambda s: s.node_id))
        nonempty = [shard for shard in table if shard.total > 0]
        if not nonempty:
            raise StateError("no nonempty shard to route to")
        usage = np.array([expected_usage(shard, volume).counts for shard in nonempty])
        raw, width = usage.tobytes(), usage.shape[1] * usage.itemsize
        first = {}
        for i in range(len(nonempty)):
            first.setdefault(raw[i * width:(i + 1) * width], i)
        keep = list(first.values())
        table.volume = volume
        table.node_ids = [nonempty[i].node_id for i in keep]
        table.usage = usage[keep]
        table.centred = table.usage - table.usage.mean(axis=1, keepdims=True)
        table.norms = (table.centred * table.centred).sum(axis=1)
        table.max_usage = float(table.usage.max())
        return table


def select_next_dynamic(state: RoutingState, shards, volume: int) -> int:
    """Pick the node whose expected usage of ``volume`` samples leaves the
    ledger most uniform.

    Every nonempty shard is a candidate, including the current holder; ties
    break to the lowest node index. Raises StateError if all shards are empty.
    The choice is the first minimum of :func:`dispersion` over the candidate
    ledgers ``L + S_v`` (ledger plus :func:`expected_usage`), in node order.

    ``shards`` is a :class:`RouteTable` built for ``volume``, or any sequence
    of shards, for which a table is built for this call. A table built for
    another volume is rebuilt too. The simulator builds one table per run.

    Scoring. With C classes, L̄ the mean of L and Sc_v the centred row of
    S_v, ``C * var(L + S_v) = |L - L̄|² + 2 Sc_v·(L - L̄) + |Sc_v|²``. The
    first term is the same for every candidate, so it is dropped and each
    candidate scores ``2 Sc_v·(L - L̄) + |Sc_v|²``: a large ledger's
    variance never has to cancel against itself. The rows of Sc sum to
    zero, so ``Sc_v·(L - L̄) = Sc_v·L`` and one matrix-vector product with
    the ledger scores every candidate.

    Dropping repeated rows of S cannot change the choice: two nodes with the
    same row (same bits) have the same candidate ledger and the same exact
    ``dispersion``, so the later one can never beat the earlier one.

    Tolerance. The score only shortlists: every candidate within
    ``1e-9 * C * (1 + M²)`` of the best score goes on to the exact
    ``dispersion``, which decides, ties to the lowest node id. Here
    ``M = max|L| + max S`` bounds every entry of every candidate ledger, so
    every deviation, square and product either computation forms is at most
    4M² in size. Each of the C terms of a sum is rounded at most about C
    times, at unit roundoff u = 2**-53, and the candidate ledgers themselves
    are rounded once per entry. The errors of centring are second order,
    since the centred rows sum to zero up to rounding. So the score and
    ``C * dispersion - |L - L̄|²`` differ by at most about ``40 C² u M²``,
    and a candidate with the least exact ``dispersion`` scores within twice
    that of the best score. The tolerance exceeds that for any C below
    ``1e-9 / (80 u)``, about 10**5. It scales with the entries, not with the
    best score, which can be exactly 0.
    """
    if not (isinstance(shards, RouteTable) and shards.volume == volume):
        shards = RouteTable(shards, volume)
    ledger = state.cumulative.counts
    scores = shards.centred @ ledger
    scores *= 2.0
    scores += shards.norms
    bound = float(np.abs(ledger).max()) + shards.max_usage
    tolerance = 1e-9 * len(ledger) * (1.0 + bound * bound)
    shortlist = np.flatnonzero(scores <= scores.min() + tolerance)
    best = shortlist[0]
    if len(shortlist) > 1:
        exact = [dispersion(LabelHistogram(ledger + shards.usage[i])) for i in shortlist]
        best = shortlist[exact.index(min(exact))]
    return shards.node_ids[best]


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


def update_ledger(state: RoutingState, batch_counts: LabelHistogram) -> RoutingState:
    """Fold one batch's realized label counts into the ledger."""
    if batch_counts.counts.shape != state.cumulative.counts.shape:
        raise ValueError(
            f"batch counts length {batch_counts.counts.shape[0]} does not match "
            f"ledger length {state.cumulative.counts.shape[0]}"
        )
    return RoutingState(
        cumulative=LabelHistogram(state.cumulative.counts + batch_counts.counts),
        holder=state.holder,
    )


def enumerate_static_routes(num_nodes: int) -> list[tuple[int, ...]]:
    """All cyclic routes fixing node 0 first, in lexicographic order."""
    if not 2 <= num_nodes <= 8:
        raise ValueError(f"route enumeration supports 2..8 nodes, got {num_nodes}")
    return [(0,) + p for p in permutations(range(1, num_nodes))]
