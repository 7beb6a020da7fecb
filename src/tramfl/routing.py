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


def select_next_dynamic(state: RoutingState, shards, volume: int) -> int:
    """Pick the node whose expected usage of ``volume`` samples leaves the
    ledger most uniform.

    Every nonempty shard is a candidate, including the current holder; ties
    break to the lowest node index. Raises StateError if all shards are empty.

    All candidate ledgers (ledger plus :func:`expected_usage`, computed with
    the same arithmetic) are scored with one vectorised variance. Its
    summation order differs from :func:`dispersion`'s, so it only
    shortlists: every candidate within 1e-9 * (1 + max entry**2) of the best
    score, far wider than the rounding error of either sum. The bound scales
    with the entries, not with the best score, which can be exactly 0. The
    exact ``dispersion`` then decides among the shortlist.
    """
    _check_volume(volume)
    nodes = [s for s in sorted(shards, key=lambda s: s.node_id) if s.total > 0]
    if not nodes:
        raise StateError("no nonempty shard to route to")
    totals = np.array([s.total for s in nodes], dtype=np.float64)
    usage = np.array([s.hist.counts for s in nodes]) * (volume / totals)[:, None]
    candidates = state.cumulative.counts + usage
    scores = candidates.var(axis=1)
    tolerance = 1e-9 * (1.0 + float(np.abs(candidates).max()) ** 2)
    shortlist = np.flatnonzero(scores <= scores.min() + tolerance)
    if len(shortlist) == 1:
        return nodes[shortlist[0]].node_id
    exact = [dispersion(LabelHistogram(candidates[i])) for i in shortlist]
    return nodes[shortlist[exact.index(min(exact))]].node_id


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
