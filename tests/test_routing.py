import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from golden_host import _umath
from test_goldens import QUICKSTART, QUICKSTART_SHA256

from tramfl import (
    LabelHistogram,
    RoutingState,
    StateError,
    dispersion,
    expected_usage,
    next_random,
    next_static,
    select_next_dynamic,
    update_ledger,
)
from tramfl import routing
from tramfl.cli import main
from tramfl.partition import DatasetShard
from tramfl.routing import RouteTable


def fake_shard(node_id, counts):
    """Shard stub for routing tests: only hist/total/node_id are consulted."""
    counts = np.asarray(counts, dtype=float)
    return DatasetShard(node_id, np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
                        LabelHistogram(counts), int(counts.sum()))


def naive_next_node(ledger, shard_rows, batch_size, interval):
    """Independent brute-force argmin over candidate variances."""
    best_node, best_var = None, None
    for node_id, counts in shard_rows:
        total = sum(counts)
        if total == 0:
            continue
        scale = batch_size * interval / total
        candidate = [l + scale * c for l, c in zip(ledger, counts)]
        mean = sum(candidate) / len(candidate)
        var = sum((x - mean) ** 2 for x in candidate) / len(candidate)
        if best_var is None or var < best_var:
            best_node, best_var = node_id, var
    return best_node


def test_dispersion_uniform_is_zero():
    assert dispersion(LabelHistogram([5, 5, 5])) == 0.0


def test_dispersion_two_entries():
    assert dispersion(LabelHistogram([0, 3])) == 2.25


def test_dispersion_three_entries():
    assert dispersion(LabelHistogram([1, 2, 3])) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_dispersion_empty_error():
    with pytest.raises(ValueError):
        dispersion(LabelHistogram([]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=10),
    st.integers(min_value=-500, max_value=500),
)
def test_dispersion_translation_invariant(counts, offset):
    base = dispersion(LabelHistogram(counts))
    shifted = dispersion(LabelHistogram(np.asarray(counts, float) + offset))
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)
    assert base >= 0.0


def test_dispersion_zero_iff_uniform():
    assert dispersion(LabelHistogram([7, 7])) == 0.0
    assert dispersion(LabelHistogram([7, 8])) > 0.0


def loop_dispersion(values):
    """Population variance by left-to-right ``+=`` sums, squaring with one
    multiply: what the builtin ``sum`` and ``d * d`` give on Python 3.10 and
    3.11."""
    total = 0.0
    for value in values:
        total += value
    mean = total / len(values)
    squares = 0.0
    for value in values:
        deviation = value - mean
        squares += deviation * deviation
    return squares / len(values)


def compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 and later over floats: Neumaier's
    compensated summation, ported from CPython's ``builtin_sum_impl``."""
    values = iter(values)
    total = start
    for value in values:
        total = total + value
        break
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_port():
    assert sum([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([]) == 0
    assert compensated_sum([0.1] * 10) == 1.0


MIXED = st.one_of(
    st.integers(min_value=0, max_value=10**16).map(float),
    st.floats(min_value=-1e16, max_value=1e16, allow_nan=False),
    st.sampled_from([1e16, -1e16, 1.0, 0.1, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(MIXED, min_size=1, max_size=12))
@example([1e16, 1.0, 1.0, 1.0])
@example([1e16, 1.0, -1e16, 3.0])
@example([0.1] * 10)
@example([1e16])
@example([-0.0])
def test_dispersion_matches_the_left_to_right_loop(values):
    """Bit for bit, including vectors whose naive and compensated sums
    differ, which is where the builtin ``sum`` changed in Python 3.12."""
    assert dispersion(LabelHistogram(values)).hex() == loop_dispersion(values).hex()


def test_quickstart_does_not_depend_on_the_builtin_sum(tmp_path, capsys, monkeypatch):
    """The quickstart's outputs, with every ``sum`` in the router replaced by
    Python 3.12's compensated one: the dynamic routing choices must not move
    with the interpreter."""
    monkeypatch.setattr(routing, "sum", compensated_sum, raising=False)
    assert main(["run", QUICKSTART, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == QUICKSTART_SHA256


@st.composite
def router_matrices(draw):
    """The matrix the router scores: an integer ledger added to the
    :func:`expected_usage` columns of 2-40 nonempty shards over 2-12 classes."""
    num_classes = draw(st.integers(min_value=2, max_value=12))
    row = st.lists(st.integers(min_value=0, max_value=50),
                   min_size=num_classes, max_size=num_classes).filter(any)
    rows = draw(st.lists(row, min_size=2, max_size=40))
    top = draw(st.sampled_from([200, 10**4, 10**8]))
    ledger = draw(st.lists(st.integers(min_value=0, max_value=top),
                           min_size=num_classes, max_size=num_classes))
    volume = draw(st.integers(min_value=1, max_value=64)) * draw(st.integers(min_value=1, max_value=8))
    table = RouteTable([fake_shard(i, counts) for i, counts in enumerate(rows)], volume)
    return np.asarray(ledger, dtype=float)[:, None] + table.usage


@settings(max_examples=200, deadline=None)
@given(router_matrices())
def test_router_variances_have_the_dispersion_bytes(matrix):
    """Each candidate's variance has the bits :func:`dispersion` gives its
    column, so a router that sums pairwise, or in any other order, fails."""
    got = [variance.hex() for variance in routing._variances(matrix).tolist()]
    assert got == [dispersion(LabelHistogram(column)).hex() for column in matrix.T]


@pytest.mark.skipif(not _umath.__cpu_features__.get("AVX512_SKX"),
                    reason="numpy reports no AVX512_SKX on this CPU, so its default "
                           "loops are already the AVX2 ones")
def test_router_variances_have_the_dispersion_bytes_under_avx2_loops(tmp_path):
    """The same property in a fresh interpreter with numpy's AVX-512 loops
    switched off, as an AVX2-only host runs it. The child checks that they
    are off, so a variable that stops taking effect fails instead of testing
    the default loops again."""
    script = (
        "from golden_host import _umath\n"
        "assert not _umath.__cpu_features__['AVX512_SKX'], 'AVX-512 loops are still on'\n"
        "import test_routing\n"
        "test_routing.test_router_variances_have_the_dispersion_bytes()\n"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


def test_expected_usage_direct():
    usage = expected_usage(fake_shard(0, [10, 0]), 2 * 3)
    assert usage.counts.tolist() == [6.0, 0.0]
    usage = expected_usage(fake_shard(0, [5, 5]), 1)
    assert usage.counts.tolist() == [0.5, 0.5]


def test_expected_usage_sums_to_batch_volume():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 40, size=rng.integers(1, 8))
        if counts.sum() == 0:
            continue
        volume = int(rng.integers(1, 50)) * int(rng.integers(1, 8))
        usage = expected_usage(fake_shard(0, counts), volume)
        assert usage.counts.sum() == pytest.approx(volume, rel=1e-12)


def test_expected_usage_empty_shard_error():
    with pytest.raises(ValueError):
        expected_usage(fake_shard(0, [0, 0]), 1)


def _state(ledger, holder=0):
    return RoutingState(LabelHistogram(ledger), holder=holder)


def test_select_prefers_underrepresented_labels():
    # ledger [10, 0]; balanced node adds [1,1] -> var 25, skewed adds [0,2] -> var 16
    shards = [fake_shard(0, [5, 5]), fake_shard(1, [0, 10])]
    assert select_next_dynamic(_state([10.0, 0.0]), shards, 2) == 1


def test_select_tie_breaks_to_lowest_index():
    shards = [fake_shard(i, [4, 4]) for i in range(4)]
    assert select_next_dynamic(_state([3.0, 9.0]), shards, 2) == 0


def test_select_may_keep_current_holder():
    # the holder itself offers the most balancing labels, so it wins again
    shards = [fake_shard(0, [0, 10]), fake_shard(1, [10, 0])]
    state = _state([5.0, 0.0], holder=0)
    assert select_next_dynamic(state, shards, 1) == 0


def test_select_skips_empty_shards():
    shards = [fake_shard(0, [0, 0]), fake_shard(1, [3, 3])]
    assert select_next_dynamic(_state([9.0, 0.0]), shards, 1) == 1
    # One nonempty shard over 10 classes: the router scores a (10, 1) matrix,
    # which numpy sums pairwise, and on this ledger its variance rounds apart
    # from dispersion's; the one candidate is still the choice.
    shards = [fake_shard(0, [0] * 10), fake_shard(1, [0] * 10),
              fake_shard(2, [7, 1, 9, 2, 8, 3, 6, 4, 5, 1])]
    ledger = [2831967, 535264, 12428327, 828430, 67062441, 52561776, 64718951, 25729979,
              61538511, 76405491]
    assert select_next_dynamic(_state(ledger), shards, 48) == 2


def test_select_rejects_a_ledger_of_another_length():
    shards = [fake_shard(0, [3, 1]), fake_shard(1, [1, 3])]
    with pytest.raises(ValueError, match="ledger length 1 does not match the 2 classes"):
        select_next_dynamic(_state([5.0]), shards, 2)


def test_select_all_empty_error():
    shards = [fake_shard(0, [0, 0]), fake_shard(1, [0, 0])]
    with pytest.raises(StateError):
        select_next_dynamic(_state([1.0, 2.0]), shards, 1)


def test_select_alternates_between_complementary_nodes():
    shards = [fake_shard(0, [8, 0]), fake_shard(1, [0, 8])]
    ledger = np.zeros(2)
    holder = 0
    for _ in range(16):
        ledger[holder] += 1.0  # single-label shard, B=1
        chosen = select_next_dynamic(_state(ledger.copy(), holder), shards, 1)
        expected = naive_next_node(ledger.tolist(), [(0, [8, 0]), (1, [0, 8])], 1, 1)
        assert chosen == expected == 1 - holder
        holder = chosen


def test_select_invariant_under_uniform_ledger_offset():
    rng = np.random.default_rng(5)
    shards = [fake_shard(i, rng.integers(0, 20, 4)) for i in range(5)]
    ledger = rng.integers(0, 50, 4).astype(float)
    base_choice = select_next_dynamic(_state(ledger), shards, 3 * 2)
    assert select_next_dynamic(_state(ledger + 1000.0), shards, 3 * 2) == base_choice


def test_select_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        num_classes = int(rng.integers(1, 11))
        num_nodes = int(rng.integers(1, 11))
        ledger = rng.integers(0, 200, num_classes).astype(float)
        rows = [(i, rng.integers(0, 30, num_classes).tolist()) for i in range(num_nodes)]
        if all(sum(counts) == 0 for _, counts in rows):
            rows[0] = (0, [1] * num_classes)
        batch_size = int(rng.integers(1, 65))
        interval = int(rng.integers(1, 9))
        shards = [fake_shard(i, counts) for i, counts in rows]
        got = select_next_dynamic(_state(ledger), shards, batch_size * interval)
        assert got == naive_next_node(ledger.tolist(), rows, batch_size, interval)


def sequential_select(state, shards, volume):
    """The per-candidate loop the vectorised router replaced, kept verbatim as
    its oracle: one exact ``dispersion`` per nonempty shard, in node order."""
    best_node = None
    best_var = None
    for shard in sorted(shards, key=lambda s: s.node_id):
        if shard.total <= 0:
            continue
        candidate = LabelHistogram(state.cumulative.counts + expected_usage(shard, volume).counts)
        var = dispersion(candidate)
        if best_var is None or var < best_var:
            best_node, best_var = shard.node_id, var
    if best_node is None:
        raise StateError("no nonempty shard to route to")
    return best_node


@st.composite
def routing_cases(draw):
    """Ledger, shard rows under shuffled node ids, batch size and interval.

    Rows mix random, empty, uniform, duplicated and permuted label counts, so
    exact and near ties between candidates are common; ledgers are random or
    uniform, with entries up to 1e8.
    """
    num_classes = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(min_value=0, max_value=50),
                   min_size=num_classes, max_size=num_classes)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["random", "empty", "uniform", "duplicate", "permuted"]))
        if kind == "empty":
            rows.append([0] * num_classes)
        elif kind == "uniform":
            rows.append([draw(st.integers(min_value=1, max_value=20))] * num_classes)
        elif kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "permuted" and rows:
            rows.append(list(draw(st.permutations(draw(st.sampled_from(rows))))))
        else:
            rows.append(draw(row))
    node_ids = draw(st.permutations(range(len(rows))))
    top = draw(st.sampled_from([200, 10**4, 10**8]))
    entry = st.integers(min_value=0, max_value=top)
    ledger = draw(st.one_of(
        st.lists(entry, min_size=num_classes, max_size=num_classes),
        entry.map(lambda k: [k] * num_classes),
    ))
    batch_size = draw(st.integers(min_value=1, max_value=64))
    interval = draw(st.integers(min_value=1, max_value=8))
    return ledger, list(zip(node_ids, rows)), batch_size, interval


# Permuted rows under a uniform ledger tie mathematically, and rounding then
# depends on the order of the terms, so these candidates may or may not tie
# exactly; the router must rank them as the sequential oracle does.
PERMUTED_TIES = [
    ([71] * 8, list(enumerate([[46, 4, 8, 34, 10, 16, 29, 8], [4, 46, 8, 8, 29, 34, 16, 10],
                               [29, 34, 16, 4, 10, 46, 8, 8], [4, 46, 16, 8, 8, 10, 29, 34]])),
     54, 3),
    ([0] * 8, list(enumerate([[48, 14, 28, 21, 26, 28, 31, 17], [21, 17, 48, 31, 26, 28, 28, 14]])),
     19, 8),
    ([288] * 8, list(enumerate([[16, 2, 0, 33, 46, 17, 16, 3], [2, 33, 3, 0, 17, 16, 46, 16],
                                [16, 3, 17, 33, 0, 16, 46, 2], [2, 17, 3, 46, 16, 16, 33, 0]])),
     54, 7),
]


@settings(max_examples=400, deadline=None)
@given(routing_cases())
@example(PERMUTED_TIES[0])
@example(PERMUTED_TIES[1])
@example(PERMUTED_TIES[2])
def test_select_matches_sequential_oracle(case):
    ledger, rows, batch_size, interval = case
    shards = [fake_shard(node_id, counts) for node_id, counts in rows]
    state = _state(np.asarray(ledger, dtype=float))
    volume = batch_size * interval
    try:
        expected = sequential_select(state, shards, volume)
    except StateError:
        with pytest.raises(StateError):
            select_next_dynamic(state, shards, volume)
        return
    assert select_next_dynamic(state, shards, volume) == expected


@settings(max_examples=200, deadline=None)
@given(routing_cases(), st.data())
def test_route_table_reuse_matches_sequential_oracle(case, data):
    """One table serves a walk of growing ledgers, as it does for a run."""
    ledger, rows, batch_size, interval = case
    shards = [fake_shard(node_id, counts) for node_id, counts in rows]
    volume = batch_size * interval
    if all(sum(counts) == 0 for _, counts in rows):
        with pytest.raises(StateError):
            RouteTable(shards, volume)
        return
    table = RouteTable(shards, volume)
    ledger = np.asarray(ledger, dtype=float)
    num_classes = len(ledger)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        state = _state(ledger)
        chosen = select_next_dynamic(state, table, volume)
        assert chosen == sequential_select(state, shards, volume)
        top = data.draw(st.sampled_from([50, 10**4, 10**8]))
        step = data.draw(st.one_of(
            st.just(next(s for s in shards if s.node_id == chosen).hist.counts),
            st.integers(min_value=0, max_value=top).map(lambda k: np.full(num_classes, k)),
            st.lists(st.integers(min_value=0, max_value=top),
                     min_size=num_classes, max_size=num_classes),
        ))
        ledger = ledger + np.asarray(step, dtype=float)


def test_route_table_keeps_lowest_id_of_duplicate_rows():
    counts = {0: [1, 5], 1: [5, 1], 2: [1, 5], 3: [5, 1]}
    shards = [fake_shard(i, counts[i]) for i in (3, 0, 2, 1)]
    table = RouteTable(shards, 4)
    assert [s.node_id for s in table] == [0, 1, 2, 3]
    assert table.node_ids == [0, 1, 2, 3]
    assert select_next_dynamic(_state([0.0, 9.0]), table, 4) == 1
    assert select_next_dynamic(_state([9.0, 0.0]), table, 4) == 0


def test_route_table_for_another_volume_gives_the_plain_list_answer():
    # ledger [0, 4]: node 0 adds [v, 0], node 1 adds [v/2, v/2]; node 0
    # wins for 0 < v < 8 and node 1 for v > 8
    shards = [fake_shard(0, [6, 0]), fake_shard(1, [1, 1])]
    table = RouteTable(shards, 1)
    state = _state([0.0, 4.0])
    assert select_next_dynamic(state, table, 1) == select_next_dynamic(state, shards, 1) == 0
    assert select_next_dynamic(state, table, 10) == select_next_dynamic(state, shards, 10) == 1
    with pytest.raises(ValueError, match="volume"):
        select_next_dynamic(state, table, 0)


def _walk(route, holder, steps):
    seen = []
    for _ in range(steps):
        holder = next_static(route, holder)
        seen.append(holder)
    return seen


def test_static_route_cycles_in_order():
    assert _walk((0, 1, 2, 3, 4), 0, 7) == [1, 2, 3, 4, 0, 1, 2]


def test_static_route_from_position():
    assert next_static((0, 2, 1, 3, 4), 2) == 1


def test_static_route_single_node():
    assert _walk((0,), 0, 3) == [0, 0, 0]


def test_static_route_visits_each_node_once_per_cycle():
    seen = _walk((0, 3, 1, 4, 2), 0, 5)
    assert sorted(seen) == [0, 1, 2, 3, 4]


def test_static_route_rejects_holder_off_route():
    with pytest.raises(ValueError):
        next_static((0, 1, 2), 3)


def test_volume_below_one_rejected():
    with pytest.raises(ValueError, match="volume"):
        expected_usage(fake_shard(0, [1, 1]), 0)
    with pytest.raises(ValueError, match="volume"):
        select_next_dynamic(_state([0.0, 0.0]), [fake_shard(0, [1, 1])], 0)


def test_random_forced_choice():
    rng = np.random.default_rng(0)
    assert all(next_random(2, 0, rng) == 1 for _ in range(20))


def test_random_never_returns_holder():
    rng = np.random.default_rng(1)
    assert all(next_random(5, 2, rng) != 2 for _ in range(500))


def test_random_is_uniform_over_neighbors():
    rng = np.random.default_rng(7)
    draws = np.array([next_random(5, 2, rng) for _ in range(10_000)])
    for node in (0, 1, 3, 4):
        assert abs(np.mean(draws == node) - 0.25) < 0.02


def test_random_rejects_degenerate_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        next_random(1, 0, rng)
    with pytest.raises(ValueError):
        next_random(3, 5, rng)


def test_update_ledger_from_zero():
    state = _state([0.0, 0.0])
    updated = update_ledger(state, np.array([3, 1]))
    assert updated.cumulative.counts.tolist() == [3.0, 1.0]
    assert state.cumulative.counts.tolist() == [0.0, 0.0]  # input untouched


def test_update_ledger_commutes():
    a, b = np.array([2, 0, 1]), np.array([0, 5, 1])
    one = update_ledger(update_ledger(_state([1.0, 1.0, 1.0]), a), b)
    two = update_ledger(update_ledger(_state([1.0, 1.0, 1.0]), b), a)
    assert np.array_equal(one.cumulative.counts, two.cumulative.counts)


def test_update_ledger_length_mismatch():
    with pytest.raises(ValueError):
        update_ledger(_state([0.0, 0.0]), np.array([1, 2, 3]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6), st.data())
def test_update_ledger_never_decreases(start, data):
    state = _state(np.asarray(start, float))
    for _ in range(3):
        add = data.draw(
            st.lists(st.integers(min_value=0, max_value=9), min_size=len(start), max_size=len(start))
        )
        updated = update_ledger(state, np.array(add))
        assert np.all(updated.cumulative.counts >= state.cumulative.counts)
        state = updated
