import numpy as np
import pytest

from tramfl import (
    StateError,
    generate_synthetic,
    split_contiguous_labels,
    split_exponential_binary,
    split_random_k_labels,
)
from tramfl import ConfigError, parse_config_text, partition
from tramfl.partition import PartitionPlan, make_shards

REVIEW_TABLE_V3 = [[10125, 2625], [2000, 4750], [375, 5125]]
REVIEW_TABLE_V5 = [[7875, 1125], [2875, 2375], [1125, 2875], [375, 3000], [250, 3125]]


def _label_set(shard):
    return set(np.flatnonzero(shard.hist.counts).tolist())


def test_contiguous_label_groups_10_over_3():
    ds = generate_synthetic(10, 2, 4, 2.0, 0)
    shards = split_contiguous_labels(ds, 3)
    assert [_label_set(s) for s in shards] == [{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}]


def test_contiguous_benchmark_totals(mnist_shaped):
    shards = split_contiguous_labels(mnist_shaped, 3)
    assert [s.total for s in shards] == [18000, 18000, 24000]


def test_contiguous_singletons():
    ds = generate_synthetic(10, 2, 3, 2.0, 0)
    shards = split_contiguous_labels(ds, 10)
    assert [_label_set(s) for s in shards] == [{c} for c in range(10)]


def test_contiguous_too_many_nodes():
    ds = generate_synthetic(3, 2, 3, 2.0, 0)
    with pytest.raises(ValueError):
        split_contiguous_labels(ds, 4)


def test_contiguous_is_a_partition():
    ds = generate_synthetic(7, 2, 9, 2.0, 5)
    shards = split_contiguous_labels(ds, 3)
    assert sum(s.total for s in shards) == len(ds)
    merged = sum(s.hist.counts for s in shards)
    assert merged.tolist() == np.bincount(ds.labels).tolist()
    # the blob rows are all distinct, so a row identifies its sample
    seen = [(y, *row) for s in shards for y, row in zip(s.labels.tolist(), s.features.tolist())]
    assert len(seen) == len(set(seen)) == len(ds)
    assert set(seen) == {(y, *row) for y, row in zip(ds.labels.tolist(), ds.features.tolist())}


def test_contiguous_shard_invariants():
    ds = generate_synthetic(5, 2, 6, 2.0, 5)
    for shard in split_contiguous_labels(ds, 2):
        assert shard.total == len(shard.labels) == len(shard.features) == shard.hist.counts.sum()
        assert shard.hist.counts.tolist() == np.bincount(shard.labels, minlength=5).tolist()


def test_random_k_forced_perfect_partition():
    ds = generate_synthetic(10, 2, 3, 2.0, 0)
    shards = split_random_k_labels(ds, 5, 2, 2, np.random.default_rng(1))
    merged = sum(s.hist.counts for s in shards)
    assert merged.tolist() == np.bincount(ds.labels).tolist()  # each label exactly once


def test_random_k_single_node_identity():
    ds = generate_synthetic(4, 2, 5, 2.0, 0)
    shards = split_random_k_labels(ds, 1, 4, 4, np.random.default_rng(1))
    assert len(shards) == 1
    assert np.array_equal(shards[0].features, ds.features)
    assert np.array_equal(shards[0].labels, ds.labels)


def test_random_k_coverage_over_many_draws():
    ds = generate_synthetic(10, 2, 2, 2.0, 0)
    all_labels = set(range(10))
    for seed in range(1000):
        shards = split_random_k_labels(ds, 5, 2, 5, np.random.default_rng(seed))
        covered = set().union(*[_label_set(s) for s in shards])
        assert covered == all_labels
        for shard in shards:
            sizes = len(_label_set(shard))
            assert 2 <= sizes <= 5


def test_random_k_coverage_unattainable():
    ds = generate_synthetic(10, 2, 2, 2.0, 0)
    with pytest.raises(ValueError):
        split_random_k_labels(ds, 3, 1, 2, np.random.default_rng(0))


@pytest.mark.parametrize("make, error, fragment", [
    (lambda ds: split_contiguous_labels(ds, 0), ValueError, "nodes: must be >= 1, got 0"),
    (lambda ds: split_random_k_labels(ds, 2, 1, 1, np.random.default_rng(0)),
     StateError, "no full label coverage after 1 "),
    (lambda ds: split_exponential_binary(ds, 2, counts=[[1, 1]]),
     ValueError, "counts: 1 rows for 2 nodes"),
    (lambda ds: split_exponential_binary(ds, 2, counts=[[1, 1], [1]]),
     ValueError, "two nonnegative ints"),
    (lambda ds: split_exponential_binary(ds, 2, rate=0.0), ValueError, "rate: must be > 0"),
], ids=["contiguous_nodes", "coverage_cap", "counts_rows", "counts_row_shape", "rate"])
def test_partition_checks(monkeypatch, make, error, fragment):
    # Two nodes of one label each cover both classes with odds 1/2 per draw;
    # seed 0's first draw gives both nodes label 1.
    monkeypatch.setattr(partition, "MAX_COVERAGE_ATTEMPTS", 1)
    with pytest.raises(error, match=fragment):
        make(generate_synthetic(2, 2, 3, 2.0, 0))


def test_random_k_bad_range():
    ds = generate_synthetic(4, 2, 2, 2.0, 0)
    with pytest.raises(ValueError):
        split_random_k_labels(ds, 2, 3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        split_random_k_labels(ds, 2, 1, 5, np.random.default_rng(0))


def test_random_k_duplicates_shared_labels():
    ds = generate_synthetic(4, 2, 6, 2.0, 0)
    full = np.bincount(ds.labels)
    # find a seed where some label is held by more than one node
    for seed in range(50):
        shards = split_random_k_labels(ds, 3, 2, 3, np.random.default_rng(seed))
        holders = np.sum([s.hist.counts > 0 for s in shards], axis=0)
        if np.any(holders > 1):
            break
    else:
        pytest.fail("no shared label found in 50 seeds")
    for shard in shards:
        for label in _label_set(shard):
            assert shard.hist.counts[label] == full[label]  # all samples, not a slice


def test_random_k_deterministic():
    ds = generate_synthetic(6, 2, 4, 2.0, 0)
    a = split_random_k_labels(ds, 3, 2, 4, np.random.default_rng(9))
    b = split_random_k_labels(ds, 3, 2, 4, np.random.default_rng(9))
    assert np.array_equal([s.hist.counts for s in a], [s.hist.counts for s in b])


def test_exponential_table_v3(review_shaped):
    shards = split_exponential_binary(review_shaped, 3, counts=REVIEW_TABLE_V3)
    assert [s.hist.counts.tolist() for s in shards] == [
        [10125.0, 2625.0],
        [2000.0, 4750.0],
        [375.0, 5125.0],
    ]
    assert sum(s.total for s in shards) == 25000


def test_exponential_table_v5(review_shaped):
    shards = split_exponential_binary(review_shaped, 5, counts=REVIEW_TABLE_V5)
    assert [s.hist.counts.tolist() for s in shards] == [
        [float(a), float(b)] for a, b in REVIEW_TABLE_V5
    ]


def test_exponential_table_exceeding_availability():
    ds = generate_synthetic(2, 2, 10, 2.0, 0)
    with pytest.raises(ValueError, match="counts: the nodes ask for 13 samples of class 0, "
                                         "the training set holds 10"):
        split_exponential_binary(ds, 2, counts=[[8, 5], [5, 5]])


def test_exponential_requires_two_classes():
    ds = generate_synthetic(3, 2, 5, 2.0, 0)
    with pytest.raises(ValueError):
        split_exponential_binary(ds, 2, rate=1.0)


def test_exponential_needs_exactly_one_mode():
    ds = generate_synthetic(2, 2, 5, 2.0, 0)
    with pytest.raises(ValueError):
        split_exponential_binary(ds, 2)
    with pytest.raises(ValueError):
        split_exponential_binary(ds, 2, rate=1.0, counts=[[5, 5], [5, 5]])


@pytest.mark.parametrize("rate", [0.3, 1.0, 1.6, 4.0])
def test_exponential_analytic_conserves_classes(rate):
    ds = generate_synthetic(2, 2, 500, 2.0, 1)
    shards = split_exponential_binary(ds, 4, rate=rate)
    merged = sum(s.hist.counts for s in shards)
    assert merged.tolist() == [500.0, 500.0]
    for shard in shards:
        assert np.all(shard.hist.counts >= 0)


def test_exponential_analytic_skews_opposite_ways():
    ds = generate_synthetic(2, 2, 1000, 2.0, 1)
    shards = split_exponential_binary(ds, 4, rate=1.2)
    class0 = [s.hist.counts[0] for s in shards]
    class1 = [s.hist.counts[1] for s in shards]
    assert class0 == sorted(class0, reverse=True)  # density decays with node index
    assert class0[0] > class0[-1]
    assert class1[0] < class1[-1]


def test_exponential_assigns_in_dataset_order(review_shaped):
    shards = split_exponential_binary(review_shaped, 3, counts=REVIEW_TABLE_V3)
    first_class0 = review_shaped.features[review_shaped.labels == 0][:10125]
    got_class0 = shards[0].features[shards[0].labels == 0]
    assert np.array_equal(got_class0, first_class0)


def test_make_shards_dispatch(mnist_shaped):
    plan = PartitionPlan("contiguous", 3)
    assert [s.total for s in make_shards(mnist_shaped, plan)] == [18000, 18000, 24000]
    plan = PartitionPlan("random_k", 5, k_min=2, k_max=5, seed=8)
    a = make_shards(mnist_shaped, plan)
    b = make_shards(mnist_shaped, plan)
    assert np.array_equal([s.hist.counts for s in a], [s.hist.counts for s in b])
    with pytest.raises(ValueError):
        make_shards(mnist_shaped, PartitionPlan("nope", 3))


_PARITY_CONFIG = """
[dataset]
kind = synthetic
classes = {classes}
dims = 2
per_class = 10
separation = 3.0

[partition]
{partition}

[learner]
layers = 2,{classes}
eta = 0.1
batch = 4

[run]
iterations = 10

[policies]
dynamic = dynamic
"""


# (id, classes, [partition] body, the same plan as a library call on a
# dataset of 10 rows per class): one case per rule that a config can break.
PARITY = [
    ("k_range", 4, "scheme = random_k\nnodes = 3\nk_min = 3\nk_max = 2",
     lambda ds: split_random_k_labels(ds, 3, 3, 2, np.random.default_rng(0))),
    ("rate", 2, "scheme = exponential\nnodes = 3\nrate = 0",
     lambda ds: split_exponential_binary(ds, 3, rate=0.0)),
    ("counts_rows", 2, "scheme = table\nnodes = 3\ncounts = 1,1; 1,1",
     lambda ds: split_exponential_binary(ds, 3, counts=[[1, 1], [1, 1]])),
    ("counts_row_shape", 2, "scheme = table\nnodes = 2\ncounts = 1,1; 1,-1",
     lambda ds: split_exponential_binary(ds, 2, counts=[[1, 1], [1, -1]])),
    ("contiguous_fit", 4, "scheme = contiguous\nnodes = 5",
     lambda ds: split_contiguous_labels(ds, 5)),
    ("k_max_fit", 4, "scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 5",
     lambda ds: split_random_k_labels(ds, 3, 1, 5, np.random.default_rng(0))),
    ("coverage", 4, "scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 1",
     lambda ds: split_random_k_labels(ds, 3, 1, 1, np.random.default_rng(0))),
    ("two_classes", 4, "scheme = exponential\nnodes = 3\nrate = 1.0",
     lambda ds: split_exponential_binary(ds, 3, rate=1.0)),
    ("two_classes_table", 3, "scheme = table\nnodes = 2\ncounts = 1,1; 1,1",
     lambda ds: split_exponential_binary(ds, 2, counts=[[1, 1], [1, 1]])),
    ("table_fit", 2, "scheme = table\nnodes = 2\ncounts = 8,5; 5,5",
     lambda ds: split_exponential_binary(ds, 2, counts=[[8, 5], [5, 5]])),
]


@pytest.mark.parametrize("classes, body, split", [case[1:] for case in PARITY],
                         ids=[case[0] for case in PARITY])
def test_library_and_config_give_one_message(classes, body, split):
    with pytest.raises(ConfigError) as config_error:
        parse_config_text(_PARITY_CONFIG.format(classes=classes, partition=body))
    with pytest.raises(ValueError) as library_error:
        split(generate_synthetic(classes, 2, 10, 3.0, 0))
    assert str(config_error.value) == f"partition.{library_error.value}"


# Each field a scheme needs but lacks, an unknown scheme, and nodes >= 1, which
# a config cannot reach because it takes nodes >= 2 first.
@pytest.mark.parametrize("make, message", [
    (lambda: PartitionPlan("contiguous", 0), "nodes: must be >= 1, got 0"),
    (lambda: PartitionPlan("random_k", 3), "k_min: missing required key"),
    (lambda: PartitionPlan("random_k", 3, k_min=1), "k_max: missing required key"),
    (lambda: PartitionPlan("exponential", 3), "rate: missing required key"),
    (lambda: PartitionPlan("table", 3), "counts: missing required key"),
    (lambda: PartitionPlan("nope", 3),
     "scheme: expected one of ('contiguous', 'random_k', 'exponential', 'table'), got 'nope'"),
], ids=["nodes", "k_min", "k_max", "rate", "counts", "scheme"])
def test_plan_names_the_field_at_fault(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
