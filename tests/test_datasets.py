import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tramfl import (
    ArchSpec,
    LabeledDataset,
    ParseError,
    StateError,
    draw_minibatch,
    generate_synthetic,
    generate_synthetic_split,
    init_he,
    load_csv,
    loss_and_grad,
    save_csv,
    sgd_step,
    evaluate,
)
from tramfl.partition import DatasetShard, split_contiguous_labels


def _assert_same_dataset(a, b):
    assert (a.num_classes, a.dims) == (b.num_classes, b.dims)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)


def test_generate_counts_and_histogram():
    ds = generate_synthetic(2, 2, 5, 3.0, 7)
    assert len(ds) == 10
    assert np.bincount(ds.labels).tolist() == [5, 5]


def test_generate_deterministic():
    a = generate_synthetic(3, 4, 6, 2.0, 7)
    b = generate_synthetic(3, 4, 6, 2.0, 7)
    _assert_same_dataset(a, b)


def test_generate_seeds_differ():
    a = generate_synthetic(3, 4, 6, 2.0, 7)
    b = generate_synthetic(3, 4, 6, 2.0, 8)
    assert not np.array_equal(a.features, b.features)


@pytest.mark.parametrize(
    "args",
    [(1, 2, 5, 3.0, 0), (2, 0, 5, 3.0, 0), (2, 2, 0, 3.0, 0), (2, 2, 5, 0.0, 0)],
)
def test_generate_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        generate_synthetic(*args)


def test_generate_centralized_training_oracle():
    # frozen from a reference run: plain SGD on the pooled data clears 0.9
    train, test = generate_synthetic_split(10, 8, 100, 50, 4.0, 1)
    shard = split_contiguous_labels(train, 1)[0]
    params = init_he(ArchSpec((8, 32, 10)), 9)
    rng = np.random.default_rng(9)
    for _ in range(2000):
        idx, _ = draw_minibatch(shard, 16, rng)
        _, grad = loss_and_grad(params, shard.features[idx], shard.labels[idx])
        params = sgd_step(params, grad, 0.05)
    accuracy, _ = evaluate(params, test)
    assert accuracy > 0.9


def test_generate_split_shares_class_means():
    train, test = generate_synthetic_split(10, 3, 30, 10, 5.0, 2)
    assert np.bincount(train.labels).tolist() == [30] * 10
    assert np.bincount(test.labels).tolist() == [10] * 10
    # class centroids of the two halves agree (same blobs, unit noise)
    for c in range(10):
        mean_train = np.mean(train.features[train.labels == c], axis=0)
        mean_test = np.mean(test.features[test.labels == c], axis=0)
        assert np.linalg.norm(mean_train - mean_test) < 2.5


def test_load_csv_basic(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv(path)
    assert len(ds) == 2
    assert ds.dims == 2
    assert ds.num_classes == 2
    assert ds.features[1].tolist() == [3.0, 4.0]


def test_csv_roundtrip(tmp_path):
    ds = generate_synthetic(3, 4, 7, 2.5, 13)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    _assert_same_dataset(load_csv(path), ds)


def test_csv_roundtrip_with_header(tmp_path):
    ds = generate_synthetic(2, 2, 3, 2.5, 13)
    path = tmp_path / "round.csv"
    save_csv(ds, path, header=True)
    assert path.read_text().startswith("label,f1,f2\n")
    _assert_same_dataset(load_csv(path, has_header=True), ds)


def test_csv_empty_file_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


def test_csv_non_numeric_feature(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,oops\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)


def test_csv_negative_label(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("-1,1.0\n")
    with pytest.raises(ParseError, match="negative"):
        load_csv(path)


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "frac.csv"
    path.write_text("1.5,1.0\n")
    with pytest.raises(ParseError, match="label"):
        load_csv(path)


def _load_text(tmp_path, text):
    return _load_bytes(tmp_path, text.encode("utf-8"))


def _load_bytes(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    return load_csv(path)


@pytest.mark.parametrize("make, error, fragment", [
    (lambda tmp: LabeledDataset(np.zeros((3, 2)), [0, 1], 2), ValueError, "got (3, 2) and (2,)"),
    (lambda tmp: LabeledDataset(np.zeros(2), [0, 1], 2), ValueError, "got (2,) and (2,)"),
    (lambda tmp: LabeledDataset(np.zeros((2, 2)), [5, 0], 3), ValueError, "0..2"),
    # a negative label would be scored and trained as the last class
    (lambda tmp: LabeledDataset(np.zeros((2, 2)), [-1, 0], 3), ValueError, "0..2"),
    # a shard's histogram is counted from its rows, so rows it does not hold
    # and labels past its classes are refused rather than routed on
    (lambda tmp: DatasetShard(np.zeros((3, 2)), [0, 1], 2, node_id=0), ValueError, "got (3, 2) and (2,)"),
    (lambda tmp: DatasetShard(np.zeros((2, 2)), [2, 0], 2, node_id=0), ValueError, "0..1"),
    # the blank line 2 is skipped but still counted
    (lambda tmp: _load_text(tmp, "0,1.0\n\n1\n"), ParseError, "line 3: expected 'label,f1"),
    (lambda tmp: _load_text(tmp, "0,1.0\n1,inf\n"), ParseError, "line 2: non-finite"),
    # int() and float() accept underscores and non-ASCII digits: 1_0 read as class 10
    (lambda tmp: _load_text(tmp, "0,0,0\n1_0,0,0\n"), ParseError,
     "line 2: label must be an integer, got '1_0'"),
    (lambda tmp: _load_text(tmp, "0,1_0.5,0\n"), ParseError, "line 1: non-numeric feature"),
    (lambda tmp: _load_text(tmp, "0,0\n\u0663,0\n"), ParseError,
     "line 2: label must be an integer"),
    (lambda tmp: _load_text(tmp, "0,\u0661.5\n"), ParseError, "line 1: non-numeric feature"),
    # a label, like a config integer, takes no sign +
    (lambda tmp: _load_text(tmp, "0,0\n+3,0\n"), ParseError, "line 2: label must be an integer, got '+3'"),
    # nor a feature, which a config float does not take either
    (lambda tmp: _load_text(tmp, "0,0\n1,+1.5\n"), ParseError, "line 2: non-numeric feature"),
    (lambda tmp: _load_bytes(tmp, b"0,1.0\n1,2\xff.0\n"), ParseError,
     "data.csv: line 2: byte 0xff is not UTF-8"),
    # an empty half would fail only at its first use
    (lambda tmp: generate_synthetic_split(2, 2, 0, 5, 1.0, 0), ValueError, "per_class: must be >= 1, got 0"),
    (lambda tmp: generate_synthetic_split(2, 2, 5, 0, 1.0, 0), ValueError, "test_per_class: must be >= 1, got 0"),
    # an infinite separation used to give features that are not finite
    (lambda tmp: generate_synthetic(2, 2, 5, float("inf"), 0), ValueError,
     "separation: must be finite, got inf"),
], ids=["shape_mismatch", "features_not_2d", "label_above_range", "negative_label",
        "shard_shape_mismatch", "shard_label_at_num_classes", "one_field_after_blank_line",
        "non_finite_feature", "underscore_label", "underscore_feature", "arabic_indic_label",
        "arabic_indic_feature", "plus_label", "plus_feature", "not_utf8", "no_train_rows", "no_test_rows",
        "separation_inf"])
def test_dataset_checks(tmp_path, make, error, fragment):
    with pytest.raises(error) as info:
        make(tmp_path)
    assert fragment in str(info.value)


def test_histogram_direct_count():
    shard = DatasetShard(np.zeros((4, 1)), [0, 0, 1, 2], 3, node_id=0)
    assert shard.hist.counts.tolist() == [2.0, 1.0, 1.0]
    assert shard.total == 4


def test_histogram_empty_dataset():
    shard = DatasetShard(np.zeros((0, 1)), [], 3, node_id=0)
    assert shard.hist.counts.tolist() == [0.0, 0.0, 0.0]
    assert shard.total == 0


def test_histogram_benchmark_scale_shard(mnist_shaped):
    shards = split_contiguous_labels(mnist_shaped, 3)
    assert shards[2].hist.counts.sum() == 24000


@given(st.lists(st.integers(min_value=0, max_value=4), max_size=60))
def test_histogram_sums_to_sample_count(labels):
    shard = DatasetShard(np.zeros((len(labels), 1)), labels, 5, node_id=0)
    assert shard.hist.counts.sum() == shard.total == len(labels)


def _single_label_shard(label, num_classes, count):
    return DatasetShard(np.zeros((count, 2)), np.full(count, label), num_classes, node_id=0)


def test_minibatch_single_label_counts():
    shard = _single_label_shard(3, 4, 10)
    _, counts = draw_minibatch(shard, 4, np.random.default_rng(0))
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [0, 0, 0, 4]
    # the shard's class count, not the largest label drawn, fixes the length
    _, counts = draw_minibatch(_single_label_shard(0, 4, 10), 6, np.random.default_rng(0))
    assert counts.tolist() == [6, 0, 0, 0]
    assert counts.sum() == 6


def test_minibatch_exhaustion_is_permutation():
    ds = generate_synthetic(2, 2, 5, 3.0, 1)
    shard = split_contiguous_labels(ds, 1)[0]
    idx, counts = draw_minibatch(shard, shard.total, np.random.default_rng(2))
    assert collections.Counter(idx.tolist()) == collections.Counter(range(shard.total))
    assert counts.sum() == shard.total


def test_minibatch_small_shard_falls_back_to_replacement():
    shard = _single_label_shard(0, 2, 3)
    idx, counts = draw_minibatch(shard, 5, np.random.default_rng(0))
    assert len(idx) == 5
    assert counts.sum() == 5


def test_minibatch_empty_shard_error():
    shard = DatasetShard(np.zeros((0, 2)), [], 2, node_id=0)
    with pytest.raises(StateError):
        draw_minibatch(shard, 1, np.random.default_rng(0))


def test_minibatch_rejects_zero_batch():
    shard = _single_label_shard(0, 2, 3)
    with pytest.raises(ValueError, match="batch_size: must be >= 1, got 0"):
        draw_minibatch(shard, 0, np.random.default_rng(0))


def test_minibatch_advances_rng():
    ds = generate_synthetic(2, 2, 50, 3.0, 1)
    shard = split_contiguous_labels(ds, 1)[0]
    rng = np.random.default_rng(5)
    first, _ = draw_minibatch(shard, 10, rng)
    second, _ = draw_minibatch(shard, 10, rng)
    assert first.tolist() != second.tolist()


def test_minibatch_deterministic_given_state():
    ds = generate_synthetic(2, 2, 50, 3.0, 1)
    shard = split_contiguous_labels(ds, 1)[0]
    a, _ = draw_minibatch(shard, 10, np.random.default_rng(5))
    b, _ = draw_minibatch(shard, 10, np.random.default_rng(5))
    assert a.tolist() == b.tolist()


def test_minibatch_label_mean_converges():
    # balanced two-label shard: expected count per label is B * L_j / N_j = 5
    shard = DatasetShard(np.zeros((100, 1)), [0] * 50 + [1] * 50, 2, node_id=0)
    rng = np.random.default_rng(11)
    draws = 10_000
    totals = np.zeros(2)
    for _ in range(draws):
        _, counts = draw_minibatch(shard, 10, rng)
        assert counts.sum() == 10
        totals += counts
    means = totals / draws
    # binomial standard error of the mean at p=0.5, B=10
    three_sigma = 3 * np.sqrt(10 * 0.25) / np.sqrt(draws)
    assert abs(means[0] - 5.0) <= three_sigma
    assert abs(means[1] - 5.0) <= three_sigma
    assert abs(means[0] - 5.0) <= 0.15


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_minibatch_counts_sum_to_batch_size(batch_size, seed):
    ds = generate_synthetic(3, 2, 8, 3.0, 1)
    shard = split_contiguous_labels(ds, 1)[0]
    _, counts = draw_minibatch(shard, batch_size, np.random.default_rng(seed))
    assert counts.sum() == batch_size
