from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tramfl import (
    ArchSpec,
    LabeledDataset,
    ModelParams,
    average_params,
    evaluate,
    finite_diff_check,
    init_he,
    loss_and_grad,
    sgd_step,
)
from tramfl.learner import _Workspace


def _random_batch(rng, dims, num_classes, size):
    """(features, labels), drawn row by row in the interleaved order."""
    rows = [(rng.standard_normal(dims), int(rng.integers(num_classes))) for _ in range(size)]
    return np.stack([f for f, _ in rows]), np.array([y for _, y in rows])


def _zero_params(arch):
    return ModelParams(arch, np.zeros(arch.num_params()))


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchSpec((4,))
    with pytest.raises(ValueError):
        ArchSpec((4, 0, 3))
    assert ArchSpec((4, 8, 3)).num_params() == 4 * 8 + 8 * 3 + 8 + 3


def test_arch_sizes_are_integers_not_truncated_floats():
    """ArchSpec((8.7, 2.2)) used to become (8, 2)."""
    with pytest.raises(TypeError):
        ArchSpec((8.7, 2.2))
    sizes = ArchSpec((np.int64(8), np.int32(2))).layer_sizes
    assert sizes == (8, 2) and all(type(n) is int for n in sizes)


def test_init_he_deterministic():
    arch = ArchSpec((4, 3))
    assert np.array_equal(init_he(arch, 1).values, init_he(arch, 1).values)
    assert not np.array_equal(init_he(arch, 1).values, init_he(arch, 2).values)


def test_init_he_biases_zero():
    arch = ArchSpec((5, 7, 3))
    params = init_he(arch, 42)
    num_weights = 5 * 7 + 7 * 3
    assert np.all(params.values[num_weights:] == 0.0)
    assert np.any(params.values[:num_weights] != 0.0)


def test_init_he_weight_scale():
    params = init_he(ArchSpec((100, 100)), 7)
    weights = params.values[: 100 * 100]
    target = np.sqrt(2.0 / 100)
    assert 0.9 * target < weights.std() < 1.1 * target
    assert abs(weights.mean()) < 0.1 * target


def test_loss_zero_params_is_log_classes():
    rng = np.random.default_rng(0)
    params = _zero_params(ArchSpec((3, 10)))
    loss, _ = loss_and_grad(params, *_random_batch(rng, 3, 10, 6))
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_loss_empty_batch_error():
    with pytest.raises(ValueError):
        loss_and_grad(_zero_params(ArchSpec((3, 2))), np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_loss_duplicated_batch_invariant():
    rng = np.random.default_rng(3)
    params = init_he(ArchSpec((4, 6, 3)), 1)
    features, labels = _random_batch(rng, 4, 3, 5)
    loss_a, grad_a = loss_and_grad(params, features, labels)
    loss_b, grad_b = loss_and_grad(params, np.vstack([features, features]),
                                   np.concatenate([labels, labels]))
    assert loss_b == pytest.approx(loss_a, rel=1e-12)
    assert np.allclose(grad_a, grad_b, atol=1e-12)


def test_gradient_matches_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_he(ArchSpec((4, 8, 3)), seed)
        batch = _random_batch(rng, 4, 3, 8)
        assert finite_diff_check(params, *batch, 1e-5) < 1e-4


def test_gradient_check_up_to_500_params():
    rng = np.random.default_rng(77)
    for sizes in ((5, 3), (6, 10, 4), (10, 12, 8)):
        arch = ArchSpec(sizes)
        assert arch.num_params() <= 500
        params = init_he(arch, 70)
        batch = _random_batch(rng, sizes[0], sizes[-1], 6)
        assert finite_diff_check(params, *batch, 1e-5) < 1e-4


def test_linear_model_finite_diff_is_tight():
    rng = np.random.default_rng(1)
    params = init_he(ArchSpec((3, 4)), 2)
    batch = _random_batch(rng, 3, 4, 6)
    assert finite_diff_check(params, *batch, 1e-5) < 1e-6


def test_finite_diff_rejects_zero_eps():
    params = _zero_params(ArchSpec((2, 2)))
    with pytest.raises(ValueError):
        finite_diff_check(params, np.ones((1, 2)), np.array([0]), 0.0)


def test_sgd_zero_gradient_fixed_point():
    params = init_he(ArchSpec((3, 2)), 4)
    stepped = sgd_step(ModelParams(params.arch, params.values.copy()),
                       np.zeros_like(params.values), 0.5)
    assert np.array_equal(stepped.values, params.values)


def test_sgd_direct_arithmetic():
    arch = ArchSpec((1, 1))
    params = ModelParams(arch, np.array([1.0, 2.0]))
    stepped = sgd_step(params, np.array([0.5, 0.5]), 1.0)
    assert stepped.values.tolist() == [0.5, 1.5]


def test_sgd_two_steps_equal_summed_gradient():
    rng = np.random.default_rng(8)
    arch = ArchSpec((3, 4))
    params = ModelParams(arch, rng.standard_normal(arch.num_params()))
    g1 = rng.standard_normal(arch.num_params())
    g2 = rng.standard_normal(arch.num_params())
    two = sgd_step(sgd_step(ModelParams(arch, params.values.copy()), g1, 0.1), g2, 0.1)
    one = sgd_step(ModelParams(arch, params.values.copy()), g1 + g2, 0.1)
    assert np.allclose(two.values, one.values, atol=1e-12)


def test_sgd_layout_mismatch():
    params = _zero_params(ArchSpec((3, 2)))
    with pytest.raises(ValueError):
        sgd_step(params, np.zeros(3), 0.1)


def test_sgd_updates_in_place():
    params = init_he(ArchSpec((3, 2)), 4)
    grad = np.linspace(-1.0, 1.0, params.values.size)
    before, values = params.values.copy(), params.values
    assert sgd_step(params, grad, 0.1) is params
    assert params.values is values
    assert values.tobytes() == (before - 0.1 * grad).tobytes()


@pytest.mark.parametrize("make, fragment", [
    (lambda: ModelParams(ArchSpec((3, 2)), np.zeros(7)), "expected 8 parameters"),
    (lambda: sgd_step(_zero_params(ArchSpec((3, 2))), np.zeros(8), 0.0), "eta must be > 0"),
], ids=["params_length", "eta"])
def test_learner_checks(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


def test_params_values_cannot_be_rebound():
    params = init_he(ArchSpec((3, 2)), 4)
    with pytest.raises(FrozenInstanceError):
        params.values = np.zeros(params.arch.num_params())


def test_layers_are_views_that_see_an_sgd_step():
    params = init_he(ArchSpec((3, 4, 2)), 4)
    layers = params.layers
    weights, biases = layers
    assert [w.shape for w in weights] == [(3, 4), (4, 2)]
    assert [b.shape for b in biases] == [(4,), (2,)]
    assert all(np.shares_memory(v, params.values) for v in weights + biases)
    before = params.values.copy()
    sgd_step(params, np.ones(params.arch.num_params()), 0.5)
    assert params.layers is layers
    assert weights[0].tobytes() == (before[:12] - 0.5).tobytes()
    assert biases[1].tolist() == [-0.5, -0.5]


def test_workspace_gradient_is_overwritten_by_next_call():
    rng = np.random.default_rng(5)
    params = init_he(ArchSpec((4, 6, 3)), 2)
    first, second = _random_batch(rng, 4, 3, 5), _random_batch(rng, 4, 3, 5)
    workspace = _Workspace(params.arch, 5)
    _, grad = loss_and_grad(params, *first, workspace=workspace)
    kept = grad.copy()
    _, again = loss_and_grad(params, *second, workspace=workspace)
    assert again is grad
    assert grad.tobytes() == loss_and_grad(params, *second)[1].tobytes()
    assert grad.tobytes() != kept.tobytes()


def test_workspace_rejects_another_architecture():
    workspace = _Workspace(ArchSpec((3, 2)), 1)
    with pytest.raises(ValueError, match="workspace is for"):
        loss_and_grad(_zero_params(ArchSpec((3, 4))), np.ones((1, 3)), np.array([0]),
                      workspace=workspace)


def test_workspace_rejects_another_row_count():
    rng = np.random.default_rng(5)
    params = init_he(ArchSpec((4, 6, 3)), 2)
    workspace = _Workspace(params.arch, 5)
    features, labels = _random_batch(rng, 4, 3, 7)
    with pytest.raises(ValueError, match="5 rows, batch has 7"):
        loss_and_grad(params, features, labels, workspace=workspace)
    ds = LabeledDataset(features, labels, 3, 4)
    with pytest.raises(ValueError, match="5 rows, batch has 7"):
        evaluate(params, ds, workspace=workspace)


def test_sgd_decreases_loss_with_small_enough_eta():
    rng = np.random.default_rng(12)
    params = init_he(ArchSpec((4, 6, 3)), 3)
    batch = _random_batch(rng, 4, 3, 8)
    loss, grad = loss_and_grad(params, *batch)
    assert np.linalg.norm(grad) > 1e-12
    eta = 0.5
    for _ in range(60):
        stepped = sgd_step(ModelParams(params.arch, params.values.copy()), grad, eta)
        stepped_loss, _ = loss_and_grad(stepped, *batch)
        if stepped_loss < loss:
            break
        eta /= 2
    else:
        pytest.fail("no step size decreased the loss")


def _balanced_dataset(rng, num_classes, per_class, dims):
    features = [rng.standard_normal(dims) for _ in range(num_classes * per_class)]
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(np.stack(features), labels, num_classes, dims)


def test_evaluate_zero_params_balanced():
    rng = np.random.default_rng(2)
    ds = _balanced_dataset(rng, 10, 7, 3)
    accuracy, loss = evaluate(_zero_params(ArchSpec((3, 10))), ds)
    assert accuracy == 0.1  # argmax ties resolve to class 0; the set is balanced
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_evaluate_perfect_separation():
    arch = ArchSpec((2, 2))
    values = np.zeros(arch.num_params())
    values[:4] = np.array([[10.0, -10.0], [-10.0, 10.0]]).ravel()
    params = ModelParams(arch, values)
    accuracy, _ = evaluate(params, LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2, 2))
    assert accuracy == 1.0


def test_forward_large_logits_stable():
    # An identity scaled so that the logits (1000, 0) overflow exp unless
    # they are shifted by their row maximum.
    arch = ArchSpec((2, 2))
    values = np.zeros(arch.num_params())
    values[:4] = np.eye(2).ravel() * 500.0
    params = ModelParams(arch, values)
    accuracy, loss = evaluate(params, LabeledDataset(np.array([[2.0, 0.0]]), [0], 2, 2))
    assert accuracy == 1.0
    assert loss == pytest.approx(0.0, abs=1e-9)
    loss, grad = loss_and_grad(params, [[2.0, 0.0]], [1])
    assert loss == pytest.approx(1000.0, rel=1e-12)
    assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("labels, message", [
    ([-1, 0], r"labels must lie in 0\.\.2"),
    ([3, 0], r"labels must lie in 0\.\.2"),
    ([0.0, 1.0], r"need 2 integer labels, one per row, got float64 \(2,\)"),
    ([0], r"need 2 integer labels, one per row, got int64 \(1,\)"),
], ids=["negative", "past_last_class", "non_integer", "one_label_short"])
def test_labels_outside_the_output_layer_are_rejected(labels, message):
    """Without a workspace, both functions check labels against the 3
    outputs and the 2 rows with a ValueError: -1 would otherwise index the
    last class, 3 the next row's logits, a float label fail in numpy's cast,
    and a short list name a workspace the caller never passed."""
    params = init_he(ArchSpec((2, 3)), 0)
    features = np.ones((2, 2))
    with pytest.raises(ValueError, match=message):
        loss_and_grad(params, features, labels)
    ds = LabeledDataset(features, [0, 0], 3, 2)
    ds.labels = np.array(labels)  # past LabeledDataset's own checks
    with pytest.raises(ValueError, match=message):
        evaluate(params, ds)


def test_unsigned_labels_are_read_as_classes():
    params = init_he(ArchSpec((2, 3)), 0)
    features, labels = np.ones((4, 2)), np.array([0, 1, 2, 0])
    expected = loss_and_grad(params, features, labels)
    got = loss_and_grad(params, features, labels.astype(np.uint64))
    assert got[0] == expected[0] and got[1].tobytes() == expected[1].tobytes()


def test_evaluate_empty_error():
    with pytest.raises(ValueError):
        evaluate(_zero_params(ArchSpec((2, 2))), LabeledDataset(np.zeros((0, 2)), [], 2, 2))


def test_evaluate_accuracy_in_unit_range():
    rng = np.random.default_rng(6)
    ds = _balanced_dataset(rng, 4, 5, 3)
    params = ModelParams(ArchSpec((3, 4)), rng.standard_normal(ArchSpec((3, 4)).num_params()))
    accuracy, loss = evaluate(params, ds)
    assert 0.0 <= accuracy <= 1.0
    assert loss > 0.0


def test_average_single_model_identity():
    params = init_he(ArchSpec((3, 2)), 1)
    assert np.array_equal(average_params(params.values[None, :], params.arch).values,
                          params.values)


def test_average_identical_models_idempotent():
    params = init_he(ArchSpec((3, 2)), 1)
    rows = np.stack([params.values, params.values.copy()])
    avg = average_params(rows, params.arch)
    assert np.allclose(avg.values, params.values, atol=1e-15)


def test_average_direct_arithmetic():
    arch = ArchSpec((1, 1))
    rows = np.array([[0.0, 0.0], [2.0, 4.0]])
    assert average_params(rows, arch).values.tolist() == [1.0, 2.0]


def test_average_arch_mismatch():
    # rows of a 3-2 net are 8 long; a 2-2 net has 6 parameters
    rows = np.stack([init_he(ArchSpec((3, 2)), 1).values] * 2)
    with pytest.raises(ValueError):
        average_params(rows, ArchSpec((2, 2)))
    with pytest.raises(ValueError):  # no models to average
        average_params(rows[:0], ArchSpec((3, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
def test_average_permutation_invariant(num_models, seed):
    rng = np.random.default_rng(seed)
    arch = ArchSpec((3, 2))
    rows = rng.standard_normal((num_models, arch.num_params()))
    avg = average_params(rows, arch)
    shuffled = average_params(rows[rng.permutation(num_models)], arch)
    assert np.allclose(avg.values, shuffled.values, atol=1e-12)


@pytest.mark.parametrize("layout", ["C", "F", "reversed"])
def test_average_matches_stacked_rows_bit_for_bit(layout):
    """The average is the gemv of the weights 1 / V over the rows stacked in
    C order, whatever layout the caller's matrix has."""
    arch = ArchSpec((32, 128, 128, 10))
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, arch.num_params()))
    if layout == "F":
        rows = np.asfortranarray(rows)
    elif layout == "reversed":
        rows = rows[::-1]
    expected = (np.ones(5) / 5) @ np.stack(list(rows))
    assert average_params(rows, arch).values.tobytes() == expected.tobytes()


# The numeric core as it stood before its allocation-lean rewrite, kept
# verbatim as the oracle the rewrite must match bit for bit.
def _oracle_forward_batch(weights, biases, features):
    activations = [features]
    hidden = features
    for w, b in zip(weights[:-1], biases[:-1]):
        hidden = np.maximum(hidden @ w + b, 0.0)
        activations.append(hidden)
    logits = hidden @ weights[-1] + biases[-1]
    return activations, logits


def _oracle_softmax_parts(logits):
    zmax = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - zmax)
    sums = exps.sum(axis=1, keepdims=True)
    return exps, sums, np.log(sums) + zmax


def _oracle_mean_cross_entropy(logits, labels, lse):
    picked = logits[np.arange(len(labels)), labels]
    return float(np.mean(lse.ravel() - picked))


def _oracle_views(arch, flat):
    """Weight-matrix and bias views into a flat vector, sliced from the
    layer sizes: all weights first, then all biases, layer by layer."""
    weights, biases, offset = [], [], 0
    pairs = list(zip(arch.layer_sizes[:-1], arch.layer_sizes[1:]))
    for fan_in, fan_out in pairs:
        weights.append(flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for _, fan_out in pairs:
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def oracle_loss_and_grad(params, features, labels):
    if len(labels) == 0:
        raise ValueError("batch must be nonempty")
    features = np.asarray(features, dtype=np.float64)

    weights, biases = _oracle_views(params.arch, params.values)
    activations, logits = _oracle_forward_batch(weights, biases, features)
    exps, sums, lse = _oracle_softmax_parts(logits)
    loss = _oracle_mean_cross_entropy(logits, labels, lse)

    delta = exps
    delta /= sums
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)

    grad = np.zeros_like(params.values)
    grad_w, grad_b = _oracle_views(params.arch, grad)
    for layer in reversed(range(len(grad_w))):
        grad_w[layer][...] = activations[layer].T @ delta
        grad_b[layer][...] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0)
    return loss, grad


def oracle_evaluate(params, ds):
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _, logits = _oracle_forward_batch(*_oracle_views(params.arch, params.values), ds.features)
    predictions = np.argmax(logits, axis=1)
    accuracy = float(np.mean(predictions == ds.labels))
    _, _, lse = _oracle_softmax_parts(logits)
    return accuracy, _oracle_mean_cross_entropy(logits, ds.labels, lse)


@st.composite
def numeric_cases(draw):
    """A 1-3 hidden-layer net and 1-600 rows.

    Params are He-initialised, all zero (every logit ties), or standard
    normal scaled by up to 1e200, so logits overflow to inf and NaN. Rows may
    repeat, and labels may come from a subset that skips classes.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dims = draw(st.integers(min_value=1, max_value=8))
    hidden = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3))
    num_classes = draw(st.integers(min_value=1, max_value=10))
    arch = ArchSpec((dims, *hidden, num_classes))
    kind = draw(st.sampled_from(["he", "zero", "scaled"]))
    if kind == "he":
        params = init_he(arch, seed)
    elif kind == "zero":
        params = _zero_params(arch)
    else:
        scale = 10.0 ** draw(st.integers(min_value=0, max_value=200))
        params = ModelParams(arch, scale * rng.standard_normal(arch.num_params()))
    rows = draw(st.integers(min_value=1, max_value=600))
    if draw(st.booleans()):
        distinct = rng.standard_normal((draw(st.integers(min_value=1, max_value=4)), dims))
        features = distinct[rng.integers(len(distinct), size=rows)]
    else:
        features = rng.standard_normal((rows, dims))
    keep = np.ones(num_classes, dtype=bool)
    if draw(st.booleans()):
        keep = rng.random(num_classes) < 0.5
        keep[-1] = True
    labels = rng.choice(np.flatnonzero(keep), size=rows)
    return params, features, labels


def _assert_matches_oracle(params, features, labels, workspace=None):
    """Evaluate, loss and gradient (and the gradient alone, with
    ``loss=False``), and an in-place SGD step of a copy against the oracle,
    byte for byte."""
    ds = LabeledDataset(features, labels, params.arch.layer_sizes[-1], params.arch.layer_sizes[0])
    with np.errstate(all="ignore"):
        got_eval = evaluate(params, ds, workspace=workspace)
        want_eval = oracle_evaluate(params, ds)
        want_loss, want_grad = oracle_loss_and_grad(params, features, labels)
        want_step = params.values - 0.05 * want_grad
    assert [type(v) for v in got_eval] == [float, float]
    assert repr(got_eval) == repr(want_eval)
    for loss in (True, False):
        with np.errstate(all="ignore"):
            got_loss, got_grad = loss_and_grad(params, features, labels, workspace=workspace, loss=loss)
            stepped = ModelParams(params.arch, params.values.copy())
            stepped = sgd_step(stepped, got_grad, 0.05)
        if loss:
            assert type(got_loss) is float and repr(got_loss) == repr(want_loss)
        else:
            assert got_loss is None
        assert got_grad.tobytes() == want_grad.tobytes()
        assert stepped.values.tobytes() == want_step.tobytes()


@settings(max_examples=300, deadline=None)
@given(numeric_cases())
def test_numeric_core_matches_oracle_bit_for_bit(case):
    params, features, labels = case
    _assert_matches_oracle(params, features, labels)
    # One workspace, first on other params and other rows of the same count,
    # so that stale buffers would show in the second call.
    pick = np.arange(len(labels))[::-1]
    other = ModelParams(params.arch, params.values[::-1] + 1.0)
    workspace = _Workspace(params.arch, len(labels))
    _assert_matches_oracle(other, features[pick], labels[pick], workspace)
    _assert_matches_oracle(params, features, labels, workspace)
