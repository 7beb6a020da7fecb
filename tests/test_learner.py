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
    forward,
    init_he,
    loss_and_grad,
    sgd_step,
)


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


def test_forward_zero_params_uniform():
    params = _zero_params(ArchSpec((3, 5)))
    probs = forward(params, [1.0, -2.0, 0.5])
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_forward_identity_logits():
    arch = ArchSpec((2, 2))
    values = np.zeros(arch.num_params())
    values[:4] = np.eye(2).ravel()
    probs = forward(ModelParams(arch, values), [10.0, 0.0])
    assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), rel=1e-12)


def test_forward_dim_mismatch():
    params = _zero_params(ArchSpec((3, 2)))
    with pytest.raises(ValueError):
        forward(params, [1.0, 2.0])


def test_forward_large_logits_stable():
    arch = ArchSpec((2, 2))
    values = np.zeros(arch.num_params())
    values[:4] = np.eye(2).ravel() * 500.0
    probs = forward(ModelParams(arch, values), [2.0, 0.0])
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_forward_normalizes(seed):
    rng = np.random.default_rng(seed)
    arch = ArchSpec((4, 6, 3))
    params = ModelParams(arch, rng.standard_normal(arch.num_params()))
    probs = forward(params, rng.standard_normal(4))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= 0.0)


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
    stepped = sgd_step(params, np.zeros_like(params.values), 0.5)
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
    two = sgd_step(sgd_step(params, g1, 0.1), g2, 0.1)
    one = sgd_step(params, g1 + g2, 0.1)
    assert np.allclose(two.values, one.values, atol=1e-12)


def test_sgd_layout_mismatch():
    params = _zero_params(ArchSpec((3, 2)))
    with pytest.raises(ValueError):
        sgd_step(params, np.zeros(3), 0.1)


def test_sgd_does_not_mutate_input():
    params = init_he(ArchSpec((3, 2)), 4)
    before = params.values.copy()
    sgd_step(params, np.ones_like(params.values), 0.1)
    assert np.array_equal(params.values, before)


def test_sgd_decreases_loss_with_small_enough_eta():
    rng = np.random.default_rng(12)
    params = init_he(ArchSpec((4, 6, 3)), 3)
    batch = _random_batch(rng, 4, 3, 8)
    loss, grad = loss_and_grad(params, *batch)
    assert np.linalg.norm(grad) > 1e-12
    eta = 0.5
    for _ in range(60):
        stepped_loss, _ = loss_and_grad(sgd_step(params, grad, eta), *batch)
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
    assert np.array_equal(average_params([params], [1.0]).values, params.values)


def test_average_identical_models_idempotent():
    params = init_he(ArchSpec((3, 2)), 1)
    other = ModelParams(params.arch, params.values.copy())
    avg = average_params([params, other], [0.3, 0.9])
    assert np.allclose(avg.values, params.values, atol=1e-15)


def test_average_direct_arithmetic():
    arch = ArchSpec((1, 1))
    a = ModelParams(arch, np.array([0.0, 0.0]))
    b = ModelParams(arch, np.array([2.0, 4.0]))
    assert average_params([a, b], [1.0, 1.0]).values.tolist() == [1.0, 2.0]


def test_average_arch_mismatch():
    with pytest.raises(ValueError):
        average_params([init_he(ArchSpec((3, 2)), 1), init_he(ArchSpec((2, 2)), 1)], [1, 1])


def test_average_rejects_bad_weights():
    params = init_he(ArchSpec((3, 2)), 1)
    with pytest.raises(ValueError):
        average_params([params, params], [1.0, -0.5])
    with pytest.raises(ValueError):
        average_params([params, params], [0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=1000),
)
def test_average_permutation_invariant(weights, seed):
    rng = np.random.default_rng(seed)
    arch = ArchSpec((3, 2))
    models = [ModelParams(arch, rng.standard_normal(arch.num_params())) for _ in weights]
    avg = average_params(models, weights)
    order = rng.permutation(len(weights))
    shuffled = average_params([models[i] for i in order], [weights[i] for i in order])
    assert np.allclose(avg.values, shuffled.values, atol=1e-12)
