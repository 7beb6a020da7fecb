"""Plain-numpy MLP classifier: ReLU hidden layers, softmax output,
mean cross-entropy loss, backprop gradients, SGD updates, and a
finite-difference gradient checker.

Parameters live in one flat float64 vector so models can be copied,
averaged, hashed, and serialized without touching layer structure. Layout:
all weight matrices first (layer by layer, each flattened row-major with
shape (fan_in, fan_out)), then all bias vectors in the same layer order.

Every trajectory is pinned bit for bit by golden digests, so the numeric
core follows three rules. In-place elementwise operations on an array the
call allocated itself (``h += b``, ``np.exp(x, out=x)``, ``delta *= mask``)
are allowed: each element gets the same operation on the same operands.
Reductions keep their axis, operands and order, because numpy sums
pairwise and a reordered sum moves the last bits; the row maximum may come
from the argmax, whose element is the maximum, NaN and inf included. No
dtype changes, and no masked assignment in place of a multiply by a mask:
``x[~mask] = 0`` writes ``0.0`` where ``x * mask`` gives ``-0.0`` for a
negative ``x`` and NaN for an infinite or NaN ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths, input first and class count last."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError(f"need at least input and output sizes, got {self.layer_sizes}")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")

    def layer_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    def num_params(self) -> int:
        return self._layout[2]

    @cached_property
    def _layout(self):
        """Offsets into the flat parameter vector, computed once per instance:
        ``(weights, biases, size)`` with one ``(start, stop, shape)`` per
        weight matrix and one ``(start, stop)`` per bias vector."""
        pairs = self.layer_pairs()
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in pairs:
            weights.append((offset, offset + fan_in * fan_out, (fan_in, fan_out)))
            offset += fan_in * fan_out
        for _, fan_out in pairs:
            biases.append((offset, offset + fan_out))
            offset += fan_out
        return tuple(weights), tuple(biases), offset


@dataclass
class ModelParams:
    """Architecture plus the flat parameter vector."""

    arch: ArchSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.arch.num_params(),):
            raise ValueError(
                f"expected {self.arch.num_params()} parameters, got shape {self.values.shape}"
            )


def _views(arch: ArchSpec, flat: np.ndarray):
    """Weight-matrix and bias views into a flat vector (no copies)."""
    weight_slices, bias_slices, _ = arch._layout
    weights = [flat[start:stop].reshape(shape) for start, stop, shape in weight_slices]
    biases = [flat[start:stop] for start, stop in bias_slices]
    return weights, biases


def init_he(arch: ArchSpec, seed: int) -> ModelParams:
    """He initialization: weights ~ N(0, 2/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(arch.num_params())
    weights, _ = _views(arch, values)
    for w in weights:
        fan_in = w.shape[0]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
    return ModelParams(arch, values)


def _forward_batch(weights, biases, features: np.ndarray):
    """Activations per layer plus output logits for a (n, dims) batch, given
    the layer views from :func:`_views`."""
    activations = [features]
    hidden = features
    for w, b in zip(weights[:-1], biases[:-1]):
        hidden = hidden @ w
        hidden += b
        np.maximum(hidden, 0.0, out=hidden)
        activations.append(hidden)
    logits = hidden @ weights[-1]
    logits += biases[-1]
    return activations, logits


def _softmax_parts(logits: np.ndarray, zmax: np.ndarray):
    """Exponentials of the logits shifted by their row maxima ``zmax``
    (n, 1), their row sums, and the per-row log-sum-exp. The exponentials
    overwrite ``logits``."""
    logits -= zmax
    exps = np.exp(logits, out=logits)
    sums = exps.sum(axis=1, keepdims=True)
    return exps, sums, np.log(sums) + zmax


def _mean_cross_entropy(lse: np.ndarray, picked: np.ndarray) -> float:
    """Mean over rows of the log-sum-exp minus the label's logit."""
    return float(np.add.reduce(lse.ravel() - picked) / len(picked))


def forward(params: ModelParams, x) -> np.ndarray:
    """Class-probability vector for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.arch.layer_sizes[0],):
        raise ValueError(
            f"expected feature vector of length {params.arch.layer_sizes[0]}, got shape {x.shape}"
        )
    _, logits = _forward_batch(*_views(params.arch, params.values), x[None, :])
    exps, sums, _ = _softmax_parts(logits, logits.max(axis=1, keepdims=True))
    return (exps / sums)[0]


def loss_and_grad(params: ModelParams, features, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient via backprop.

    The batch is ``features`` rows (n, dims) with class indices ``labels``
    (n,). The gradient vector shares the flat layout of ``params.values``.
    """
    if len(labels) == 0:
        raise ValueError("batch must be nonempty")
    features = np.asarray(features, dtype=np.float64)

    rows = np.arange(len(labels))
    weights, biases = _views(params.arch, params.values)
    activations, logits = _forward_batch(weights, biases, features)
    picked = logits[rows, labels]
    exps, sums, lse = _softmax_parts(logits, logits.max(axis=1, keepdims=True))
    loss = _mean_cross_entropy(lse, picked)

    delta = exps
    delta /= sums
    delta[rows, labels] -= 1.0
    delta /= len(labels)

    grad = np.zeros_like(params.values)
    grad_w, grad_b = _views(params.arch, grad)
    for layer in reversed(range(len(grad_w))):
        grad_w[layer][...] = activations[layer].T @ delta
        grad_b[layer][...] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= activations[layer] > 0
    return loss, grad


def sgd_step(params: ModelParams, grad: np.ndarray, eta: float) -> ModelParams:
    """One gradient-descent update; returns a new ModelParams."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match {params.values.shape}")
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return ModelParams(params.arch, params.values - eta * grad)


def evaluate(params: ModelParams, ds) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a dataset.

    Prediction is the argmax class; exact logit ties resolve to the lowest
    class index.
    """
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _, logits = _forward_batch(*_views(params.arch, params.values), ds.features)
    rows = np.arange(len(ds))
    predictions = np.argmax(logits, axis=1)
    accuracy = int(np.count_nonzero(predictions == ds.labels)) / len(ds)
    picked = logits[rows, ds.labels]
    _, _, lse = _softmax_parts(logits, logits[rows, predictions][:, None])
    return accuracy, _mean_cross_entropy(lse, picked)


def finite_diff_check(params: ModelParams, features, labels, eps: float) -> float:
    """Max relative error between backprop and central finite differences.

    Per coordinate: |diff - g| / max(1e-8, |diff| + |g|), maximized over all
    parameters.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    _, grad = loss_and_grad(params, features, labels)
    base = params.values
    worst = 0.0
    for i in range(base.shape[0]):
        bumped = base.copy()
        bumped[i] = base[i] + eps
        plus = loss_and_grad(ModelParams(params.arch, bumped), features, labels)[0]
        bumped[i] = base[i] - eps
        minus = loss_and_grad(ModelParams(params.arch, bumped), features, labels)[0]
        diff = (plus - minus) / (2.0 * eps)
        rel = abs(diff - grad[i]) / max(1e-8, abs(diff) + abs(grad[i]))
        worst = max(worst, rel)
    return worst


def average_params(models, weights) -> ModelParams:
    """Convex combination of parameter vectors with normalized weights."""
    if not models:
        raise ValueError("need at least one model")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise ValueError("all models must share one architecture")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(models),):
        raise ValueError(f"need {len(models)} weights, got shape {w.shape}")
    if np.any(w < 0) or not w.sum() > 0:
        raise ValueError("weights must be nonnegative with positive sum")
    w = w / w.sum()
    stacked = np.stack([m.values for m in models])
    return ModelParams(arch, w @ stacked)
