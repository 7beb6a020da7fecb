"""Plain-numpy MLP classifier: ReLU hidden layers, softmax output,
mean cross-entropy loss, backprop gradients, SGD updates, and a
finite-difference gradient checker.

Parameters live in one flat float64 vector so models can be copied,
averaged, hashed, and serialized without touching layer structure. Layout:
all weight matrices first (layer by layer, each flattened row-major with
shape (fan_in, fan_out)), then all bias vectors in the same layer order.

Every trajectory is pinned bit for bit by golden digests, so the numeric
core follows five rules. In-place elementwise operations on an array the
call owns (one it allocated, a workspace buffer, or the parameter vector
of an in-place step: ``h += b``, ``np.exp(x, out=x)``, ``delta *= mask``)
are allowed: each element gets the same operation on the same operands.
Reductions keep their axis, operands and order, because numpy sums
pairwise and a reordered sum moves the last bits. A row maximum taken from
the argmax equals ``max`` in value, NaN and inf included, but not in a
NaN's payload bits: ``loss_and_grad``, whose gradient bytes reach the
params digests, keeps ``max`` (as ``np.maximum.reduce``), and only
``evaluate``, whose loss is compared by value, takes its maximum from the
argmax. No dtype changes, and no masked assignment in place of a multiply
by a mask: ``x[~mask] = 0`` writes ``0.0`` where ``x * mask`` gives
``-0.0`` for a negative ``x`` and NaN for an infinite or NaN ``x``. A
matmul may write into an ``out=`` buffer only if that buffer is
C-contiguous and aligned, the layout numpy would allocate for the result:
numpy then makes the same BLAS call. An ``out`` in another layout can
change the call and the bits; a Fortran-ordered ``out`` does for a
(500, 32) @ (32, 10) product. A label's logit is found by its flat index, row
start plus label: on a C-contiguous buffer, ``x.ravel().take(flat)`` and
``x.ravel()[flat] -= 1.0`` touch the same elements as ``x[rows, labels]``,
but only for labels below the output width. A label at or past it would
name an entry of the next row.

A :class:`ModelParams` binds ``values`` once (the dataclass is frozen) and
caches its weight and bias views into it as ``layers``, so the views never
go stale; the array's contents may change in place. ``loss_and_grad`` and
``evaluate`` take an optional ``workspace``, a :class:`_Workspace` built
once per trial for one architecture and one batch row count. It keeps the
activation and logit buffers, the logit rows' flat starts and the gradient
between calls, so a step allocates little. A gradient returned through a workspace is that
workspace's buffer: its next ``loss_and_grad`` overwrites it. Labels (one
integer per row, below the output width) are checked only without a
workspace; with one, the caller vouches for them (the simulator checks each
trial's class counts against the width before its first step).
``loss_and_grad(..., loss=False)`` skips the loss alone, returning it as
None, for callers that only step. ``sgd_step`` always updates
``params.values`` in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths, input first and class count last."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(operator.index(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2 or min(sizes) < 1:
            raise ValueError(f"layer_sizes: need >= 2 positive sizes, got {sizes}")

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


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Architecture plus the flat parameter vector, bound once."""

    arch: ArchSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (self.arch.num_params(),):
            raise ValueError(
                f"expected {self.arch.num_params()} parameters, got shape {self.values.shape}"
            )

    @cached_property
    def layers(self):
        """``(weights, biases)``: per-layer views into ``values`` (no copies)."""
        weight_slices, bias_slices, _ = self.arch._layout
        weights = [self.values[start:stop].reshape(shape) for start, stop, shape in weight_slices]
        biases = [self.values[start:stop] for start, stop in bias_slices]
        return weights, biases


class _Workspace:
    """Scratch for one architecture and one batch row count, reused across
    calls: activation and logit buffers, each logit row's flat start, and a
    gradient made on first use."""

    def __init__(self, arch: ArchSpec, rows: int):
        self.arch = arch
        classes = arch.layer_sizes[-1]
        self.hidden = [np.empty((rows, w)) for w in arch.layer_sizes[1:-1]]
        self.logits = np.empty((rows, classes))
        self.row_starts = np.arange(rows) * classes

    @cached_property
    def gradient(self) -> ModelParams:
        """The gradient, a zero ModelParams made on first use."""
        return ModelParams(self.arch, np.zeros(self.arch.num_params()))


def init_he(arch: ArchSpec, seed: int) -> ModelParams:
    """He initialization: weights ~ N(0, 2/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = ModelParams(arch, np.zeros(arch.num_params()))
    for w in params.layers[0]:
        fan_in = w.shape[0]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
    return params


def _forward_batch(ws: _Workspace, params: ModelParams, features: np.ndarray):
    """Activations per layer plus output logits for a (n, dims) batch, in the
    workspace's buffers, which must be for ``params.arch`` and n rows."""
    if params.arch is not ws.arch and params.arch != ws.arch:
        raise ValueError(f"workspace is for {ws.arch}, params are {params.arch}")
    if len(features) != len(ws.row_starts):
        raise ValueError(f"workspace is for {len(ws.row_starts)} rows, batch has {len(features)}")
    weights, biases = params.layers
    activations = [features]
    hidden = features
    for w, b, out in zip(weights[:-1], biases[:-1], ws.hidden):
        hidden = np.matmul(hidden, w, out=out)
        hidden += b
        np.maximum(hidden, 0.0, out=hidden)
        activations.append(hidden)
    logits = np.matmul(hidden, weights[-1], out=ws.logits)
    logits += biases[-1]
    return activations, logits


def _checked_labels(labels, arch: ArchSpec, rows: int) -> np.ndarray:
    """``labels`` as an array of ``rows`` integers, each a class of ``arch``'s output layer."""
    labels = np.asarray(labels)
    classes = arch.layer_sizes[-1]
    if labels.shape != (rows,) or labels.dtype.kind not in "iu":
        raise ValueError(f"need {rows} integer labels, one per row, got {labels.dtype} {labels.shape}")
    if not 0 <= labels.min() <= labels.max() < classes:
        raise ValueError(f"labels must lie in 0..{classes - 1}")
    return labels.astype(np.int64, copy=False)  # uint64 plus an int64 row start would be a float


def _cross_entropy(logits: np.ndarray, flat, zmax: np.ndarray):
    """Softmax cross-entropy of ``logits`` against the labels at the flat
    indices ``flat`` (row start plus label), shifted by the row maxima
    ``zmax`` (n, 1): the exponentials, which overwrite ``logits``, their row
    sums, and the mean over rows of log-sum-exp minus the label's logit, as a
    float. With ``flat`` None the loss is skipped and returned as None."""
    picked = None if flat is None else logits.ravel().take(flat)
    logits -= zmax
    exps = np.exp(logits, out=logits)
    sums = np.add.reduce(exps, axis=1, keepdims=True)
    if picked is None:
        return exps, sums, None
    lse = np.log(sums) + zmax
    return exps, sums, float(np.add.reduce(lse.ravel() - picked) / len(picked))


def loss_and_grad(params: ModelParams, features, labels, *, workspace: _Workspace | None = None,
                  loss: bool = True) -> tuple[float | None, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient via backprop.

    The batch is ``features`` rows (n, dims) with class indices ``labels``
    (n,). The gradient vector shares the flat layout of ``params.values``.
    With a ``workspace`` the gradient is its buffer, overwritten by the
    workspace's next call. With ``loss=False`` the loss is not computed and
    comes back as None; the gradient is the same.
    """
    if len(labels) == 0:
        raise ValueError("batch must be nonempty")
    features = np.asarray(features, dtype=np.float64)
    ws = workspace
    if ws is None:
        labels = _checked_labels(labels, params.arch, len(features))
        ws = _Workspace(params.arch, len(labels))

    activations, logits = _forward_batch(ws, params, features)
    flat = ws.row_starts + labels
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    exps, sums, value = _cross_entropy(logits, flat if loss else None, zmax)

    delta = exps
    delta /= sums
    delta.ravel()[flat] -= 1.0
    delta /= len(labels)

    weights, _ = params.layers
    grad = ws.gradient
    grad_w, grad_b = grad.layers
    for layer in reversed(range(len(grad_w))):
        np.matmul(activations[layer].T, delta, out=grad_w[layer])
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            # This is the last read of activations[layer]: take its mask,
            # then let the next delta overwrite it.
            mask = activations[layer] > 0
            delta = np.matmul(delta, weights[layer].T, out=activations[layer])
            delta *= mask
    return value, grad.values


def sgd_step(params: ModelParams, grad: np.ndarray, eta: float) -> ModelParams:
    """One gradient-descent update, ``values -= eta * grad``, in place.

    Overwrites ``params.values`` and returns ``params``. ModelParams keeps
    a float64 array it is given without copying it, so the caller's array
    changes too: step a copy to keep the original.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match {params.values.shape}")
    if not eta > 0:
        raise ValueError(f"eta: must be > 0, got {eta}")
    if eta == math.inf:
        raise ValueError(f"eta: must be finite, got {eta}")
    np.subtract(params.values, eta * grad, out=params.values)
    return params


def evaluate(params: ModelParams, ds, *, workspace: _Workspace | None = None) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a dataset.

    Prediction is the argmax class; exact logit ties resolve to the lowest
    class index.
    """
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels, ws = ds.labels, workspace
    if ws is None:
        labels = _checked_labels(labels, params.arch, len(ds.features))
        ws = _Workspace(params.arch, len(ds))
    _, logits = _forward_batch(ws, params, ds.features)
    predictions = logits.argmax(axis=1)
    accuracy = int(np.count_nonzero(predictions == labels)) / len(ds)
    zmax = logits.ravel().take(ws.row_starts + predictions)[:, None]
    _, _, loss = _cross_entropy(logits, ws.row_starts + labels, zmax)
    return accuracy, loss


def finite_diff_check(params: ModelParams, features, labels, eps: float) -> float:
    """Max relative error between backprop and central finite differences.

    Per coordinate: |diff - g| / max(1e-8, |diff| + |g|), maximized over all
    parameters.
    """
    if not eps > 0:
        raise ValueError(f"eps: must be > 0, got {eps}")
    _, grad = loss_and_grad(params, features, labels)
    base = params.values
    bumped = ModelParams(params.arch, base.copy())
    workspace = _Workspace(params.arch, len(labels))
    worst = 0.0
    for i in range(base.shape[0]):
        bumped.values[i] = base[i] + eps
        plus = loss_and_grad(bumped, features, labels, workspace=workspace)[0]
        bumped.values[i] = base[i] - eps
        minus = loss_and_grad(bumped, features, labels, workspace=workspace)[0]
        bumped.values[i] = base[i]
        diff = (plus - minus) / (2.0 * eps)
        rel = abs(diff - grad[i]) / max(1e-8, abs(diff) + abs(grad[i]))
        worst = max(worst, rel)
    return worst


def average_params(rows, arch: ArchSpec) -> ModelParams:
    """Unweighted average of parameter vectors.

    ``rows`` is a (V, P) matrix whose row i is model i's flat parameter
    vector for ``arch``. The average is one gemv, ``np.full(V, 1 / V) @ rows``,
    over a C-ordered float64 copy of it; a C-contiguous float64 matrix is used
    as it is. ``rows.mean(axis=0)`` would sum in another order and change the
    bits.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2 or not len(rows) or rows.shape[1] != arch.num_params():
        raise ValueError(f"need a (models, {arch.num_params()}) matrix, got shape {rows.shape}")
    return ModelParams(arch, np.full(len(rows), 1.0 / len(rows)) @ rows)
