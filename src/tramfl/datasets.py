"""Labeled datasets: synthetic Gaussian-blob generation, CSV I/O, label
histograms, and minibatch sampling.

All randomness flows through explicit seeds or ``numpy.random.Generator``
streams, so every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, StateError


@dataclass(eq=False)
class LabeledDataset:
    """Feature rows with their class indices.

    ``features`` is an ``(n, dims)`` float64 array and ``labels`` the
    matching ``(n,)`` int64 array of classes ``0..num_classes-1``; row
    ``i`` is one sample.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    dims: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.features.shape != (len(self.labels), self.dims):
            raise ValueError(
                f"need features of shape (n, {self.dims}) and labels of shape (n,), "
                f"got {self.features.shape} and {self.labels.shape}"
            )
        if len(self.labels) and not 0 <= self.labels.min() <= self.labels.max() < self.num_classes:
            raise ValueError(f"labels must lie in 0..{self.num_classes - 1}")

    def __len__(self):
        return len(self.labels)


@dataclass(eq=False)
class LabelHistogram:
    """Per-class sample counts.

    Counts are stored as floats so the same type can hold fractional
    expected-usage values alongside realized integer counts.
    """

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)


def check_synthetic(classes, dims, per_class, test_per_class, separation) -> None:
    """The ranges of a synthetic dataset, each ``ValueError`` starting with the
    ``[dataset]`` key it names, as ``DatasetSection`` reports them."""
    for name, value, least in (("classes", classes, 2), ("dims", dims, 1), ("per_class", per_class, 1),
                               ("test_per_class", test_per_class, 1)):
        if value < least:
            raise ValueError(f"{name}: must be >= {least}, got {value}")
    if not separation > 0:
        raise ValueError(f"separation: must be > 0, got {separation}")
    if separation == math.inf:
        raise ValueError(f"separation: must be finite, got {separation}")


def generate_synthetic(
    num_classes: int, dims: int, per_class: int, separation: float, seed: int
) -> LabeledDataset:
    """Sample a labeled dataset of unit-variance Gaussian blobs.

    Class means sit at ``separation`` times a unit direction per class:
    standard basis vectors when ``dims >= num_classes``, otherwise random
    unit directions drawn from the seeded generator. Samples are ordered
    class-major (all of class 0, then class 1, ...).
    """
    check_synthetic(num_classes, dims, per_class, per_class, separation)
    rng = np.random.default_rng(seed)
    if dims >= num_classes:
        means = np.zeros((num_classes, dims))
        means[np.arange(num_classes), np.arange(num_classes)] = separation
    else:
        directions = rng.standard_normal((num_classes, dims))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = separation * directions

    features = [means[c] + rng.standard_normal((per_class, dims)) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(np.concatenate(features), labels, num_classes, dims)


def generate_synthetic_split(
    num_classes: int,
    dims: int,
    train_per_class: int,
    test_per_class: int,
    separation: float,
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Generate one synthetic dataset and split it class-wise into train/test.

    Both halves share the same class means (a single generator call), which a
    pair of independently seeded calls to :func:`generate_synthetic` would not
    guarantee when ``dims < num_classes``. Each half needs at least one
    sample per class; the ranges name ``train_per_class`` as ``per_class``.
    """
    check_synthetic(num_classes, dims, train_per_class, test_per_class, separation)
    block = train_per_class + test_per_class
    full = generate_synthetic(num_classes, dims, block, separation, seed)
    by_class = full.features.reshape(num_classes, block, dims)
    classes = np.arange(num_classes)
    return (
        LabeledDataset(by_class[:, :train_per_class].reshape(-1, dims),
                       np.repeat(classes, train_per_class), num_classes, dims),
        LabeledDataset(by_class[:, train_per_class:].reshape(-1, dims),
                       np.repeat(classes, test_per_class), num_classes, dims),
    )


def ascii_number(text: str, kind):
    """``kind(text)`` in the one grammar of CSV rows and configs: an ``int`` is
    an optional ``-`` and ASCII digits, a ``float`` any literal without the
    ``_``, the non-ASCII digits or the leading ``+`` that ``float`` also
    takes. Whitespace around is ignored."""
    if kind is int:
        plain = re.fullmatch("-?[0-9]+", text.strip())
    else:
        plain = text.isascii() and "_" not in text and not text.lstrip().startswith("+")
    if not plain:
        raise ValueError(text)
    return kind(text)


def load_csv(path, has_header: bool = False) -> LabeledDataset:
    """Read a dataset from ``label,f1,...,fd`` lines.

    The label must be a nonnegative integer of ASCII digits, and each feature
    an ASCII float literal with no ``_`` and no leading ``+``; the feature
    width is fixed by the first data row. Blank lines are ignored. Raises
    :class:`ParseError` with the 1-based line number on malformed input,
    text that is not UTF-8 included.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    dims = None
    max_label = -1
    # surrogateescape decodes a byte that is not UTF-8 to U+DC80..U+DCFF, so
    # it is reported with its line rather than by the decoder.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
                raise ParseError(f"{path}: line {lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ParseError(f"{path}: line {lineno}: expected 'label,f1,...', got {line!r}")
            try:
                label = ascii_number(fields[0], int)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: label must be an integer, "
                                 f"got {fields[0]!r}") from None
            if label < 0:
                raise ParseError(f"{path}: line {lineno}: negative label {label}")
            if dims is None:
                dims = len(fields) - 1
            elif len(fields) - 1 != dims:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dims} features, got {len(fields) - 1}"
                )
            try:
                feats = [ascii_number(f, float) for f in fields[1:]]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, feats)):
                raise ParseError(f"{path}: line {lineno}: non-finite feature value")
            rows.append(feats)
            labels.append(label)
            max_label = max(max_label, label)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return LabeledDataset(np.array(rows), np.array(labels), max_label + 1, dims)


def save_csv(ds: LabeledDataset, path, header: bool = False) -> None:
    """Write a dataset in the format read by :func:`load_csv` (LF endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if header:
            handle.write("label," + ",".join(f"f{i + 1}" for i in range(ds.dims)) + "\n")
        for label, row in zip(ds.labels.tolist(), ds.features.tolist()):
            handle.write(f"{label}," + ",".join(repr(v) for v in row) + "\n")


def draw_minibatch(shard, batch_size: int, rng: np.random.Generator):
    """Draw a batch of rows from a shard and report its label counts.

    Sampling is uniform without replacement; if the shard holds fewer than
    ``batch_size`` rows it falls back to sampling with replacement. Every
    call advances ``rng``.

    Returns ``(idx, counts)``: the batch is ``shard.features[idx]`` with
    labels ``shard.labels[idx]``. ``counts`` is the int array of the batch's
    label counts, one entry per class of the shard (``len(shard.hist.counts)``),
    and sums to ``batch_size``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    population = len(shard.labels)
    if population == 0:
        raise StateError("cannot draw a minibatch from an empty shard")
    replace = population < batch_size
    idx = rng.choice(population, size=batch_size, replace=replace)
    return idx, np.bincount(shard.labels[idx], minlength=len(shard.hist.counts))
