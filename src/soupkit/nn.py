"""Dense network engine over flat parameter vectors.

Small fully-connected classifiers in float64 numpy: forward pass, analytic
gradients of the cross-entropy loss, and the classification metrics used for
model selection. Parameters travel as a single flat vector so that
weight-space operations (averaging, interpolation, plane slices) stay
trivial and exact.

Inputs are checked once per public call (and once per training stage), never
in the kernels: `_check_params` and `_check_fit`. Callers that score many
models on one split prepare one `_scorer`, which checks the split and derives
what the metrics read from its labels alone (`_Labels`) once, and scores
(K, P) stacks a bounded chunk at a time, under one named metric or, for stage
scoring, under every metric the labels define; `evaluate` is its one-model
case. Every metric has one implementation, `_score`, over a stack of logits;
macro recall and F1 come from per-class counts of hits and predictions, the
hits as one matmul of the correct-prediction mask with the labels' one-hot.

The training kernels avoid numpy reductions over tiny axes, whose per-call
cost dwarfs their arithmetic, but keep every float sum in numpy's own order
so that results stay bit for bit those of the plain reductions. A row max is
exact in any order, so `softmax` takes it as a chain of `np.maximum` over the
class columns. numpy sums fewer than 8 values left to right, so below 8
classes the softmax denominator is a left-to-right column sum, and from 8 on
it is numpy's `sum`. A bias gradient is a sum over the batch rows of each
column, which numpy's `sum` and `einsum` both run row by row into the output;
the backprop kernel takes the cheaper `einsum`, except for a one-column layer,
where the rows are contiguous and the two sum in different orders.

The module also holds `_Record`, the one JSON codec of the package's config
records; every module that defines one already imports this one. And it holds
`_kernel_fingerprint`, which names the numpy kernels that a run's bits depend
on besides the code: the `exp` loops and OpenBLAS's matmul at the trainer's
shapes.
"""

from __future__ import annotations

import hashlib
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .data import LabeledDataset

ACTIVATIONS = ("relu", "tanh")


class MetricUndefinedError(ValueError):
    """The requested metric has no defined value on the given labels."""


class MetricKind(str, Enum):
    ACCURACY = "accuracy"
    MACRO_F1 = "macro_f1"
    MACRO_RECALL = "macro_recall"
    ROC_AUC_OVR = "roc_auc_ovr"


class _RecordError(ValueError):
    """A record's input has an unknown or missing key or a bad value; the message names the key."""


class _Record:
    """Dataclass mixin: the one JSON codec of the package's config records.

    `to_dict` writes one key per field: enums by value, tuples as lists and
    nested records as dicts. `from_dict` refuses unknown keys and missing
    required ones, naming each key as the file spells it, and converts each
    value by its field's annotation: int (integral) and float (finite), not
    bool; str (a string only); bool (true or false only); an enum, a nested
    record, an optional one, or a tuple of these. Annotations are resolved
    once per class. A record whose file spells a field by another name maps
    the name to it in `_FILE_KEYS`.
    """

    _FILE_KEYS: dict[str, str] = {}

    def to_dict(self) -> dict:
        out = {}
        for key, (name, _) in _codec(type(self), "")[0].items():
            value = getattr(self, name)
            out[key] = value if type(value) in _PLAIN else _encode(value)
        return out

    @classmethod
    def from_dict(cls, d: dict):
        return cls._decode(d, "")

    @classmethod
    def _decode(cls, d, where: str):
        """`from_dict` of the record found under `where` in the file: "" at the
        top, else its dotted key and a dot."""
        keys, required = _codec(cls, where)
        if not isinstance(d, dict):
            raise _RecordError(f"{where[:-1] or cls.__name__}: expected an object, got {d!r}")
        kwargs = {}
        try:
            # The loop looks up every key, so a missing key need only be
            # sought in a dict smaller than the record (the subset test is slow).
            if len(d) < len(keys) and not required <= d.keys():
                raise KeyError
            for key, value in d.items():
                name, convert = keys[key]
                kwargs[name] = convert(value)
        except KeyError:  # a missing or an unknown key
            problems = [f"unknown key {where + k!r}" for k in d if k not in keys]
            problems += [f"missing key {where + k!r}" for k in keys if k in required and k not in d]
            raise _RecordError(f"{cls.__name__}: {'; '.join(problems)}") from None
        except _RecordError:
            raise
        except (TypeError, ValueError) as exc:
            raise _RecordError(f"{where}{key}: {exc}") from exc
        return cls(**kwargs)


# Written as they are. Matched by exact type: an enum may subclass str.
_PLAIN = frozenset({int, float, str, bool, type(None)})


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [v if type(v) in _PLAIN else _encode(v) for v in value]
    if isinstance(value, _Record):
        return value.to_dict()
    return value


@cache
def _codec(cls: type, where: str) -> tuple[dict[str, tuple[str, Callable]], frozenset[str]]:
    """A record class's file keys under `where`, each with its field name and
    decoder, and the keys without a default. Cached: one entry per record
    class and place in a file."""
    hints = typing.get_type_hints(cls)
    keys, required = {}, set()
    for f in fields(cls):
        key = cls._FILE_KEYS.get(f.name, f.name)
        keys[key] = (f.name, _converter(hints[f.name], f"{where}{key}."))
        if f.default is MISSING and f.default_factory is MISSING:
            required.add(key)
    return keys, frozenset(required)


def _converter(hint, where: str) -> Callable:
    """Decoder of a value annotated `hint`; a nested record sits under `where`."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            item = _converter(args[0], where)
            return lambda v: tuple(map(item, _list(v, None)))
        items = [_converter(a, where) for a in args]
        return lambda v: tuple(c(x) for c, x in zip(items, _list(v, len(items))))
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [_converter(a, where) for a in args if a is not type(None)]
        return lambda v: None if v is None else inner(v)
    if issubclass(hint, _Record):
        return lambda v: hint._decode(v, where)
    return {int: _int, float: _float, str: _str, bool: _bool}.get(hint, hint)


def _int(v) -> int:
    if isinstance(v, float) and v.is_integer() or isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _float(v) -> float:
    if isinstance(v, (int, float, np.integer)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ValueError(f"expected a finite number, got {v!r}")


def _str(v) -> str:
    if isinstance(v, str):
        return v
    raise ValueError(f"expected a string, got {v!r}")


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ValueError(f"expected true or false, got {v!r}")


def _list(v, size: int | None) -> list | tuple:
    if not isinstance(v, (list, tuple)) or size not in (None, len(v)):
        raise ValueError(f"expected a list{f' of {size} values' if size else ''}, got {v!r}")
    return v


@dataclass(frozen=True)
class ArchSpec(_Record):
    """Layer widths (input, hidden..., output) plus hidden activation."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least input and output dims, got {dims}")
        if any(d < 1 for d in dims):
            raise ValueError(f"layer dims must be positive, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")

    @cached_property
    def signature(self) -> str:
        payload = ",".join(str(d) for d in self.layer_dims) + "|" + self.activation
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def class_count(self) -> int:
        return self.layer_dims[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per linear layer."""
        return list(zip(self.layer_dims[:-1], self.layer_dims[1:]))

    @cached_property
    def _layout(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """(weight slice, (fan_in, fan_out), bias slice) of each layer in the flat vector."""
        out = []
        offset = 0
        for fan_in, fan_out in self.layer_shapes():
            end = offset + fan_in * fan_out
            out.append((slice(offset, end), (fan_in, fan_out), slice(end, end + fan_out)))
            offset = end + fan_out
        return tuple(out)

    @cached_property
    def param_count(self) -> int:
        return sum(i * o + o for i, o in self.layer_shapes())


@dataclass
class ParamVector:
    """Flat float64 parameter vector tied to an architecture signature.

    Layout per layer: weight matrix in row-major order, then bias vector.
    """

    values: np.ndarray
    arch_signature: str

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError(f"parameter vector must be 1-D, got shape {vals.shape}")
        self.values = vals

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.arch_signature)

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass
class Batch:
    """A minibatch of rows: float64 features and integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labs.shape}")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError(f"row count mismatch: {feats.shape[0]} features vs {labs.shape[0]} labels")
        if labs.size and not np.issubdtype(labs.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labs.dtype}")
        self.features = feats
        self.labels = labs.astype(np.int64)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


def init_params(arch: ArchSpec, seed: int) -> ParamVector:
    """Seeded random initialization: He for relu, Glorot for tanh; zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence([0x1A17, int(seed)]))
    chunks = []
    for fan_in, fan_out in arch.layer_shapes():
        if arch.activation == "relu":
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.normal(0.0, std, size=(fan_in, fan_out))
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), arch.signature)


def unpack_params(params: ParamVector, arch: ArchSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of (W, b) per layer; W has shape (fan_in, fan_out)."""
    _check_params(params, arch)
    return _layer_views(params.values, arch)


def _layer_views(values: np.ndarray, arch: ArchSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into flat vectors of the architecture's size, unchecked.

    Leading axes carry over: a (P,) vector gives W (fan_in, fan_out) and b
    (fan_out,); a (K, P) member stack gives W (K, fan_in, fan_out) and b
    (K, fan_out)."""
    lead = values.shape[:-1]
    return [(values[..., w].reshape(lead + shape), values[..., b]) for w, shape, b in arch._layout]


def pack_params(layers: Sequence[tuple[np.ndarray, np.ndarray]], arch: ArchSpec) -> ParamVector:
    chunks = []
    for (w, b), (fan_in, fan_out) in zip(layers, arch.layer_shapes()):
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ValueError(f"layer shape mismatch: got W{w.shape} b{b.shape}, expected ({fan_in},{fan_out})")
        chunks.append(np.asarray(w, dtype=np.float64).ravel())
        chunks.append(np.asarray(b, dtype=np.float64))
    return ParamVector(np.concatenate(chunks), arch.signature)


def last_layer_slice(arch: ArchSpec) -> slice:
    """Flat-vector slice holding the final linear layer (weights and bias)."""
    fan_in, fan_out = arch.layer_shapes()[-1]
    return slice(arch.param_count - (fan_in * fan_out + fan_out), arch.param_count)


def _check_params(params: ParamVector, arch: ArchSpec) -> None:
    if params.arch_signature != arch.signature:
        raise ValueError(
            f"parameter vector signature {params.arch_signature} does not match architecture {arch.signature}"
        )
    if params.size != arch.param_count:
        raise ValueError(f"expected {arch.param_count} parameters, got {params.size}")


def _forward_cached(layers: list[tuple[np.ndarray, np.ndarray]], activation: str, features: np.ndarray):
    """Forward pass keeping every layer's activations for backprop: the
    input first, the logits last.

    Works on one model (rows (n, d)) or a member stack (rows (K, n, d)); each
    member's matmul is the same BLAS call either way, so results agree bit
    for bit. The bias and the activation are applied in place on the
    matmul's result."""
    acts = [features]
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b[..., None, :]
        if idx < last:
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        acts.append(z)
    return acts


def _check_fit(arch: ArchSpec, features: np.ndarray, labels: np.ndarray) -> None:
    """Feature width and label range against the architecture (empty labels pass)."""
    if features.shape[1] != arch.input_dim:
        raise ValueError(f"feature dim {features.shape[1]} does not match input dim {arch.input_dim}")
    if labels.size and (labels.min() < 0 or labels.max() >= arch.class_count):
        raise ValueError(f"labels out of range [0, {arch.class_count})")


def forward(params: ParamVector, arch: ArchSpec, batch: Batch) -> np.ndarray:
    """Logits for a batch; activation on hidden layers only, none on the last."""
    _check_fit(arch, batch.features, batch.labels)
    return _forward_cached(unpack_params(params, arch), arch.activation, batch.features)[-1]


# numpy sums fewer than 8 values left to right (its pairwise sum starts
# there), so below this many classes a chain over the columns is its order.
_COLUMN_CLASSES = 8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Over the last axis, so a (K, n, classes) stack is K row-wise softmaxes.

    Below `_COLUMN_CLASSES` classes the row max and sum run as a chain over
    the class columns rather than as numpy reductions over a few-wide axis;
    the result is the reductions' bit for bit (see the module docstring)."""
    k = logits.shape[-1]
    if k >= _COLUMN_CLASSES:
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        return e
    m = logits[..., 0].copy()
    for j in range(1, k):
        np.maximum(m, logits[..., j], out=m)
    e = np.exp(logits - m[..., None])
    s = e[..., 0].copy()
    for j in range(1, k):
        s += e[..., j]
    e /= s[..., None]
    return e


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood, computed via a stable log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match logits rows {logits.shape[0]}")
    if logits.shape[0] == 0:
        raise ValueError("cannot take loss of an empty batch")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels out of range [0, {logits.shape[1]})")
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(lse - picked))


def gradient(params: ParamVector, arch: ArchSpec, batch: Batch) -> ParamVector:
    """Analytic gradient of the mean cross-entropy over the batch."""
    if batch.n == 0:
        raise ValueError("cannot take gradient of an empty batch")
    _check_params(params, arch)
    _check_fit(arch, batch.features, batch.labels)
    out = np.empty((1, arch.param_count))
    _gradient_into(_layer_views(params.values[None], arch), arch.activation,
                   batch.features[None], batch.labels[None], _layer_views(out, arch))
    return ParamVector(out[0], arch.signature)


def _gradient_into(layers: list[tuple[np.ndarray, np.ndarray]], activation: str,
                   features: np.ndarray, labels: np.ndarray,
                   out: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Backprop kernel over a stack of K members: writes each member's
    gradient into the (W, b) views of `out`.

    `layers` and `out` are `_layer_views` of (K, P) stacks, `features` is
    (K, n, d) and `labels` is (K, n): member k's batch, loss and gradient
    involve only slice k. Unchecked: the caller guarantees a non-empty
    float64 batch whose feature width and int64 labels fit the layers.

    Every sum keeps numpy's own order, so the gradient is that of the plain
    reductions bit for bit: the softmax's (see `softmax`), and each bias
    gradient's running sum over the rows, which `einsum` adds row by row into
    its output as `sum` over a non-last axis does, at about a third of the
    cost. The one-hot label subtraction subtracts 1.0 at each row's label,
    found by its flat position, and leaves every other entry as it was.
    Temporaries are updated in place.
    """
    acts = _forward_cached(layers, activation, features)
    delta = softmax(acts[-1])
    # softmax returns a fresh C-contiguous array, so the flat view writes through
    k = delta.shape[-1]
    delta.reshape(-1)[np.arange(0, delta.size, k) + labels.reshape(-1)] -= 1.0
    delta /= labels.shape[-1]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = out[li]
        np.matmul(acts[li].swapaxes(-1, -2), delta, out=gw)
        if gb.shape[-1] > 1:
            np.einsum("...nw->...w", delta, out=gb)
        else:
            # one column: the rows are then the contiguous axis, where
            # numpy's pairwise sum and einsum's unrolled one differ
            delta.sum(axis=-2, out=gb)
        if li > 0:
            delta = delta @ layers[li][0].swapaxes(-1, -2)
            if activation == "relu":
                # relu(z) > 0 exactly where z > 0, NaN included
                delta *= acts[li] > 0.0
            else:
                slope = np.square(acts[li])
                np.subtract(1.0, slope, out=slope)
                delta *= slope


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of an (R, n) array, ties sharing the
    average rank of their group."""
    r, n = x.shape
    rows = np.arange(r)[:, None]
    order = np.argsort(x, axis=1, kind="mergesort")
    s = x[rows, order]
    new = np.ones((r, n), dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    # tie groups are runs of the flattened rows, and every row starts one
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], r * n)
    offset = starts - starts % n
    ranks = np.empty((r, n))
    ranks[rows, order] = np.repeat((starts + ends + 1 - 2 * offset) / 2.0, ends - starts).reshape(r, n)
    return ranks


def _auc(ranks: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Rank-statistic AUC from average ranks (..., n) and a positive mask that
    broadcasts against them, both classes present. A rank sum adds
    half-integers, so it is exact in any order."""
    n_pos = positives.sum(axis=-1)
    n_neg = positives.shape[-1] - n_pos
    u = (ranks * positives).sum(axis=-1) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


class _Labels:
    """A split's labels and what the metrics read from them alone, derived once
    per scorer: the classes present, their rows (their supports) and the
    labels' one-hot matrix over them, (n, classes present) in float64."""

    def __init__(self, labels: np.ndarray, class_count: int) -> None:
        support = np.bincount(labels, minlength=class_count)
        self.labels = labels
        self.classes = np.flatnonzero(support)
        self.present_support = support[self.classes]
        self.onehot = (labels[:, None] == self.classes).astype(np.float64)


def _score(logits: np.ndarray, metric: MetricKind, split: _Labels) -> np.ndarray:
    """One metric per model from a (K, n, classes) logit stack on the checked
    labels of `split`: (K,). ROC-AUC is one-vs-rest over the softmax, from one
    ranking of every (model, class present) row, each class's positives a
    column of the labels' one-hot. Macro recall and F1 are read from
    per-class counts: each model's hits (rows of a class predicted as it), one
    matmul of the (K, n) correct-prediction mask with the one-hot, whose sums
    of 0s and 1s are exact integers, and its predictions of each class, one
    `bincount`. Macro averages run over the classes present in the labels; F1
    is 0 for a class never hit. A macro average is a sum over the classes
    divided by their count, which is `np.mean`'s own arithmetic bit for bit
    without its per-call cost."""
    models, n, k = logits.shape
    labels = split.labels
    if metric is MetricKind.ROC_AUC_OVR:
        classes = split.classes
        probs = softmax(logits)[..., classes].swapaxes(1, 2)
        ranks = _average_ranks(probs.reshape(-1, n)).reshape(probs.shape)
        return _auc(ranks, split.onehot.T).sum(axis=-1) / classes.size
    preds = np.argmax(logits, axis=-1)
    correct = preds == labels
    if metric is MetricKind.ACCURACY:
        return correct.sum(axis=-1) / labels.size
    hits = correct @ split.onehot
    recall = hits / split.present_support
    if metric is MetricKind.MACRO_RECALL:
        return recall.sum(axis=-1) / recall.shape[-1]
    offset = np.arange(0, models * k, k)[:, None]
    predicted = np.bincount((offset + preds).ravel(), minlength=models * k).reshape(models, k)[:, split.classes]
    precision = np.divide(hits, predicted, out=np.zeros_like(recall), where=predicted > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros_like(recall), where=both > 0)
    return f1.sum(axis=-1) / f1.shape[-1]


# Float budget of one activation when scoring a stack (about 0.5 MB of float64):
# a forward takes budget // (rows x widest layer) models at a time.
_CHUNK_FLOATS = 1 << 16


def _scorer(arch: ArchSpec, dataset: "LabeledDataset",
            metric: MetricKind | str | None = None) -> Callable[[np.ndarray], dict[MetricKind, np.ndarray]]:
    """The scores of a (K, P) parameter stack on one split, as a function:
    {metric: (K,) scores}.

    The metric and the split's fit are checked here, once, and everything
    the metrics read from the labels alone is derived here too (`_Labels`).
    A named metric that the labels alone leave undefined (ROC-AUC with one
    class present) raises `MetricUndefinedError`; with no metric, every
    metric the labels define is scored, in `MetricKind` order. Each call
    checks only the stack's shape, then runs one forward per chunk of models
    and reads every metric from it by `_score`; a stack of one chunk is one
    forward and one `_score` per metric."""
    metrics = list(MetricKind) if metric is None else [MetricKind(metric)]
    features, labels = dataset.features, dataset.labels
    _check_fit(arch, features, labels)
    split = _Labels(labels, arch.class_count)
    if split.classes.size < 2 and MetricKind.ROC_AUC_OVR in metrics:
        if metric is not None:
            raise MetricUndefinedError("ROC-AUC is undefined with a single class present")
        metrics.remove(MetricKind.ROC_AUC_OVR)
    chunk = max(1, _CHUNK_FLOATS // (labels.size * max(arch.layer_dims)))

    def logits_of(stack: np.ndarray) -> np.ndarray:
        return _forward_cached(_layer_views(stack, arch), arch.activation, features)[-1]

    def score(stack: np.ndarray) -> dict[MetricKind, np.ndarray]:
        if stack.ndim != 2 or stack.shape[1] != arch.param_count:
            raise ValueError(f"expected a (K, {arch.param_count}) parameter stack, got shape {stack.shape}")
        if stack.shape[0] <= chunk:
            logits = logits_of(stack)
            return {m: _score(logits, m, split) for m in metrics}
        out = {m: np.empty(stack.shape[0]) for m in metrics}
        for lo in range(0, stack.shape[0], chunk):
            logits = logits_of(stack[lo : lo + chunk])
            for m in metrics:
                out[m][lo : lo + chunk] = _score(logits, m, split)
        return out

    return score


def _evaluator(arch: ArchSpec, dataset: "LabeledDataset", metric: MetricKind | str) -> Callable[[ParamVector], float]:
    """`evaluate` of many models on one split: each call checks the model's
    parameters, and the first one prepares the `_scorer`, so the split is
    checked once, and only if a model is scored."""
    scorer = None

    def evaluate_fn(params: ParamVector) -> float:
        nonlocal scorer
        _check_params(params, arch)
        scorer = scorer or _scorer(arch, dataset, metric)
        (scores,) = scorer(params.values[None]).values()
        return float(scores[0])

    return evaluate_fn


def evaluate(params: ParamVector, arch: ArchSpec, dataset: "LabeledDataset", metric: MetricKind | str) -> float:
    """Score in [0, 1] for the dataset under the given metric (higher is better).

    The split is used as given; this is the one-model case of `_evaluator`."""
    return _evaluator(arch, dataset, metric)(params)


# The trainer's five `@` shapes: a 36-member stack of the default 6-16-3 net on
# 32-row batches, forward (two) and backward (three).
_TRAINER_MATMULS = (((36, 32, 6), (36, 6, 16)), ((36, 32, 16), (36, 16, 3)), ((36, 6, 32), (36, 32, 16)),
                    ((36, 16, 32), (36, 32, 3)), ((36, 32, 3), (36, 3, 16)))


def _openblas_core() -> str:
    """The core numpy's bundled OpenBLAS chose at load, or "unknown" where no bundled library reports one."""
    import ctypes
    from pathlib import Path

    numpy_dir = Path(np.__file__).parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _kernel_fingerprint() -> str:
    """What a run's bits depend on besides the code and its inputs: a digest
    of `np.exp` and one of `@` at the trainer's shapes, both on fixed inputs,
    and the OpenBLAS core. `numpy.__cpu_features__` names the hardware, not
    the loops a run takes."""
    rng = np.random.default_rng(0)
    exp = hashlib.sha256(np.exp(4.0 * rng.standard_normal(36 * 32 * 3)).tobytes())
    matmul = hashlib.sha256()
    for a, b in _TRAINER_MATMULS:
        matmul.update((rng.standard_normal(a) @ rng.standard_normal(b)).tobytes())
    return f"exp {exp.hexdigest()[:12]}, matmul {matmul.hexdigest()[:12]}, openblas {_openblas_core()}"
