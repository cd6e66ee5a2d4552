"""Network engine tests: forward/gradient math against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit import nn
from soupkit.nn import (
    ArchSpec,
    Batch,
    MetricKind,
    MetricUndefinedError,
    ParamVector,
    cross_entropy,
    evaluate,
    forward,
    gradient,
    init_params,
    last_layer_slice,
    pack_params,
    softmax,
    unpack_params,
)
from soupkit.data import LabeledDataset


# ---------------------------------------------------------------------------
# ArchSpec / ParamVector plumbing

def test_arch_spec_validation():
    with pytest.raises(ValueError):
        ArchSpec((4,))
    with pytest.raises(ValueError):
        ArchSpec((4, 0, 2))
    with pytest.raises(ValueError):
        ArchSpec((4, 3), activation="sigmoid")


def test_arch_spec_shapes_and_count():
    arch = ArchSpec((2, 4, 3), "tanh")
    assert arch.layer_shapes() == [(2, 4), (4, 3)]
    # 2*4+4 + 4*3+3 = 27
    assert arch.param_count == 27
    assert arch.input_dim == 2
    assert arch.class_count == 3


def test_arch_signature_distinguishes_arch():
    a = ArchSpec((2, 4, 3), "relu")
    b = ArchSpec((2, 4, 3), "tanh")
    c = ArchSpec((2, 5, 3), "relu")
    assert len(a.signature) == 16
    assert len({a.signature, b.signature, c.signature}) == 3
    # stable across instances
    assert a.signature == ArchSpec((2, 4, 3), "relu").signature


def test_param_vector_requires_1d():
    with pytest.raises(ValueError):
        ParamVector(np.zeros((2, 2)), "x")


def test_init_params_deterministic_and_zero_bias():
    arch = ArchSpec((3, 5, 2))
    p1 = init_params(arch, seed=7)
    p2 = init_params(arch, seed=7)
    p3 = init_params(arch, seed=8)
    assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(p1.values, p3.values)
    assert p1.size == arch.param_count
    for _, b in unpack_params(p1, arch):
        assert np.all(b == 0.0)


def test_init_params_he_scale():
    # wide layer so the sample std concentrates
    arch = ArchSpec((200, 100, 2), "relu")
    w, _ = unpack_params(init_params(arch, seed=0), arch)[0]
    assert abs(w.std() - math.sqrt(2.0 / 200)) < 0.01


def test_pack_unpack_roundtrip_and_views():
    arch = ArchSpec((2, 3, 2))
    params = init_params(arch, seed=1)
    layers = unpack_params(params, arch)
    repacked = pack_params(layers, arch)
    assert np.array_equal(repacked.values, params.values)
    # unpack returns views into the flat vector, not copies
    layers[0][0][0, 0] = 123.0
    assert params.values[0] == 123.0


def test_unpack_rejects_wrong_arch():
    arch = ArchSpec((2, 3, 2))
    other = ArchSpec((2, 4, 2))
    params = init_params(arch, seed=0)
    with pytest.raises(ValueError):
        unpack_params(params, other)


def test_last_layer_slice():
    arch = ArchSpec((2, 4, 3))
    sl = last_layer_slice(arch)
    assert sl == slice(arch.param_count - (4 * 3 + 3), arch.param_count)
    params = init_params(arch, seed=0)
    w, b = unpack_params(params, arch)[-1]
    head = params.values[sl]
    assert np.array_equal(head, np.concatenate([w.ravel(), b]))


# ---------------------------------------------------------------------------
# Forward pass vs a per-element loop oracle

def _forward_oracle(params, arch, x):
    """Scalar-loop forward pass, independent of the vectorized code path."""
    layers = unpack_params(params, arch)
    act = (lambda v: max(v, 0.0)) if arch.activation == "relu" else math.tanh
    out = []
    for row in x:
        a = list(row)
        for li, (w, b) in enumerate(layers):
            z = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += a[i] * w[i, j]
                z.append(s)
            a = z if li == len(layers) - 1 else [act(v) for v in z]
        out.append(a)
    return np.array(out)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_loop_oracle(activation):
    arch = ArchSpec((2, 4, 3), activation)
    rng = np.random.default_rng(0)
    for trial in range(5):
        params = init_params(arch, seed=trial)
        x = rng.normal(size=(6, 2))
        batch = Batch(x, rng.integers(0, 3, size=6))
        got = forward(params, arch, batch)
        want = _forward_oracle(params, arch, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_validates_inputs():
    arch = ArchSpec((2, 4, 3))
    params = init_params(arch, seed=0)
    with pytest.raises(ValueError):
        forward(params, arch, Batch(np.zeros((2, 5)), np.zeros(2, dtype=int)))
    with pytest.raises(ValueError):
        forward(params, arch, Batch(np.zeros((2, 2)), np.array([0, 3])))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0.5, 1.0]))


_ARCH = ArchSpec((2, 4, 3))


@pytest.mark.parametrize("call, message", [
    (lambda: Batch(np.zeros((2, 3)), np.zeros((2, 1), dtype=int)), r"labels must be 1-D, got shape \(2, 1\)"),
    (lambda: pack_params([(np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))], _ARCH),
     r"layer shape mismatch: got W\(4, 2\) b\(2,\), expected \(4,3\)"),
    (lambda: nn._check_params(ParamVector(np.zeros(5), _ARCH.signature), _ARCH), "expected 27 parameters, got 5"),
    (lambda: cross_entropy(np.zeros(3), np.zeros(3, dtype=int)), r"logits must be 2-D, got shape \(3,\)"),
    (lambda: cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int)), r"labels shape \(2,\) does not match logits rows 3"),
], ids=["batch labels", "layer shape", "parameter count", "logits shape", "label shape"])
def test_engine_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# Loss

def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(8, 4)) * 50
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(logits + 1000.0), p, atol=1e-12)


def test_cross_entropy_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        logits = rng.normal(size=(7, 3)) * rng.uniform(0.1, 30)
        labels = rng.integers(0, 3, size=7)
        # independent scalar computation via direct log-softmax
        total = 0.0
        for row, y in zip(logits, labels):
            m = max(row)
            lse = m + math.log(sum(math.exp(v - m) for v in row))
            total += lse - row[y]
        want = total / len(labels)
        assert abs(cross_entropy(logits, labels) - want) < 1e-12


def test_cross_entropy_known_value():
    # uniform logits over k classes: loss = log(k)
    assert abs(cross_entropy(np.zeros((5, 4)), np.array([0, 1, 2, 3, 0])) - math.log(4)) < 1e-15


def test_cross_entropy_large_logits_stable():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    assert cross_entropy(logits, np.array([0, 1])) < 1e-12
    assert abs(cross_entropy(logits, np.array([1, 0])) - 1000.0) < 1e-9


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        cross_entropy(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


# ---------------------------------------------------------------------------
# Gradient vs central finite differences

def _fd_gradient(params, arch, batch, h=1e-6):
    base = params.values
    out = np.empty_like(base)
    for k in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[k] += h
        minus[k] -= h
        lp = cross_entropy(forward(ParamVector(plus, arch.signature), arch, batch), batch.labels)
        lm = cross_entropy(forward(ParamVector(minus, arch.signature), arch, batch), batch.labels)
        out[k] = (lp - lm) / (2 * h)
    return out


def test_gradient_matches_finite_differences_tanh():
    # tanh keeps the loss smooth so the FD comparison is well posed
    arch = ArchSpec((3, 5, 4, 2), "tanh")
    rng = np.random.default_rng(5)
    for trial in range(5):
        params = init_params(arch, seed=trial)
        batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 2, size=8))
        g = gradient(params, arch, batch).values
        fd = _fd_gradient(params, arch, batch)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_gradient_relu_subgradient_away_from_kink():
    arch = ArchSpec((2, 6, 3), "relu")
    rng = np.random.default_rng(6)
    params = init_params(arch, seed=2)
    batch = Batch(rng.normal(size=(10, 2)), rng.integers(0, 3, size=10))
    g = gradient(params, arch, batch).values
    fd = _fd_gradient(params, arch, batch)
    denom = np.maximum(np.abs(fd), 1e-3)
    # relu kinks can spoil single coordinates; the bulk must still agree
    assert np.median(np.abs(g - fd) / denom) < 1e-6


def test_gradient_descent_reduces_loss():
    arch = ArchSpec((2, 8, 2), "tanh")
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] > 0).astype(np.int64)
    batch = Batch(x, y)
    params = init_params(arch, seed=0)
    before = cross_entropy(forward(params, arch, batch), y)
    for _ in range(50):
        g = gradient(params, arch, batch)
        params = ParamVector(params.values - 0.5 * g.values, arch.signature)
    after = cross_entropy(forward(params, arch, batch), y)
    assert after < before * 0.5


def test_gradient_rejects_empty_batch():
    arch = ArchSpec((2, 3, 2))
    with pytest.raises(ValueError):
        gradient(init_params(arch, 0), arch, Batch(np.zeros((0, 2)), np.zeros(0, dtype=int)))


# ---------------------------------------------------------------------------
# Metrics

def _auc_pair_oracle(scores, positives):
    """O(n^2) pair counting with half credit for ties."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def _binary_auc(scores, positives):
    """Two-class ROC-AUC through `nn._score`: one model whose logits are
    (0, score) per row, so class 1's probability orders the rows as the
    scores do and class 0's reverses that order; the two one-vs-rest AUCs
    count the same pairs, and their mean is the binary AUC of the scores."""
    labels = np.asarray(positives, dtype=np.int64)
    logits = np.stack([np.zeros(len(scores)), np.asarray(scores, dtype=np.float64)], axis=-1)[None]
    return float(nn._score(logits, MetricKind.ROC_AUC_OVR, nn._Labels(labels, 2))[0])


def test_binary_auc_hand_cases():
    assert _binary_auc([0.9, 0.8, 0.7, 0.1], [1, 1, 0, 0]) == 1.0
    assert _binary_auc([0.9, 0.2, 0.7, 0.1], [1, 1, 0, 0]) == 0.75
    # all tied scores: chance level
    assert _binary_auc(np.ones(6), [1, 1, 1, 0, 0, 0]) == 0.5


def test_binary_auc_matches_pair_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # force ties
        positives = rng.integers(0, 2, size=n).astype(bool)
        if positives.all() or not positives.any():
            continue
        got = _binary_auc(scores, positives)
        assert abs(got - _auc_pair_oracle(scores, positives)) < 1e-12


def test_binary_auc_undefined_single_class():
    with pytest.raises(MetricUndefinedError):
        nn._scorer(ArchSpec((2, 2)), _dataset([[0.0, 0.1], [0.0, 0.2]], [1, 1], 2), MetricKind.ROC_AUC_OVR)


def _dataset(features, labels, class_count):
    return LabeledDataset(features=np.asarray(features, dtype=np.float64),
                          labels=np.asarray(labels, dtype=np.int64),
                          class_count=class_count, role="test", task_id="t")


def _rigged_params(arch):
    """Weights that copy input feature c to logit c, so argmax(x) = prediction."""
    w = np.eye(arch.input_dim, arch.class_count)
    b = np.zeros(arch.class_count)
    return pack_params([(w, b)], arch)


def test_evaluate_accuracy_and_macro_metrics():
    arch = ArchSpec((3, 3))
    params = _rigged_params(arch)
    onehot = np.eye(3)
    # 4 rows: predictions will be [0, 1, 2, 2]; truth [0, 1, 2, 1]
    feats = np.vstack([onehot[0], onehot[1], onehot[2], onehot[2]])
    ds = _dataset(feats, [0, 1, 2, 1], 3)
    assert evaluate(params, arch, ds, MetricKind.ACCURACY) == 0.75
    # recalls: class0 1/1, class1 1/2, class2 1/1 -> mean 5/6
    assert abs(evaluate(params, arch, ds, MetricKind.MACRO_RECALL) - 5 / 6) < 1e-12
    # f1: class0 1.0, class1 2/3 (p=1, r=.5), class2 2/3 (p=.5, r=1)
    want_f1 = (1.0 + 2 / 3 + 2 / 3) / 3
    assert abs(evaluate(params, arch, ds, MetricKind.MACRO_F1) - want_f1) < 1e-12


def test_macro_metrics_ignore_absent_classes():
    arch = ArchSpec((3, 3))
    params = _rigged_params(arch)
    onehot = np.eye(3)
    # class 2 never appears in the labels: macro averages over {0, 1} only
    ds = _dataset(np.vstack([onehot[0], onehot[1]]), [0, 1], 3)
    assert evaluate(params, arch, ds, MetricKind.MACRO_RECALL) == 1.0


def test_evaluate_roc_auc_ovr_matches_oracle():
    arch = ArchSpec((3, 3))
    params = _rigged_params(arch)
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(30, 3))
    labels = rng.integers(0, 3, size=30)
    ds = _dataset(feats, labels, 3)
    got = evaluate(params, arch, ds, MetricKind.ROC_AUC_OVR)
    probs = softmax(feats)  # identity head: logits == features
    aucs = [_auc_pair_oracle(probs[:, c], labels == c) for c in np.unique(labels)]
    assert abs(got - float(np.mean(aucs))) < 1e-12


def test_evaluate_auc_undefined_on_single_class():
    arch = ArchSpec((3, 3))
    ds = _dataset(np.eye(3)[:2], [1, 1], 3)
    with pytest.raises(MetricUndefinedError):
        evaluate(_rigged_params(arch), arch, ds, MetricKind.ROC_AUC_OVR)


def test_evaluate_accepts_metric_name_string():
    arch = ArchSpec((3, 3))
    ds = _dataset(np.eye(3), [0, 1, 2], 3)
    assert evaluate(_rigged_params(arch), arch, ds, "accuracy") == 1.0


# Reference per-class loops, kept here to pin the scorer's macro metrics
# bit for bit: average over the classes present in the labels, and a class
# with no predictions (or no hits) scores an F1 of zero.
def _reference_macro_recall(labels, preds):
    recalls = []
    for c in np.unique(labels):
        mask = labels == c
        recalls.append(float((preds[mask] == c).sum()) / float(mask.sum()))
    return float(np.mean(recalls))


def _reference_macro_f1(labels, preds):
    f1s = []
    for c in np.unique(labels):
        tp = float(((preds == c) & (labels == c)).sum())
        fp = float(((preds == c) & (labels != c)).sum())
        fn = float(((preds != c) & (labels == c)).sum())
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    return float(np.mean(f1s))


def test_class_metrics_match_reference_loops_exactly():
    rng = np.random.default_rng(10)
    for trial in range(300):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(1, 60))
        # draw labels and predictions from random class subsets, so some
        # classes are absent from the labels and some are never predicted;
        # every tenth trial has a single class in the labels
        label_classes = rng.choice(k, size=1 if trial % 10 == 0 else int(rng.integers(1, k + 1)),
                                   replace=False)
        pred_classes = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        labels = rng.choice(label_classes, size=n)
        preds = rng.choice(pred_classes, size=n)
        arch = ArchSpec((k, k))
        ds = _dataset(np.eye(k)[preds], labels, k)
        params = _rigged_params(arch)
        assert evaluate(params, arch, ds, MetricKind.ACCURACY) == int((preds == labels).sum()) / n
        assert evaluate(params, arch, ds, MetricKind.MACRO_RECALL) == _reference_macro_recall(labels, preds)
        assert evaluate(params, arch, ds, MetricKind.MACRO_F1) == _reference_macro_f1(labels, preds)


def test_stack_class_metrics_match_reference_loops_row_by_row():
    # one `_score` call per metric over a stack of one-hot predictions, each
    # row drawn from its own class subset, so rows differ in the classes they
    # never predict; the labels leave some classes absent
    rng = np.random.default_rng(28)
    for trial in range(200):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(1, 60))
        models = int(rng.integers(2, 12))
        label_classes = rng.choice(k, size=1 if trial % 10 == 0 else int(rng.integers(1, k + 1)),
                                   replace=False)
        labels = rng.choice(label_classes, size=n)
        preds = np.stack([rng.choice(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False), size=n)
                          for _ in range(models)])
        split = nn._Labels(labels, k)
        logits = np.eye(k)[preds]
        assert nn._score(logits, MetricKind.ACCURACY, split).tolist() == [
            int((p == labels).sum()) / n for p in preds]
        assert nn._score(logits, MetricKind.MACRO_RECALL, split).tolist() == [
            _reference_macro_recall(labels, p) for p in preds]
        assert nn._score(logits, MetricKind.MACRO_F1, split).tolist() == [
            _reference_macro_f1(labels, p) for p in preds]


def test_evaluate_rejects_wrong_feature_width():
    arch = ArchSpec((3, 3))
    ds = _dataset(np.eye(4), [0, 1, 2, 0], 3)
    with pytest.raises(ValueError, match=r"feature dim 4 does not match input dim 3"):
        evaluate(_rigged_params(arch), arch, ds, MetricKind.ACCURACY)


def test_evaluate_rejects_labels_outside_the_architecture():
    arch = ArchSpec((3, 3))
    ds = _dataset(np.eye(3), [0, 1, 4], 5)  # valid for the dataset, not for a 3-class head
    for metric in MetricKind:
        with pytest.raises(ValueError, match=r"labels out of range \[0, 3\)"):
            evaluate(_rigged_params(arch), arch, ds, metric)


# ---------------------------------------------------------------------------
# Stack scoring: `_scorer` of a (K, P) stack against per-model `evaluate`

def _assert_stack_parity(stack, arch, ds):
    """Every metric: `_scorer` equals per-model `evaluate` with `==` (NaN
    equal to NaN), or both raise MetricUndefinedError."""
    for metric in MetricKind:
        try:
            want = [evaluate(ParamVector(row, arch.signature), arch, ds, metric) for row in stack]
        except MetricUndefinedError:
            with pytest.raises(MetricUndefinedError):
                nn._scorer(arch, ds, metric)(stack)
            continue
        got = nn._scorer(arch, ds, metric)(stack)[metric]
        assert got.shape == (len(stack),)
        assert np.array_equal(got, want, equal_nan=True), metric


def _random_stack(arch, k_models, rng, scale=1.0):
    return rng.normal(size=(k_models, arch.param_count)) * scale


def test_scores_match_evaluate_with_ties():
    rng = np.random.default_rng(20)
    for arch in (ArchSpec((4, 5)), ArchSpec((4, 3, 5), "relu"), ArchSpec((4, 3, 5), "tanh")):
        # small-integer weights over 0/1 features tie many logits and probabilities
        stack = rng.integers(-1, 2, size=(7, arch.param_count)).astype(np.float64)
        ds = _dataset(rng.integers(0, 2, size=(40, 4)), rng.integers(0, 5, size=40), 5)
        _assert_stack_parity(stack, arch, ds)


@pytest.mark.parametrize("present", [10, 12])
def test_scores_match_evaluate_with_absent_and_never_predicted_classes(present):
    rng = np.random.default_rng(21)
    k = 12
    arch = ArchSpec((k, k))
    feats = rng.normal(size=(90, k))
    # ten or twelve classes present, so each model's class average sums more
    # than numpy's eight-term block (a pairwise sum); with ten, two are absent
    labels = rng.choice(rng.choice(k, size=present, replace=False), size=90)
    assert np.count_nonzero(np.bincount(labels, minlength=k)) == present
    stack = np.stack([_rigged_params(arch).values] * 40) + _random_stack(arch, 40, rng, 0.3)
    for row in stack:  # a different set of classes is never predicted by each model
        _, b = nn._layer_views(row, arch)[0]
        b[rng.choice(k, size=int(rng.integers(1, 5)), replace=False)] = -1e3
    _assert_stack_parity(stack, arch, _dataset(feats, labels, k))


def test_scores_single_class_labels_leave_only_roc_auc_undefined():
    rng = np.random.default_rng(22)
    arch = ArchSpec((3, 4, 3))
    ds = _dataset(rng.normal(size=(12, 3)), [1] * 12, 3)
    stack = _random_stack(arch, 5, rng)
    with pytest.raises(MetricUndefinedError):
        nn._scorer(arch, ds, MetricKind.ROC_AUC_OVR)(stack)
    # decided from the labels alone, before any forward
    with pytest.raises(MetricUndefinedError):
        nn._scorer(arch, ds, MetricKind.ROC_AUC_OVR)(stack[:0])
    for metric in (MetricKind.ACCURACY, MetricKind.MACRO_RECALL, MetricKind.MACRO_F1):
        assert np.all(np.isfinite(nn._scorer(arch, ds, metric)(stack)[metric]))
    _assert_stack_parity(stack, arch, ds)


def test_scores_match_evaluate_with_infinite_and_nan_logits():
    rng = np.random.default_rng(23)
    arch = ArchSpec((3, 4, 3))
    ds = _dataset(rng.normal(size=(30, 3)), rng.integers(0, 3, size=30), 3)
    stack = _random_stack(arch, 6, rng)
    bias = slice(arch.param_count - 3, arch.param_count)
    stack[0, bias] = [np.inf, 0.0, 0.0]
    stack[1, bias] = [0.0, -np.inf, 0.0]
    stack[2, bias] = [np.nan, 0.0, 0.0]
    stack[3, bias] = [np.inf, np.inf, -np.inf]
    stack[4] *= 1e306  # overflows to +-inf inside the forward
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_stack_parity(stack, arch, ds)


@pytest.mark.parametrize("k_models", [1, 97])
def test_scores_match_evaluate_across_chunks(k_models):
    rng = np.random.default_rng(24)
    arch = ArchSpec((6, 32, 4), "tanh")
    ds = _dataset(rng.normal(size=(50, 6)), rng.integers(0, 4, size=50), 4)
    chunk = nn._CHUNK_FLOATS // (50 * 32)
    if k_models > 1:
        assert k_models > chunk and k_models % chunk != 0
    _assert_stack_parity(_random_stack(arch, k_models, rng), arch, ds)


def test_scores_reject_a_stack_of_the_wrong_width():
    arch = ArchSpec((3, 3))
    ds = _dataset(np.eye(3), [0, 1, 2], 3)
    for bad in (np.zeros(arch.param_count), np.zeros((2, arch.param_count + 1))):
        with pytest.raises(ValueError, match="parameter stack"):
            nn._scorer(arch, ds, MetricKind.ACCURACY)(bad)


def test_a_scorer_checks_the_split_once_and_each_stack_by_shape(split_checks):
    rng = np.random.default_rng(26)
    arch = ArchSpec((3, 4, 3))
    ds = _dataset(rng.normal(size=(30, 3)), rng.integers(0, 3, size=30), 3)
    stacks = [_random_stack(arch, k, rng) for k in (1, 5, 3)]
    for metric in MetricKind:
        score = nn._scorer(arch, ds, metric)
        got = [score(stack)[metric] for stack in stacks]
        with pytest.raises(ValueError, match="parameter stack"):
            score(stacks[0][0])
        assert len(split_checks) == 1 and split_checks.pop() is ds.features
        for g, stack in zip(got, stacks):
            assert np.array_equal(g, [evaluate(ParamVector(row, arch.signature), arch, ds, metric) for row in stack])
        split_checks.clear()
    # the split is refused when the scorer is prepared, before any stack
    with pytest.raises(ValueError, match="feature dim"):
        nn._scorer(ArchSpec((4, 3)), ds, MetricKind.ACCURACY)
    with pytest.raises(MetricUndefinedError):
        nn._scorer(arch, _dataset(ds.features, [1] * 30, 3), MetricKind.ROC_AUC_OVR)


def test_the_all_metrics_scorer_is_each_one_metric_scorer_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(28)
    arch = ArchSpec((4, 8, 3))
    feats = rng.normal(size=(30, 4))
    stack = _random_stack(arch, 7, rng)
    monkeypatch.setattr(nn, "_CHUNK_FLOATS", 3 * 30 * 8)  # three models a chunk: seven span three chunks
    without_auc = [m for m in MetricKind if m is not MetricKind.ROC_AUC_OVR]
    for labels, defined in ((rng.integers(0, 3, size=30), list(MetricKind)), ([1] * 30, without_auc)):
        ds = _dataset(feats, labels, 3)
        every = nn._scorer(arch, ds)
        got = every(stack)
        assert list(got) == defined  # only the undefined metric is left out, the rest in `MetricKind` order
        for metric in defined:
            one = nn._scorer(arch, ds, metric)
            alone = np.concatenate([one(stack[i : i + 1])[metric] for i in range(len(stack))])
            assert got[metric].tobytes() == one(stack)[metric].tobytes() == alone.tobytes(), metric
        assert {m: s.shape for m, s in every(stack[:0]).items()} == {m: (0,) for m in defined}


def test_a_sum_divided_by_the_count_is_np_mean_bit_for_bit():
    # `_score` takes its macro averages this way, for numpy's own arithmetic
    # (`add.reduce`, then `true_divide` by the count) at about half the cost
    rng = np.random.default_rng(27)
    for width in range(1, 21):
        rows = rng.random((200, width)) * 10.0 ** rng.integers(-12, 12, size=(200, width))
        rows[::7] = rng.random((len(rows[::7]), width))  # recall- and F1-like rows in [0, 1]
        assert rows.flags.c_contiguous and rows.dtype == np.float64
        want = np.mean(rows, axis=-1)
        assert np.array_equal((rows.sum(axis=-1) / rows.shape[-1]).view(np.int64), want.view(np.int64)), width


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(9)), seed=st.integers(0, 2**16), metric=st.sampled_from(list(MetricKind)))
def test_permuting_the_stack_permutes_the_scores(order, seed, metric):
    rng = np.random.default_rng(seed)
    arch = ArchSpec((3, 32, 4))
    # 300 rows: six models per chunk, so the nine models span two chunks
    ds = _dataset(rng.integers(-2, 3, size=(300, 3)), rng.integers(0, 4, size=300), 4)
    stack = _random_stack(arch, 9, rng)
    order = list(order)
    score = nn._scorer(arch, ds, metric)
    assert np.array_equal(score(stack[order])[metric], score(stack)[metric][order])


# Reference one-model ROC-AUC: per-class rank loop, kept here to pin the
# row-wise ranks of the stack scorer bit for bit.
def _reference_average_ranks(x):
    order = np.argsort(x, kind="mergesort")
    s = x[order]
    n = s.size
    starts = np.r_[0, np.flatnonzero(s[1:] != s[:-1]) + 1]
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _reference_roc_auc_ovr(logits, labels):
    probs = softmax(logits)
    aucs = []
    for c in np.unique(labels):
        positives = labels == c
        n_pos = int(positives.sum())
        n_neg = int(positives.size - n_pos)
        u = _reference_average_ranks(probs[:, c])[positives].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(float(u / (n_pos * n_neg)))
    return float(np.mean(aucs))


def test_stack_roc_auc_matches_reference_rank_loop_exactly():
    rng = np.random.default_rng(25)
    for trial in range(300):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size < 2:
            continue
        if trial % 3 == 0:
            logits = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(4, n, k))  # ties
        else:
            logits = rng.normal(size=(4, n, k))
        if trial % 5 == 0:
            odd = rng.random(logits.shape) < 0.05
            logits[odd] = rng.choice([np.inf, -np.inf, np.nan], size=int(odd.sum()))
        with np.errstate(invalid="ignore"):
            got = nn._score(logits, MetricKind.ROC_AUC_OVR, nn._Labels(labels, k))
            want = [_reference_roc_auc_ovr(x, labels) for x in logits]
        assert np.array_equal(got, want, equal_nan=True), trial



# ---------------------------------------------------------------------------
# Backprop kernel and softmax against the plain-reduction implementation
#
# The references below are the kernel as it was before the reductions over
# tiny axes were replaced: numpy max/sum over the class axis, a fancy-index
# one-hot, `sum(axis=-2)` bias gradients and fresh temporaries. The fast
# kernel must agree with them bit for bit.

def _reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_gradient_into(layers, activation, features, labels, out):
    act = (lambda z: np.maximum(z, 0.0)) if activation == "relu" else np.tanh
    a = features
    pres, acts = [], [a]
    for idx, (w, b) in enumerate(layers):
        z = a @ w + b[..., None, :]
        pres.append(z)
        a = act(z) if idx < len(layers) - 1 else z
        acts.append(a)
    n = labels.shape[-1]
    delta = _reference_softmax(acts[-1])
    flat = delta.reshape(-1, delta.shape[-1])
    flat[np.arange(flat.shape[0]), labels.ravel()] -= 1.0
    delta /= n
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = out[li]
        np.matmul(acts[li].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, out=gb)
        if li > 0:
            delta = delta @ layers[li][0].swapaxes(-1, -2)
            if activation == "relu":
                delta = delta * (pres[li - 1] > 0.0)
            else:
                delta = delta * (1.0 - acts[li] ** 2)


def _same_floats(got, want):
    """Equal values, NaN matching NaN, and equal signs on every non-NaN
    (so +0.0 and -0.0 differ); a NaN's sign bit carries no value."""
    number = ~np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[number]), np.signbit(want[number])))


def _odd_values(rng, shape, values, rate):
    """Array of `shape` that is 0 except at a `rate` share of cells drawn from `values`."""
    out = np.zeros(shape)
    hit = rng.random(shape) < rate
    out[hit] = rng.choice(values, size=int(hit.sum()))
    return out, hit


@pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 13])
def test_softmax_matches_plain_reductions_bitwise(classes):
    rng = np.random.default_rng(classes)
    specials = [np.inf, -np.inf, np.nan, 700.0, -700.0, 709.5, -745.0, 0.0, -0.0]
    for trial in range(60):
        shape = (int(rng.choice([1, 5, 37])), int(rng.choice([1, 29, 32])), classes)
        kind = trial % 4
        if kind == 0:
            logits = rng.normal(size=shape) * rng.choice([1.0, 30.0])
        elif kind == 1:
            logits = rng.choice([-1.0, 0.0, 0.5, 2.0], size=shape)  # ties
        elif kind == 2:
            logits = rng.choice([-700.0, 700.0], size=shape) + rng.normal(size=shape)
        else:
            logits = rng.normal(size=shape)
            odd, hit = _odd_values(rng, shape, specials, 0.2)
            logits[hit] = odd[hit]
        with np.errstate(invalid="ignore", over="ignore"):
            want = _reference_softmax(logits)
            got = softmax(logits)
        assert _same_floats(got, want), (classes, trial)


@pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 13])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_kernel_matches_plain_reductions_bitwise(classes, activation):
    rng = np.random.default_rng([classes, len(activation)])
    for width in range(1, 18):
        layer_dims = (4, width, classes) if width % 4 else (4, width, 3, classes)
        arch = ArchSpec(layer_dims, activation)
        for members in (1, 5, 37):
            rows = int(rng.choice([1, 29, 32]))
            scale = rng.choice([0.1, 1.0, 60.0])  # 60: logits out near +-700
            values = rng.normal(size=(members, arch.param_count)) * scale
            if width % 3 == 0:
                feats = rng.choice([-1.0, 0.0, 1.0], size=(members, rows, 4))  # ties
                values = np.round(values)
            else:
                feats = rng.normal(size=(members, rows, 4))
            if width % 5 == 0:
                odd, hit = _odd_values(rng, feats.shape, [np.inf, -np.inf, np.nan], 0.05)
                feats[hit] = odd[hit]
            labels = rng.integers(0, classes, size=(members, rows))
            want = np.empty_like(values)
            got = np.empty_like(values)
            with np.errstate(all="ignore"):
                _reference_gradient_into(nn._layer_views(values, arch), activation, feats, labels,
                                         nn._layer_views(want, arch))
                nn._gradient_into(nn._layer_views(values, arch), activation, feats, labels,
                                  nn._layer_views(got, arch))
            assert _same_floats(got, want), (layer_dims, activation, members, rows)
