"""Network engine tests: forward/gradient math against independent oracles."""

import math

import numpy as np
import pytest

from soupkit.nn import (
    ArchSpec,
    Batch,
    MetricKind,
    MetricUndefinedError,
    ParamVector,
    binary_roc_auc,
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


def test_binary_auc_hand_cases():
    assert binary_roc_auc(np.array([0.9, 0.8, 0.7, 0.1]), np.array([1, 1, 0, 0], bool)) == 1.0
    assert binary_roc_auc(np.array([0.9, 0.2, 0.7, 0.1]), np.array([1, 1, 0, 0], bool)) == 0.75
    # all tied scores: chance level
    assert binary_roc_auc(np.ones(6), np.array([1, 1, 1, 0, 0, 0], bool)) == 0.5


def test_binary_auc_matches_pair_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # force ties
        positives = rng.integers(0, 2, size=n).astype(bool)
        if positives.all() or not positives.any():
            continue
        got = binary_roc_auc(scores, positives)
        assert abs(got - _auc_pair_oracle(scores, positives)) < 1e-12


def test_binary_auc_undefined_single_class():
    with pytest.raises(MetricUndefinedError):
        binary_roc_auc(np.array([0.1, 0.2]), np.array([1, 1], bool))


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
