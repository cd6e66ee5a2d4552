"""Task generator, augmentation, and CSV round-trip tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.data import (
    AUGMENT_PARAMS,
    CLASS_SEPARATION,
    OOD_SHIFT_FACTOR,
    AugmentLevel,
    LabeledDataset,
    TaskKind,
    TaskSpec,
    _atomic_write,
    _Jitter,
    augment,
    gen_task,
    load_csv,
    save_csv,
)
from soupkit.nn import Batch


def _spec(**kw):
    base = dict(kind=TaskKind.ROUGH, seed=0, dims=4, class_count=3, n_samples=300)
    base.update(kw)
    return TaskSpec(**base)


# ---------------------------------------------------------------------------
# TaskSpec

def test_task_spec_validation():
    with pytest.raises(ValueError):
        _spec(dims=0)
    with pytest.raises(ValueError):
        _spec(class_count=1)
    with pytest.raises(ValueError):
        _spec(imbalance_ratio=0.5)
    with pytest.raises(ValueError):
        _spec(label_noise_rate=1.0)
    with pytest.raises(ValueError):
        _spec(shift_magnitude=-0.1)


@pytest.mark.parametrize("field", ["imbalance_ratio", "cluster_heterogeneity", "shift_magnitude", "source_shift"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_task_spec_refuses_a_non_finite_knob(field, value):
    with pytest.raises(ValueError, match="finite"):
        _spec(**{field: value})


def test_smooth_spec_pins_complications_off():
    spec = TaskSpec(kind=TaskKind.SMOOTH, seed=0, dims=4, class_count=3, n_samples=300,
                    imbalance_ratio=9.0, label_noise_rate=0.3, shift_magnitude=2.0)
    assert spec.imbalance_ratio == 1.0
    assert spec.label_noise_rate == 0.0
    assert spec.shift_magnitude == 0.0


def test_task_spec_dict_roundtrip():
    spec = _spec(imbalance_ratio=4.0, label_noise_rate=0.1, cluster_heterogeneity=1.5,
                 shift_magnitude=1.2, source_shift=2.0)
    again = TaskSpec.from_dict(spec.to_dict())
    assert again == spec
    assert spec.task_id == "rough-0"


# ---------------------------------------------------------------------------
# gen_task

def test_gen_task_deterministic():
    a = gen_task(_spec(label_noise_rate=0.1, imbalance_ratio=3.0, shift_magnitude=1.0))
    b = gen_task(_spec(label_noise_rate=0.1, imbalance_ratio=3.0, shift_magnitude=1.0))
    for role, ds in a.splits().items():
        other = b.splits()[role]
        assert np.array_equal(ds.features, other.features), role
        assert np.array_equal(ds.labels, other.labels), role


def test_gen_task_seed_changes_data():
    a = gen_task(_spec(seed=0))
    b = gen_task(_spec(seed=1))
    assert not np.array_equal(a.train.features, b.train.features)


def test_gen_task_split_sizes_and_roles():
    bundle = gen_task(_spec(n_samples=300), ratios=(0.85, 0.05, 0.10))
    assert bundle.val.n == 15
    assert bundle.test.n == 30
    assert bundle.train.n == 300 - 15 - 30
    assert bundle.ood.n == bundle.test.n
    assert bundle.source.n == 300
    for role, ds in bundle.splits().items():
        assert ds.role == role
        assert ds.task_id == "rough-0"
        assert ds.dims == 4


def test_gen_task_imbalance_direction():
    bundle = gen_task(_spec(n_samples=3000, imbalance_ratio=6.0))
    counts = np.bincount(bundle.train.labels, minlength=3)
    assert counts[0] > counts[1] > counts[2]
    assert counts[0] / counts[2] == pytest.approx(6.0, rel=0.15)
    # source stays balanced regardless
    src_counts = np.bincount(bundle.source.labels, minlength=3)
    assert src_counts.max() - src_counts.min() <= 1


def _pair_labels_by_row(a, b):
    """Align two datasets containing the same feature rows in different order."""
    key_a = np.argsort([row.tobytes() for row in a.features])
    key_b = np.argsort([row.tobytes() for row in b.features])
    assert np.array_equal(a.features[key_a], b.features[key_b])
    return a.labels[key_a], b.labels[key_b]


def test_gen_task_label_noise_only_on_train_and_val():
    clean = gen_task(_spec(seed=3, n_samples=3000))
    noisy = gen_task(_spec(seed=3, n_samples=3000, label_noise_rate=0.2))
    # the flip consumes extra rng draws, so row order shifts; rows themselves match
    la, lb = _pair_labels_by_row(clean.train, noisy.train)
    assert 0.1 < (la != lb).mean() < 0.3
    la, lb = _pair_labels_by_row(clean.val, noisy.val)
    assert (la != lb).any()
    # held-out splits come from separate streams and stay untouched
    assert np.array_equal(clean.test.features, noisy.test.features)
    assert np.array_equal(clean.test.labels, noisy.test.labels)
    assert np.array_equal(clean.ood.features, noisy.ood.features)
    assert np.array_equal(clean.ood.labels, noisy.ood.labels)


def test_gen_task_ood_is_further_shifted():
    spec = _spec(n_samples=4000, shift_magnitude=1.5)
    bundle = gen_task(spec)
    train_mu = bundle.train.features.mean(axis=0)
    test_delta = np.linalg.norm(bundle.test.features.mean(axis=0) - train_mu)
    ood_delta = np.linalg.norm(bundle.ood.features.mean(axis=0) - train_mu)
    assert test_delta == pytest.approx(1.5, abs=0.3)
    assert ood_delta == pytest.approx(OOD_SHIFT_FACTOR * 1.5, abs=0.4)


def test_gen_task_smooth_test_matches_train_distribution():
    bundle = gen_task(TaskSpec(kind=TaskKind.SMOOTH, seed=1, dims=4, class_count=3, n_samples=4000))
    mu_train = bundle.train.features.mean(axis=0)
    mu_test = bundle.test.features.mean(axis=0)
    assert np.linalg.norm(mu_train - mu_test) < 0.3


def test_gen_task_separation_scales_with_dims():
    # means are drawn at CLASS_SEPARATION / sqrt(d): norms concentrate near CLASS_SEPARATION
    spec = TaskSpec(kind=TaskKind.SMOOTH, seed=5, dims=400, class_count=3, n_samples=100)
    bundle = gen_task(spec)
    del bundle
    rng = np.random.default_rng(np.random.SeedSequence([0xDA7A, 5]).spawn(6)[0])
    means = CLASS_SEPARATION * rng.normal(size=(3, 400)) / np.sqrt(400)
    assert np.linalg.norm(means, axis=1) == pytest.approx(CLASS_SEPARATION, rel=0.1)


def test_gen_task_rejects_degenerate():
    with pytest.raises(ValueError):
        gen_task(_spec(n_samples=2))
    with pytest.raises(ValueError):
        gen_task(_spec(), ratios=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        gen_task(_spec(), ratios=(0.5, 0.3, 0.3))


# ---------------------------------------------------------------------------
# augment

def _batch(n=200, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(rng.normal(size=(n, d)), rng.integers(0, 3, size=n))


def test_augment_minimal_is_identity():
    batch = _batch()
    out = augment(batch, AugmentLevel.MINIMAL, np.random.default_rng(0))
    assert out is batch  # no copy, bitwise-identical by construction


def test_augment_medium_jitters_features_only():
    batch = _batch()
    out = augment(batch, AugmentLevel.MEDIUM, np.random.default_rng(1))
    assert out is not batch
    assert np.array_equal(out.labels, batch.labels)
    delta = out.features - batch.features
    sigma = AUGMENT_PARAMS[AugmentLevel.MEDIUM][0]
    assert abs(delta.std() - sigma) < 0.01
    assert abs(delta.mean()) < 0.01


def test_augment_heavy_zeroes_features():
    batch = _batch(n=2000)
    out = augment(batch, AugmentLevel.HEAVY, np.random.default_rng(2))
    zero_rate = (out.features == 0.0).mean()
    assert zero_rate == pytest.approx(AUGMENT_PARAMS[AugmentLevel.HEAVY][1], abs=0.02)


def test_augment_deterministic_given_rng_state():
    batch = _batch()
    a = augment(batch, "heavy", np.random.default_rng(7))
    b = augment(batch, "heavy", np.random.default_rng(7))
    assert np.array_equal(a.features, b.features)


# The one-row augmentation as it was before it ran over the member stack:
# the stacked `_Jitter` must draw and produce exactly this, row by row.
def _reference_jitter(features, sigma, dropout_p, rng):
    if sigma == 0.0 and dropout_p == 0.0:
        return features
    feats = features + rng.normal(0.0, sigma, size=features.shape)
    if dropout_p > 0.0:
        feats = feats * (rng.random(features.shape) >= dropout_p)
    return feats


@pytest.mark.parametrize("rows", [32, 29, 1])
def test_stacked_jitter_matches_per_row_reference(rows):
    rng = np.random.default_rng(rows)
    noise = [AUGMENT_PARAMS[level] for level in AugmentLevel] * 3 + [
        (0.0, 0.3), (0.2, 0.0), (0.0, 0.5), (1.5, 0.0), (0.1, 1.0), (-0.0, 0.0), (float("nan"), 0.0)]
    # the last row is not listed: untouched, like a frozen member
    members = [(k, sigma, p, np.random.default_rng([rows, k])) for k, (sigma, p) in enumerate(noise)]
    reference_rngs = [np.random.default_rng([rows, k]) for k in range(len(noise))]
    # buffers for 32-row batches, kept across calls: a full batch, a batch of
    # `rows` in the leading rows, then a full batch after row 5 (heavy) stops
    jitter = _Jitter((len(noise) + 1, 32, 6), members)
    for call, n in enumerate([32, rows, 32]):
        if call == 2:
            jitter.stop(5)
        stack = rng.normal(size=(len(noise) + 1, n, 6))
        stack[rng.random(stack.shape) < 0.1] = -0.0
        stack[0, 0, :3] = [np.inf, -np.inf, np.nan]
        want = stack.copy()
        for k, (sigma, p) in enumerate(noise):
            if not (call == 2 and k == 5):
                want[k] = _reference_jitter(want[k], sigma, p, reference_rngs[k])
        got = stack.copy()
        jitter(got)
        assert got.tobytes() == want.tobytes(), call
    for (_, _, _, used), reference in zip(members, reference_rngs):
        assert used.bit_generator.state == reference.bit_generator.state


def test_augment_is_the_one_row_reference():
    batch = _batch(n=29)
    batch.features[:4] = -0.0
    for seed, level in enumerate(AugmentLevel):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment(batch, level, rng)
        want = _reference_jitter(batch.features, *AUGMENT_PARAMS[level], reference)
        assert out.features.tobytes() == want.tobytes(), level
        assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# CSV round trip

def test_csv_roundtrip_bitwise(tmp_path):
    bundle = gen_task(_spec(label_noise_rate=0.1))
    path = tmp_path / "train.csv"
    save_csv(bundle.train, path)
    back = load_csv(path, role="train", task_id=bundle.train.task_id,
                    class_count=bundle.train.class_count)
    assert np.array_equal(back.features, bundle.train.features)
    assert np.array_equal(back.labels, bundle.train.labels)
    assert back.class_count == 3


# What `Store.load_dataset` passes along with the path.
_ARGS = dict(role="train", task_id="t", class_count=5)


def test_load_csv_diagnostics(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,label\n1.0,0\n2.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(ragged, **_ARGS)

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("f0,label\n1.0,0\nxyz,1\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(bad_cell, **_ARGS)

    frac_label = tmp_path / "frac.csv"
    frac_label.write_text("f0,label\n1.0,0.5\n")
    with pytest.raises(ValueError, match="non-integer label"):
        load_csv(frac_label, **_ARGS)

    missing = tmp_path / "missing.csv"
    missing.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="no column named"):
        load_csv(missing, **_ARGS)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty, **_ARGS)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), class_count=2, role="nope", task_id="t")
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), class_count=2, role="train", task_id="t")
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.nan, 0.0]]), np.array([0]), class_count=2, role="train", task_id="t")


def _dataset(features, labels, class_count=2):
    return lambda: LabeledDataset(np.asarray(features), np.asarray(labels), class_count=class_count,
                                  role="train", task_id="t")


@pytest.mark.parametrize("make, message", [
    (_dataset(np.zeros(3), np.zeros(3, dtype=int)), r"features must be a non-empty 2-D array, got shape \(3,\)"),
    (_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)), r"features must be a non-empty 2-D array, got shape \(0, 2\)"),
    (_dataset(np.zeros((3, 2)), np.zeros(2, dtype=int)), r"labels shape \(2,\) does not match 3 rows"),
    (_dataset(np.zeros((2, 2)), [0.0, 1.0]), "labels must be integers, got dtype float64"),
    (_dataset(np.zeros((2, 2)), [0, 0], class_count=1), "class_count must be at least 2, got 1"),
    (_dataset([[np.inf, 0.0]], [0]), "non-finite features in the train split of task t"),
    (lambda: _spec(n_samples=0), "n_samples must be positive, got 0"),
], ids=["1-D features", "no rows", "label shape", "float labels", "one class", "non-finite", "no samples"])
def test_dataset_and_spec_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _csv_writer_save(dataset, path):
    """`save_csv` as it was, one `csv.writer` row at a time: the byte reference."""
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.dims)] + ["label"])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(x)) for x in row] + [int(lab)])


def test_save_csv_bytes_match_csv_writer(tmp_path):
    tiny = np.finfo(np.float64).smallest_subnormal
    feats = np.array([[-0.0, 0.0, 1.0, -3.0],
                      [tiny, -tiny, 2.5e-310, 1e-300],
                      [1e300, -1e300, 1e16, 123456789.0],
                      [0.1, 1 / 3, -2.0 ** 60, np.finfo(np.float64).max]])
    odd = LabeledDataset(feats, np.array([0, 2, 1, 11]), class_count=12, role="train", task_id="t")
    bundle = gen_task(_spec(label_noise_rate=0.1))
    for name, ds in [("odd", odd), *bundle.splits().items()]:
        save_csv(ds, tmp_path / f"{name}.csv")
        _csv_writer_save(ds, tmp_path / f"{name}.ref.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.ref.csv").read_bytes()
    back = load_csv(tmp_path / "odd.csv", "train", "t", 12)
    assert np.array_equal(back.features, feats)
    assert np.signbit(back.features[0, 0])


def test_save_csv_failing_mid_write_keeps_previous_file(tmp_path, full_disk):
    bundle = gen_task(_spec())
    path = tmp_path / "train.csv"
    save_csv(bundle.train, path)
    before = path.read_bytes()
    full_disk("train.csv")
    with pytest.raises(OSError):
        save_csv(bundle.val, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]


def test_atomic_write_never_shares_a_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "train.csv"
    target.write_bytes(b"published")
    taken = tmp_path / f"train.csv.{'07' * 8}.tmp"
    taken.write_bytes(b"another writer's")
    monkeypatch.setattr("soupkit.data.os.urandom", lambda n: b"\x07" * n)
    with pytest.raises(FileExistsError):
        _atomic_write(str(target), b"new")
    assert target.read_bytes() == b"published"
    assert taken.read_bytes() == b"another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([target.name, taken.name])


# ---------------------------------------------------------------------------
# One-shot CSV parsing against the per-cell reference

def _per_cell_load_csv(path, role, task_id, class_count):
    """`load_csv` as it was, `float()` on one cell at a time: the parsing reference."""
    import csv

    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    try:
        label_idx = header.index("label")
    except ValueError:
        raise ValueError(f"{path}: no column named 'label' in header {header}") from None
    width = len(header)
    feats = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-numeric cell {cell!r}") from None
            if j == label_idx:
                if value != int(value):
                    raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-integer label {cell!r}")
                labels[i] = int(value)
            else:
                feats[i, j if j < label_idx else j - 1] = value
    return LabeledDataset(feats, labels, class_count=class_count, role=role, task_id=task_id)


def _outcome(load, path, **kw):
    """What a loader returns, as bytes, or the type and text of what it raises."""
    try:
        ds = load(path, **kw)
    except Exception as exc:  # the reference's exception is the expected one
        return type(exc).__name__, str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.labels.tobytes(), ds.labels.dtype,
            ds.class_count, ds.role, ds.task_id)


@pytest.mark.parametrize("kind", [TaskKind.ROUGH, TaskKind.SMOOTH])
def test_load_csv_parses_every_split_as_the_per_cell_reference(tmp_path, kind):
    bundle = gen_task(_spec(kind=kind, label_noise_rate=0.1, class_count=4))
    for role, ds in bundle.splits().items():
        path = tmp_path / f"{kind.value}-{role}.csv"
        save_csv(ds, path)
        want = _outcome(_per_cell_load_csv, path, role=role, task_id=ds.task_id, class_count=4)
        assert _outcome(load_csv, path, role=role, task_id=ds.task_id, class_count=4) == want, role
        assert want[0] == ds.features.tobytes() and want[2] == ds.labels.tobytes(), role


_ODD_FEATURES = ["-0.0", "5e-324", "1.7976931348623157e+308", "1e-05", "+1.5", " 2.5 ", "1_000", "-2.0e-308",
                  "0.1", "1.0000000000000002", "-4.9406564584124654e-324", "\u0661\u0662"]
_ODD_LABELS = ["0", "1.0", "+2", "-0.0", "2e0", " 1 "]


@pytest.mark.parametrize("label_at", [0, 1, 2])
def test_load_csv_parses_hand_written_cells_as_the_per_cell_reference(tmp_path, label_at):
    rows = []
    for k, (a, b) in enumerate(zip(_ODD_FEATURES, _ODD_FEATURES[::-1])):
        row = [a, b]
        row.insert(label_at, _ODD_LABELS[k % len(_ODD_LABELS)])
        rows.append(",".join(row))
    header = ["f0", "f1"]
    header.insert(label_at, "label")
    path = tmp_path / "odd.csv"
    path.write_text("\n".join([",".join(header)] + rows) + "\n", encoding="utf-8")
    want = _outcome(_per_cell_load_csv, path, **_ARGS)
    assert isinstance(want[0], bytes), want
    assert _outcome(load_csv, path, **_ARGS) == want


@pytest.mark.parametrize("text, message", [
    ("f0,f1,label\n1,2,0\n3,4\n", "row 2 has 2 cells, expected 3"),
    ("f0,f1,label\n1,2,0\n3,4,1,5\n", "row 2 has 4 cells, expected 3"),
    ("f0,f1,label\n1,2,0\n3,x,1\n", "row 2, column 2: non-numeric cell 'x'"),
    ("f0,f1,label\n1,,0\n", "row 1, column 2: non-numeric cell ''"),
    ("f0,f1,label\n1,2,a\n", "row 1, column 3: non-numeric cell 'a'"),
    ("f0,f1,label\n1,2,0\n1,2,0.5\n", "row 2, column 3: non-integer label '0.5'"),
    ("f0,f1,label\n1,2,0\n3,4,1\nx,5,1.5\n", "row 3, column 1: non-numeric cell 'x'"),
    ("f0,f1,label\n1,2,nan\n", None),
    ("f0,f1,label\n1,2,inf\n", None),
    ("f0,f1,label\n1,2,1e400\n", None),
    ("f0,f1,label\n1,2,1e19\n", None),
    ("f0,f1,label\n1,2,-9223372036854775808\n", None),
    ("f0,f1,label\n1,2,-1\n", None),
    ("f0,f1,label\nnan,2,0\n", None),
    ("f0,f1,label\n1,-inf,0\n", None),
    ("f0,f1,label\n1,2\n", "row 1 has 2 cells, expected 3"),
    ("f0,label,f1\n1,2\n3,4\n", "row 1 has 2 cells, expected 3"),
    ("f0,f1\n1,2\n", "no column named 'label' in header ['f0', 'f1']"),
    ("1.5,2.5,0\n-0.25,0.75,1\n", "no column named 'label' in header ['1.5', '2.5', '0']"),
    ("f0,f1,label\n", "header but no data rows"),
])
def test_load_csv_errors_are_those_of_the_per_cell_reference(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    want = _outcome(_per_cell_load_csv, path, **_ARGS)
    assert isinstance(want[0], str), want
    assert _outcome(load_csv, path, **_ARGS) == want
    if message is not None:
        assert want == ("ValueError", f"{path}: {message}")


_CELLS = st.one_of(st.floats().map(repr), st.integers(-2, 4).map(str),
                   st.sampled_from(["x", "", "nan", "-inf", "1e400", " 3 ", "+0", "-0.0", "0.5", "1e19", "label"]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=4), min_size=1, max_size=6),
       width=st.integers(1, 4), label_at=st.integers(0, 4))
def test_load_csv_agrees_with_the_per_cell_reference_on_any_cells(rows, width, label_at):
    # a header `width` cells wide, with `label` at `label_at`, or with no `label` when that is past its end
    header = [f"f{i}" for i in range(width)]
    if label_at < width:
        header[label_at] = "label"
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cells.csv"
        path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        assert _outcome(load_csv, path, **_ARGS) == _outcome(_per_cell_load_csv, path, **_ARGS)
