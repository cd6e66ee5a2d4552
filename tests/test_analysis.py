"""Interpolation, plane-slice, minima-count, and report tests."""

import csv
import re

import numpy as np
import pytest

from soupkit.analysis import (
    BudgetReport,
    DegeneratePlaneError,
    LmcCurve,
    ReportRow,
    ReportTable,
    compute_budget,
    count_local_minima,
    default_extent,
    landscape_grid,
    lmc_sweep,
    ood_report,
    plane_basis,
)
from soupkit.data import LabeledDataset
from soupkit import nn
from soupkit.nn import ArchSpec, MetricKind, ParamVector, evaluate, pack_params
from soupkit.pipeline import Checkpoint, HyperConfig, Lineage

ARCH = ArchSpec((3, 3))  # identity-capable single layer: argmax(xW+b)


def _ck(cid, values, stage="grid"):
    return Checkpoint(id=cid, arch=ARCH, params=ParamVector(np.asarray(values, float), ARCH.signature),
                      config=None, lineage=Lineage(stage), val_metrics={}, epochs_consumed=1.0)


def _identity_ck(cid="grid-identity"):
    return _ck(cid, pack_params([(np.eye(3), np.zeros(3))], ARCH).values)


def _dataset(features, labels):
    return LabeledDataset(np.asarray(features, float), np.asarray(labels, np.int64),
                          class_count=3, role="test", task_id="t")


@pytest.fixture()
def ds():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=60)
    feats = rng.normal(size=(60, 3)) * 0.3
    feats[np.arange(60), labels] += 2.0  # identity weights score well
    return _dataset(feats, labels)


# ---------------------------------------------------------------------------
# LMC

def test_lmc_endpoints_bitwise(ds):
    rng = np.random.default_rng(1)
    a = _ck("grid-a", rng.normal(size=ARCH.param_count))
    b = _ck("grid-b", rng.normal(size=ARCH.param_count))
    curve = lmc_sweep(a, b, 5, ds, MetricKind.ACCURACY)
    assert curve.scores[-1] == evaluate(a.params, ARCH, ds, MetricKind.ACCURACY)
    assert curve.scores[0] == evaluate(b.params, ARCH, ds, MetricKind.ACCURACY)
    assert curve.endpoint_a == "grid-a"
    assert curve.lambdas[0] == 0.0 and curve.lambdas[-1] == 1.0
    assert len(curve.scores) == 5


def test_lmc_flat_for_identical_endpoints(ds):
    a = _identity_ck()
    curve = lmc_sweep(a, a, 7, ds, MetricKind.ACCURACY)
    assert np.all(curve.scores == curve.scores[0])
    assert curve.barrier() == 0.0


def test_lmc_barrier_hand_values():
    curve = LmcCurve("a", "b", "accuracy",
                     np.linspace(0, 1, 5), np.array([0.8, 0.5, 0.4, 0.7, 0.9]))
    # weaker endpoint 0.8, lowest point 0.4
    assert curve.barrier() == pytest.approx(0.4)
    no_dip = LmcCurve("a", "b", "accuracy", np.linspace(0, 1, 3), np.array([0.5, 0.7, 0.9]))
    assert no_dip.barrier() == 0.0


def test_lmc_validation(ds):
    a = _identity_ck()
    with pytest.raises(ValueError):
        lmc_sweep(a, a, 1, ds, MetricKind.ACCURACY)
    other = Checkpoint(id="grid-x", arch=ArchSpec((3, 4, 3)),
                       params=ParamVector(np.zeros(ArchSpec((3, 4, 3)).param_count),
                                          ArchSpec((3, 4, 3)).signature),
                       config=None, lineage=Lineage("grid"), val_metrics={}, epochs_consumed=0.0)
    with pytest.raises(ValueError):
        lmc_sweep(a, other, 3, ds, MetricKind.ACCURACY)


def test_lmc_write_csv(tmp_path, ds):
    a = _identity_ck()
    curve = lmc_sweep(a, a, 3, ds, MetricKind.ACCURACY)
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["lambda", "score"]
    assert len(rows) == 4
    assert float(rows[1][0]) == 0.0


# ---------------------------------------------------------------------------
# Plane basis

def _three_anchors(seed=2):
    rng = np.random.default_rng(seed)
    return (_ck("grid-p1", rng.normal(size=ARCH.param_count)),
            _ck("grid-p2", rng.normal(size=ARCH.param_count)),
            _ck("grid-p3", rng.normal(size=ARCH.param_count)))


def test_plane_basis_orthonormal():
    basis = plane_basis(*_three_anchors())
    assert abs(np.linalg.norm(basis.u) - 1.0) < 1e-12
    assert abs(np.linalg.norm(basis.v) - 1.0) < 1e-12
    assert abs(basis.u @ basis.v) < 1e-12


def test_plane_basis_anchor_coords_reconstruct_models():
    t1, t2, t3 = _three_anchors()
    basis = plane_basis(t1, t2, t3)
    np.testing.assert_allclose(basis.anchor_coords[0], [0.0, 0.0], atol=0)
    for coord, anchor in zip(basis.anchor_coords, (t1, t2, t3)):
        rebuilt = basis.point(coord[0], coord[1])
        np.testing.assert_allclose(rebuilt.values, anchor.params.values, atol=1e-10)
    # second anchor lies on the u axis at distance |theta2 - theta1|
    d = np.linalg.norm(t2.params.values - t1.params.values)
    np.testing.assert_allclose(basis.anchor_coords[1], [d, 0.0], atol=1e-12)
    assert basis.anchor_coords[2][1] > 0.0
    assert basis.anchor_ids == ("grid-p1", "grid-p2", "grid-p3")


def test_plane_basis_rejects_degenerate_anchors():
    t1, t2, _ = _three_anchors()
    with pytest.raises(DegeneratePlaneError):
        plane_basis(t1, _ck("grid-dup", t1.params.values.copy()), t2)
    collinear = _ck("grid-mid", 0.5 * (t1.params.values + t2.params.values))
    with pytest.raises(DegeneratePlaneError):
        plane_basis(t1, t2, collinear)


def test_plane_basis_refuses_anchors_of_different_architectures():
    t1, t2, _ = _three_anchors()
    other = ArchSpec((3, 2))
    t3 = Checkpoint(id="grid-other", arch=other, params=ParamVector(np.ones(other.param_count), other.signature),
                    config=None, lineage=Lineage("grid"), val_metrics={}, epochs_consumed=1.0)
    for anchors in ((t1, t2, t3), (t3, t1, t2)):
        with pytest.raises(ValueError, match="^anchors have different architectures$"):
            plane_basis(*anchors)


def test_default_extent_hand_case():
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 5.0]])
    xmin, xmax, ymin, ymax = default_extent(coords, margin=0.2)
    assert (xmin, xmax) == (-2.0, 12.0)
    assert (ymin, ymax) == (-1.0, 6.0)


@pytest.mark.parametrize("margin, message", [(-0.5, "margin must be greater than -0.5, got -0.5"),
                                             (np.inf, "margin must be finite, got inf")])
def test_default_extent_refuses_a_margin_that_gives_no_box(margin, message):
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [4.0, 5.0]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        default_extent(coords, margin)


# ---------------------------------------------------------------------------
# Landscape grid

def test_landscape_grid_values_match_direct_eval(ds):
    basis = plane_basis(*_three_anchors())
    extent = default_extent(basis.anchor_coords)
    grid = landscape_grid(basis, extent, (5, 4), ds, MetricKind.ACCURACY)
    assert grid.values.shape == (4, 5)  # (ny, nx)
    assert grid.xs.shape == (5,) and grid.ys.shape == (4,)
    for i in (0, 3):
        for j in (0, 2, 4):
            want = 1.0 - evaluate(basis.point(grid.xs[j], grid.ys[i]), ARCH, ds, MetricKind.ACCURACY)
            assert grid.values[i, j] == want
    assert grid.xs[0] == extent[0] and grid.xs[-1] == extent[1]


def test_landscape_grid_checks_the_split_once_for_all_its_rows(ds, split_checks):
    basis = plane_basis(*_three_anchors())
    landscape_grid(basis, default_extent(basis.anchor_coords), (5, 4), ds, MetricKind.MACRO_F1)
    assert len(split_checks) == 1 and split_checks[0] is ds.features


def test_landscape_grid_validation(ds):
    basis = plane_basis(*_three_anchors())
    with pytest.raises(ValueError):
        landscape_grid(basis, (0.0, 1.0, 0.0, 1.0), (1, 5), ds, MetricKind.ACCURACY)
    with pytest.raises(ValueError):
        landscape_grid(basis, (1.0, 1.0, 0.0, 1.0), (4, 4), ds, MetricKind.ACCURACY)


def test_landscape_csv_layout(tmp_path, ds):
    basis = plane_basis(*_three_anchors())
    grid = landscape_grid(basis, default_extent(basis.anchor_coords), (3, 3), ds, MetricKind.ACCURACY)
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["x", "y", "error"]
    assert len(rows) == 1 + 9
    # row-major over (y, x): first data row is (xs[0], ys[0])
    assert float(rows[1][0]) == grid.xs[0]
    assert float(rows[2][0]) == grid.xs[1]
    assert float(rows[1][2]) == grid.values[0, 0]


# ---------------------------------------------------------------------------
# Strict minima counting

def test_count_minima_single_interior_dip():
    surface = np.ones((5, 5))
    surface[2, 2] = 0.0
    assert count_local_minima(surface) == 1


def test_count_minima_boundary_does_not_count():
    surface = np.ones((5, 5))
    surface[0, 2] = 0.0
    surface[4, 4] = -1.0
    assert count_local_minima(surface) == 0


def test_count_minima_plateau_is_not_strict():
    surface = np.ones((5, 5))
    surface[2, 2] = 0.0
    surface[2, 3] = 0.0  # two equal adjacent cells: neither is strict
    assert count_local_minima(surface) == 0


def test_count_minima_two_separated_dips():
    surface = np.ones((5, 7))
    surface[2, 1] = 0.2
    surface[2, 5] = 0.1
    assert count_local_minima(surface) == 2


def test_count_minima_monotone_surface_has_none():
    xs = np.linspace(0, 1, 6)
    surface = xs[None, :] + xs[:, None]
    assert count_local_minima(surface) == 0


def test_count_minima_tiny_grids():
    assert count_local_minima(np.zeros((2, 5))) == 0
    assert count_local_minima(np.zeros((3, 2))) == 0


def _reference_count_minima(values):
    """The cell-by-cell scan: no neighbour below the cell, and the cell the
    only one of its 3x3 block equal to it."""
    count = 0
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            cell = values[i, j]
            block = values[i - 1 : i + 2, j - 1 : j + 2]
            if np.sum(block < cell) == 0 and np.sum(block == cell) == 1:
                count += 1
    return count


def test_count_minima_matches_reference_scan_with_ties_nan_and_inf():
    rng = np.random.default_rng(12)
    specials = np.array([np.nan, np.inf, -np.inf])
    for trial in range(400):
        shape = tuple(int(d) for d in rng.integers(3, 12, size=2))
        # few distinct levels force ties; NaN and +-inf land on random cells
        surface = rng.integers(0, 4, size=shape).astype(np.float64)
        if trial % 2:
            surface = rng.normal(size=shape)
        mask = rng.random(shape) < rng.choice([0.0, 0.05, 0.3])
        surface[mask] = rng.choice(specials, size=int(mask.sum()))
        assert count_local_minima(surface) == _reference_count_minima(surface), trial


def test_count_minima_nan_cell_never_counts_and_never_blocks():
    surface = np.ones((3, 3))
    surface[1, 1] = np.nan
    assert count_local_minima(surface) == 0
    surface = np.full((3, 3), np.nan)
    surface[1, 1] = 0.5
    assert count_local_minima(surface) == 1


def test_count_minima_accepts_grid_object(ds):
    basis = plane_basis(*_three_anchors())
    grid = landscape_grid(basis, default_extent(basis.anchor_coords), (4, 4), ds, MetricKind.ACCURACY)
    assert count_local_minima(grid) == count_local_minima(grid.values)


# ---------------------------------------------------------------------------
# OOD report

def test_ood_report_columns_and_scores(ds):
    rng = np.random.default_rng(3)
    ood1 = _dataset(rng.normal(size=(20, 3)), rng.integers(0, 3, size=20))
    ood2 = LabeledDataset(ood1.features.copy(), ood1.labels.copy(), 3, "ood", "t")
    ident = _identity_ck()
    table = ood_report([("best_grid", ident)], ds, [ood2, ood2], MetricKind.ACCURACY, ARCH)
    assert table.columns == ["id_test", "t:ood", "t:ood#1"]
    row = table.rows[0]
    assert row.label == "best_grid"
    assert row.entry_id == ident.id
    assert row.scores["id_test"] == evaluate(ident.params, ARCH, ds, MetricKind.ACCURACY)
    assert row.scores["t:ood"] == row.scores["t:ood#1"]


def test_ood_report_undefined_cells(tmp_path, ds):
    # single-class ood split makes AUC undefined; the cell must say so
    single = _dataset(np.zeros((4, 3)), [1, 1, 1, 1])
    table = ood_report([("m", _identity_ck())], ds, [single], MetricKind.ROC_AUC_OVR, ARCH)
    assert table.rows[0].scores[table.columns[1]] is None
    path = tmp_path / "report.csv"
    table.write_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["method", "id", "id_test", "t:test"]
    assert rows[1][3] == "undefined"


# ---------------------------------------------------------------------------
# Budget

def _budget_ck(stage, epochs, cid="x"):
    return Checkpoint(id=f"{stage}-{cid}", arch=ARCH,
                      params=ParamVector(np.zeros(ARCH.param_count), ARCH.signature),
                      config=None, lineage=Lineage(stage), val_metrics={},
                      epochs_consumed=epochs)


def test_compute_budget_sums_by_stage():
    cks = (
        [_budget_ck("pretrained", 10.0)]
        + [_budget_ck("grid", 12.0, cid=str(i)) for i in range(4)]
        + [_budget_ck("base", 12.0, cid=str(i)) for i in range(2)]
        + [_budget_ck("fission", 2.5, cid=str(i)) for i in range(4)]
    )
    report = compute_budget(cks)
    assert report.stage_epochs["grid"] == 48.0
    assert report.grid_total == 48.0
    assert report.fgg_total == 24.0 + 10.0
    assert report.ratio == pytest.approx(34.0 / 48.0)


def test_compute_budget_without_grid_has_no_ratio():
    report = compute_budget([_budget_ck("base", 5.0)])
    assert report.grid_total == 0.0
    assert report.ratio is None


def test_budget_csv_roundtrip(tmp_path):
    report = BudgetReport({"grid": 10.0, "base": 2.0}, 10.0, 2.0, 0.2)
    path = tmp_path / "budget.csv"
    report.write_csv(path)
    rows = {r[0]: r[1] for r in list(csv.reader(path.open()))[1:]}
    assert float(rows["grid_total"]) == 10.0
    assert float(rows["fgg_over_grid_ratio"]) == 0.2
    assert float(rows["stage:base"]) == 2.0


def test_report_table_write_csv(tmp_path):
    table = ReportTable("accuracy", ["id_test"],
                        [ReportRow("uniform", "soup-abc", {"id_test": 0.5})])
    path = tmp_path / "t.csv"
    table.write_csv(path)
    rows = list(csv.reader(path.open()))
    assert rows == [["method", "id", "id_test"], ["uniform", "soup-abc", "0.5"]]


def test_csv_writers_failing_mid_write_keep_previous_file(tmp_path, full_disk):
    budget = BudgetReport({"grid": 2.0}, 2.0, 0.0, 0.0)
    curve = LmcCurve("a", "b", "accuracy", np.array([0.0, 1.0]), np.array([0.5, 0.75]))
    table = ReportTable("accuracy", ["id_test"], [ReportRow("best", "grid-x", {"id_test": 0.5})])
    surface = landscape_grid(plane_basis(_identity_ck("grid-a"), _ck("grid-b", np.arange(12.0)),
                                         _ck("grid-c", np.arange(12.0) ** 2)),
                             (-1.0, 1.0, -1.0, 1.0), (2, 2),
                             _dataset([[1, 0, 0], [0, 1, 0]], [0, 1]), MetricKind.ACCURACY)
    writers = {"budget.csv": budget, "curve.csv": curve, "report.csv": table, "landscape.csv": surface}
    for name, obj in writers.items():
        obj.write_csv(tmp_path / name)
    before = {name: (tmp_path / name).read_bytes() for name in writers}
    for name, obj in writers.items():
        full_disk(name)
        with pytest.raises(OSError):
            obj.write_csv(tmp_path / name)
    assert {name: (tmp_path / name).read_bytes() for name in writers} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)


# ---------------------------------------------------------------------------
# The many-model callers equal one `evaluate` per model

WIDE = ArchSpec((3, 64, 3), "tanh")  # 200 rows x 64 wide: five models per scoring chunk


def _wide_ck(cid, values):
    return Checkpoint(id=cid, arch=WIDE, params=ParamVector(values, WIDE.signature),
                      config=None, lineage=Lineage("grid"), val_metrics={}, epochs_consumed=1.0)


@pytest.fixture()
def wide():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, size=200)
    feats = rng.normal(size=(200, 3))
    feats[np.arange(200), labels] += 1.0
    cks = [_wide_ck(f"grid-w{i}", rng.normal(size=WIDE.param_count) * 0.5) for i in range(3)]
    assert nn._CHUNK_FLOATS // (200 * 64) == 5
    return _dataset(feats, labels), cks


@pytest.mark.parametrize("metric", list(MetricKind))
def test_landscape_grid_cells_equal_evaluate_across_chunks(wide, metric):
    ds, cks = wide
    basis = plane_basis(*cks)
    grid = landscape_grid(basis, default_extent(basis.anchor_coords), (12, 3), ds, metric)
    for i, y in enumerate(grid.ys):
        for j, x in enumerate(grid.xs):
            assert grid.values[i, j] == 1.0 - evaluate(basis.point(x, y), WIDE, ds, metric), (i, j)


@pytest.mark.parametrize("metric", list(MetricKind))
def test_lmc_points_equal_evaluate_of_the_interpolated_vector(wide, metric):
    ds, (a, b, _) = wide
    curve = lmc_sweep(a, b, 13, ds, metric)
    for lam, score in zip(curve.lambdas, curve.scores):
        mixed = ParamVector(lam * a.params.values + (1.0 - lam) * b.params.values, WIDE.signature)
        assert score == evaluate(mixed, WIDE, ds, metric), lam


def test_ood_report_single_class_split_undefines_only_roc_auc(ds):
    rng = np.random.default_rng(12)
    entries = [(f"m{i}", _ck(f"grid-m{i}", rng.normal(size=ARCH.param_count))) for i in range(3)]
    single = _dataset(rng.normal(size=(8, 3)), [2] * 8)
    table = ood_report(entries, ds, [single], MetricKind.ROC_AUC_OVR, ARCH)
    for row, (_, ck) in zip(table.rows, entries):
        assert row.scores["id_test"] == evaluate(ck.params, ARCH, ds, MetricKind.ROC_AUC_OVR)
        assert row.scores["t:test"] is None
    for metric in (MetricKind.ACCURACY, MetricKind.MACRO_RECALL, MetricKind.MACRO_F1):
        table = ood_report(entries, ds, [single], metric, ARCH)
        for row, (_, ck) in zip(table.rows, entries):
            assert row.scores == {"id_test": evaluate(ck.params, ARCH, ds, metric),
                                  "t:test": evaluate(ck.params, ARCH, single, metric)}

