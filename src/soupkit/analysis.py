"""Weight-space analysis: linear interpolation curves, 2-D landscape slices
through three models, local-minima counting, OOD report tables, and
training-cost bookkeeping.

Scores follow the engine convention (higher is better, in [0, 1]); landscape
cells hold validation error, i.e. one minus the score.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import LabeledDataset, _write_csv_rows
from .nn import ArchSpec, MetricKind, MetricUndefinedError, ParamVector, _check_params, _scorer
from .pipeline import STAGES, Checkpoint

DEFAULT_LMC_POINTS = 11
DEFAULT_RESOLUTION = (25, 25)
DEFAULT_EXTENT_MARGIN = 0.2


class DegeneratePlaneError(ValueError):
    """The three anchor models do not span a 2-D plane."""


@dataclass
class LmcCurve:
    endpoint_a: str
    endpoint_b: str
    metric: str
    lambdas: np.ndarray
    scores: np.ndarray

    def barrier(self) -> float:
        """Worst dip below the weaker endpoint along the path (0 if none)."""
        return float(min(self.scores[0], self.scores[-1]) - self.scores.min())

    def write_csv(self, path: str | Path) -> None:
        _write_csv_rows(path, [["lambda", "score"],
                               *([repr(float(lam)), repr(float(s))] for lam, s in zip(self.lambdas, self.scores))])


def _check_points(n_points: int) -> None:
    """An LMC sweep's point count is at least two; also checked where a config is read."""
    if n_points < 2:
        raise ValueError(f"need at least two interpolation points, got {n_points}")


def _resolution_checked(resolution: tuple[int, int]) -> tuple[int, int]:
    """A landscape's (nx, ny), at least 2x2; also checked where a config is read."""
    if min(resolution) < 2:
        raise ValueError(f"resolution must be at least 2x2, got {resolution}")
    return resolution


def _margin_checked(margin: float) -> None:
    """A landscape's extent margin; at -0.5 or less the padded box is empty,
    and at inf its coordinates are NaN. Also checked where a config is read."""
    if not margin > -0.5:
        raise ValueError(f"margin must be greater than -0.5, got {margin}")
    if not margin < np.inf:
        raise ValueError(f"margin must be finite, got {margin}")


def lmc_sweep(a: Checkpoint, b: Checkpoint, n_points: int,
              dataset: LabeledDataset, metric: MetricKind | str) -> LmcCurve:
    """Score lam*A + (1-lam)*B at evenly spaced lam in [0, 1].

    lam=0 evaluates B's exact weights and lam=1 evaluates A's.
    """
    _check_points(n_points)
    if a.arch.signature != b.arch.signature:
        raise ValueError("endpoints have different architectures")
    metric = MetricKind(metric)
    lambdas = np.linspace(0.0, 1.0, n_points)
    lam = lambdas[:, None]
    scores = _scorer(a.arch, dataset, metric)(lam * a.params.values + (1.0 - lam) * b.params.values)[metric]
    return LmcCurve(a.id, b.id, metric.value, lambdas, scores)


@dataclass
class PlaneBasis:
    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    anchor_coords: np.ndarray  # 3 x 2, rows ordered like the input anchors
    anchor_ids: tuple[str, str, str]
    arch: ArchSpec

    def point(self, x: float, y: float) -> ParamVector:
        return ParamVector(self.origin + x * self.u + y * self.v, self.arch.signature)


def plane_basis(theta1: Checkpoint, theta2: Checkpoint, theta3: Checkpoint) -> PlaneBasis:
    """Orthonormal 2-D slice through three models, origin at the first.

    u points along theta2 - theta1; v is the Gram-Schmidt remainder of
    theta3 - theta1. Collinear or coincident anchors are rejected.
    """
    sigs = {theta1.arch.signature, theta2.arch.signature, theta3.arch.signature}
    if len(sigs) > 1:
        raise ValueError("anchors have different architectures")
    origin = theta1.params.values
    d2 = theta2.params.values - origin
    d3 = theta3.params.values - origin
    n2 = np.linalg.norm(d2)
    scale = max(np.linalg.norm(origin), n2, np.linalg.norm(d3), 1.0)
    if n2 <= 1e-12 * scale:
        raise DegeneratePlaneError("first two anchors coincide")
    u = d2 / n2
    resid = d3 - (d3 @ u) * u
    n3 = np.linalg.norm(resid)
    if n3 <= 1e-12 * scale:
        raise DegeneratePlaneError("anchors are collinear")
    v = resid / n3
    coords = np.array([[0.0, 0.0], [n2, 0.0], [d3 @ u, n3]])
    return PlaneBasis(origin.copy(), u, v, coords, (theta1.id, theta2.id, theta3.id), theta1.arch)


def default_extent(anchor_coords: np.ndarray, margin: float = DEFAULT_EXTENT_MARGIN) -> tuple[float, float, float, float]:
    """Anchor bounding box padded by `margin` of its size on every side."""
    _margin_checked(margin)
    xs, ys = anchor_coords[:, 0], anchor_coords[:, 1]
    dx = (xs.max() - xs.min()) * margin
    dy = (ys.max() - ys.min()) * margin
    return (xs.min() - dx, xs.max() + dx, ys.min() - dy, ys.max() + dy)


@dataclass
class LandscapeGrid:
    basis: PlaneBasis
    extent: tuple[float, float, float, float]
    resolution: tuple[int, int]
    metric: str
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # error surface, shape (len(ys), len(xs))

    def write_csv(self, path: str | Path) -> None:
        _write_csv_rows(path, [["x", "y", "error"],
                               *([repr(float(x)), repr(float(y)), repr(float(self.values[i, j]))]
                                 for i, y in enumerate(self.ys) for j, x in enumerate(self.xs))])


def landscape_grid(basis: PlaneBasis, extent: tuple[float, float, float, float],
                   resolution: tuple[int, int], dataset: LabeledDataset,
                   metric: MetricKind | str) -> LandscapeGrid:
    """Validation-error surface over the slice; values[i][j] is the cell at
    (xs[j], ys[i])."""
    metric = MetricKind(metric)
    nx, ny = _resolution_checked(resolution)
    xmin, xmax, ymin, ymax = extent
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"empty extent {extent}")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    values = np.empty((ny, nx))
    along_x = basis.origin + xs[:, None] * basis.u  # cell = origin + x*u + y*v, as in PlaneBasis.point
    score = _scorer(basis.arch, dataset, metric)
    for i, y in enumerate(ys):
        values[i] = 1.0 - score(along_x + y * basis.v)[metric]
    return LandscapeGrid(basis, tuple(extent), (nx, ny), metric.value, xs, ys, values)


def count_local_minima(values: np.ndarray | LandscapeGrid) -> int:
    """Interior cells strictly below all eight neighbours, i.e. the only cell of their
    3x3 block at or below them: a NaN cell never counts and a NaN neighbour never blocks.
    A cell's block is counted as nine comparisons of the whole interior with shifted views."""
    if isinstance(values, LandscapeGrid):
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 3 or values.shape[1] < 3:
        return 0
    centre = values[1:-1, 1:-1]
    h, w = centre.shape
    at_or_below = sum(values[i : i + h, j : j + w] <= centre for i in range(3) for j in range(3))
    return int((at_or_below == 1).sum())


@dataclass
class ReportRow:
    label: str
    entry_id: str
    scores: dict[str, float | None]  # column name -> score, None when undefined


@dataclass
class ReportTable:
    metric: str
    columns: list[str]
    rows: list[ReportRow]

    def write_csv(self, path: str | Path) -> None:
        rows = [["method", "id", *self.columns]]
        for row in self.rows:
            scores = [row.scores.get(col) for col in self.columns]
            rows.append([row.label, row.entry_id,
                         *("undefined" if s is None else repr(float(s)) for s in scores)])
        _write_csv_rows(path, rows)


def ood_report(entries: Sequence[tuple[str, object]], id_test: LabeledDataset,
               ood_sets: Sequence[LabeledDataset], metric: MetricKind | str,
               arch: ArchSpec) -> ReportTable:
    """Score every entry on the in-distribution test set and each OOD set; a
    column whose labels leave the metric undefined is None in every row."""
    metric = MetricKind(metric)
    columns = ["id_test"]
    seen: dict[str, int] = {}
    for ds in ood_sets:
        name = f"{ds.task_id}:{ds.role}"
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        columns.append(name)
    stack = np.empty((len(entries), arch.param_count))
    for row, (_, entry) in zip(stack, entries):  # checkpoints and soup results alike
        _check_params(entry.params, arch)
        row[:] = entry.params.values
    by_column: dict[str, np.ndarray | None] = {}
    for col, ds in zip(columns, [id_test, *ood_sets]):
        try:
            by_column[col] = _scorer(arch, ds, metric)(stack)[metric]
        except MetricUndefinedError:
            by_column[col] = None
    rows = [ReportRow(label, entry.id, {col: None if s is None else float(s[i]) for col, s in by_column.items()})
            for i, (label, entry) in enumerate(entries)]
    return ReportTable(metric.value, columns, rows)


@dataclass
class BudgetReport:
    stage_epochs: dict[str, float]
    grid_total: float
    fgg_total: float
    ratio: float | None

    def write_csv(self, path: str | Path) -> None:
        _write_csv_rows(path, [
            ["quantity", "epochs"],
            *([f"stage:{stage}", repr(total)] for stage, total in sorted(self.stage_epochs.items())),
            ["grid_total", repr(self.grid_total)],
            ["fgg_total", repr(self.fgg_total)],
            ["fgg_over_grid_ratio", "undefined" if self.ratio is None else repr(self.ratio)],
        ])


def compute_budget(checkpoints: Sequence[Checkpoint]) -> BudgetReport:
    """Sum per-run training epochs by lineage stage.

    fgg_total covers base models plus their cyclical snapshots; the ratio
    compares that against the plain grid total and is None without a grid.
    """
    return _stage_budget((ck.lineage.stage, ck.epochs_consumed) for ck in checkpoints)


def _stage_budget(runs: Iterable[tuple[str, float]]) -> BudgetReport:
    """`compute_budget` over (lineage stage, epochs consumed) pairs, which a
    store's manifests hold without the weights; a stage not in STAGES is refused."""
    stage_epochs: dict[str, float] = {}
    for stage, epochs in runs:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
        stage_epochs[stage] = stage_epochs.get(stage, 0.0) + float(epochs)
    grid_total = stage_epochs.get("grid", 0.0)
    fgg_total = stage_epochs.get("base", 0.0) + stage_epochs.get("fission", 0.0)
    ratio = fgg_total / grid_total if grid_total > 0.0 else None
    return BudgetReport(stage_epochs, grid_total, fgg_total, ratio)
