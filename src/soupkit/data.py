"""Synthetic classification tasks, augmentation, splits, and CSV I/O.

Tasks are Gaussian class clusters in d dimensions. The "smooth" kind is the
benign baseline: balanced classes, clean labels, identical train/test
distributions. The "rough" kind layers on the complications that make
validation scores unreliable guides: heterogeneous cluster covariances, a
shifted pretraining source, class imbalance, a train-to-test covariate
shift, and label noise. Everything is deterministic in the task seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .nn import Batch, _Record

# Cluster-mean scale; together with unit base covariance this sets task difficulty.
CLASS_SEPARATION = 2.5
# The ood split shifts this much further along the test-shift direction.
OOD_SHIFT_FACTOR = 2.5

ROLES = ("train", "val", "test", "ood", "source")


class TaskKind(str, Enum):
    SMOOTH = "smooth"
    ROUGH = "rough"


class AugmentLevel(str, Enum):
    MINIMAL = "minimal"
    MEDIUM = "medium"
    HEAVY = "heavy"


# (jitter sigma, dropout probability) per level: the one augmentation table.
AUGMENT_PARAMS: dict[AugmentLevel, tuple[float, float]] = {
    AugmentLevel.MINIMAL: (0.0, 0.0),
    AugmentLevel.MEDIUM: (0.05, 0.0),
    AugmentLevel.HEAVY: (0.15, 0.1),
}


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int
    role: str
    task_id: str

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"features must be a non-empty 2-D array, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labs.shape} does not match {feats.shape[0]} rows")
        if not np.issubdtype(labs.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labs.dtype}")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"non-finite features in the {self.role} split of task {self.task_id}")
        if self.class_count < 2:
            raise ValueError(f"class_count must be at least 2, got {self.class_count}")
        if labs.min() < 0 or labs.max() >= self.class_count:
            raise ValueError(f"labels out of range [0, {self.class_count})")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")
        self.features = feats
        self.labels = labs.astype(np.int64)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dims(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class TaskSpec(_Record):
    kind: TaskKind
    seed: int
    dims: int
    class_count: int
    n_samples: int
    imbalance_ratio: float = 1.0
    label_noise_rate: float = 0.0
    cluster_heterogeneity: float = 0.0
    shift_magnitude: float = 0.0
    source_shift: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", TaskKind(self.kind))
        if self.dims < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.class_count < 2:
            raise ValueError(f"class_count must be at least 2, got {self.class_count}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not 1.0 <= self.imbalance_ratio < math.inf:
            raise ValueError(f"imbalance_ratio must be finite and >= 1, got {self.imbalance_ratio}")
        if not 0.0 <= self.label_noise_rate < 1.0:
            raise ValueError(f"label_noise_rate must lie in [0, 1), got {self.label_noise_rate}")
        if not all(0.0 <= x < math.inf for x in (self.cluster_heterogeneity, self.shift_magnitude, self.source_shift)):
            raise ValueError("heterogeneity and shift knobs must be non-negative and finite")
        if self.kind is TaskKind.SMOOTH:
            # The benign kind pins the complications off regardless of caller input.
            object.__setattr__(self, "imbalance_ratio", 1.0)
            object.__setattr__(self, "label_noise_rate", 0.0)
            object.__setattr__(self, "shift_magnitude", 0.0)

    @property
    def task_id(self) -> str:
        return f"{self.kind.value}-{self.seed}"


@dataclass
class TaskBundle:
    source: LabeledDataset
    train: LabeledDataset
    val: LabeledDataset
    test: LabeledDataset
    ood: LabeledDataset

    def splits(self) -> dict[str, LabeledDataset]:
        return {"source": self.source, "train": self.train, "val": self.val, "test": self.test, "ood": self.ood}


def _allocate_counts(n: int, priors: np.ndarray) -> np.ndarray:
    """Largest-remainder allocation of n rows to classes by prior weight."""
    exact = priors * n
    counts = np.floor(exact).astype(int)
    short = n - counts.sum()
    order = np.argsort(-(exact - counts), kind="mergesort")
    counts[order[:short]] += 1
    return counts


def _split_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    if len(ratios) != 3 or any(r <= 0.0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n_val = int(np.floor(n * ratios[1]))
    n_test = int(np.floor(n * ratios[2]))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split of {n} rows by {ratios} leaves an empty part")
    return n_train, n_val, n_test


def _sample_cluster_split(
    rng: np.random.Generator,
    n: int,
    means: np.ndarray,
    stds: np.ndarray,
    priors: np.ndarray,
    offset: np.ndarray,
    noise_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    n_classes, dims = means.shape
    counts = _allocate_counts(n, priors)
    feats = np.empty((n, dims))
    labels = np.empty(n, dtype=np.int64)
    pos = 0
    for c in range(n_classes):
        k = counts[c]
        feats[pos : pos + k] = means[c] + offset + rng.normal(size=(k, dims)) * stds[c]
        labels[pos : pos + k] = c
        pos += k
    if noise_rate > 0.0:
        flip = rng.random(n) < noise_rate
        bump = rng.integers(1, n_classes, size=n)
        labels[flip] = (labels[flip] + bump[flip]) % n_classes
    perm = rng.permutation(n)
    return feats[perm], labels[perm]


# A finite knob can still overflow float64, in the cluster scales or in the
# samples drawn with them. The features it spoils are refused in one error
# that names the task, so numpy's overflow warnings would only add lines.
@np.errstate(over="ignore", invalid="ignore")
def gen_task(spec: TaskSpec, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)) -> TaskBundle:
    """Build all five splits of a task deterministically from its seed."""
    if spec.n_samples < spec.class_count:
        raise ValueError(f"degenerate spec: {spec.n_samples} samples for {spec.class_count} classes")
    ss = np.random.SeedSequence([0xDA7A, int(spec.seed)])
    r_struct, r_source, r_train, r_val, r_test, r_ood = [np.random.default_rng(s) for s in ss.spawn(6)]

    c, d, h = spec.class_count, spec.dims, spec.cluster_heterogeneity
    means = CLASS_SEPARATION * r_struct.normal(size=(c, d)) / np.sqrt(d)
    scale = 1.0 + h * r_struct.random(c)
    stds = scale[:, None] * np.exp(0.25 * h * r_struct.normal(size=(c, d)))
    if spec.imbalance_ratio > 1.0:
        weights = spec.imbalance_ratio ** ((c - 1 - np.arange(c)) / (c - 1))
    else:
        weights = np.ones(c)
    priors = weights / weights.sum()
    shift_dir = r_struct.normal(size=d)
    shift_dir /= np.linalg.norm(shift_dir)
    source_dir = r_struct.normal(size=d)
    source_dir /= np.linalg.norm(source_dir)

    n_train, n_val, n_test = _split_sizes(spec.n_samples, ratios)
    uniform = np.ones(c) / c
    zero = np.zeros(d)
    parts = {
        "source": _sample_cluster_split(r_source, spec.n_samples, means, stds, uniform, spec.source_shift * source_dir, 0.0),
        "train": _sample_cluster_split(r_train, n_train, means, stds, priors, zero, spec.label_noise_rate),
        "val": _sample_cluster_split(r_val, n_val, means, stds, priors, zero, spec.label_noise_rate),
        "test": _sample_cluster_split(r_test, n_test, means, stds, priors, spec.shift_magnitude * shift_dir, 0.0),
        "ood": _sample_cluster_split(r_ood, n_test, means, stds, priors, OOD_SHIFT_FACTOR * spec.shift_magnitude * shift_dir, 0.0),
    }
    sets = {
        role: LabeledDataset(f, l, class_count=c, role=role, task_id=spec.task_id)
        for role, (f, l) in parts.items()
    }
    return TaskBundle(**sets)


def augment(batch: Batch, level: AugmentLevel | str, rng: np.random.Generator) -> Batch:
    """Feature-space augmentation at `level`'s AUGMENT_PARAMS; labels pass
    through untouched. The one-row case of `_Jitter`."""
    sigma, dropout_p = AUGMENT_PARAMS[AugmentLevel(level)]
    if sigma == 0.0 and dropout_p == 0.0:
        return batch
    feats = batch.features[None].copy()
    _Jitter(feats.shape, [(0, sigma, dropout_p, rng)])(feats)
    return Batch(feats[0], batch.labels)


class _Jitter:
    """Gaussian jitter then feature dropout, in place on (K, n, d) stacks of
    at most `shape`'s n rows, with its buffers built once for all calls.

    `members` lists (row, sigma, dropout_p, rng) for the rows to perturb, in
    draw order; other rows, rows with sigma and dropout_p both 0, and rows
    `stop` has been called on are left bitwise untouched. On each call every
    perturbed row draws from its own rng exactly what `rng.normal(0.0, sigma,
    (n, d))` and then, with dropout on, `rng.random((n, d))` would, into the
    leading n rows of its buffers, and gets `(x + noise) * (u >= dropout_p)`
    bit for bit. Only the draws are per row: scaling, adding and masking run
    once over the stack. Unchecked: each (sigma, dropout_p) is an AUGMENT_PARAMS row.
    """

    def __init__(self, shape: tuple[int, int, int],
                 members: Sequence[tuple[int, float, float, np.random.Generator]]) -> None:
        column = (shape[0], 1, 1)
        # Rows left alone get noise -0.0 and keep-mask 1.0: x + -0.0 and x * 1.0
        # are x for every float x, signed zeros and NaN included.
        self._noise = np.full(shape, -0.0)
        self._uniform = np.ones(shape)
        # one value per row, shaped to broadcast over the stack
        self._scale, self._shift, self._keep_below = np.ones(column), np.full(column, -0.0), np.zeros(column)
        self._draws = []
        for row, sigma, p, rng in members:
            if sigma != 0.0 or p != 0.0:
                self._draws.append((row, p, rng))
                self._scale[row], self._shift[row], self._keep_below[row] = sigma, 0.0, p
        self._dropping = any(p > 0.0 for _, p, _ in self._draws)

    def stop(self, row: int) -> None:
        """Leave `row` untouched from now on; its rng draws no more."""
        self._draws = [d for d in self._draws if d[0] != row]
        self._dropping = any(p > 0.0 for _, p, _ in self._draws)
        self._noise[row], self._uniform[row] = -0.0, 1.0
        self._scale[row], self._shift[row], self._keep_below[row] = 1.0, -0.0, 0.0

    def __call__(self, features: np.ndarray) -> None:
        if not self._draws:
            return
        n = features.shape[1]
        noise, uniform = self._noise[:, :n], self._uniform[:, :n]
        for row, p, rng in self._draws:
            rng.standard_normal(out=noise[row])
            if p > 0.0:
                rng.random(out=uniform[row])
        # `Generator.normal` returns loc + scale * z, so the 0.0 is added too:
        # it turns a -0.0 noise value into +0.0.
        noise *= self._scale
        noise += self._shift
        features += noise
        if self._dropping:
            features *= uniform >= self._keep_below


def _atomic_write(path: str | Path, raw: bytes) -> None:
    """The one way soupkit publishes a file. `raw` goes into a temp file beside
    `path`, created exclusively under a fresh random name and written in full
    by a loop of `os.write`, then `os.replace` renames it over `path`: readers
    see the old file or the new one, never a partial one, and concurrent
    writers never share a temp file. On any failure after the create, the temp
    file is removed; a name some other writer holds is refused, not touched."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(raw)
            while view:  # a short write is continued, never published
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _write_csv_rows(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Rows in the `csv.writer` dialect (CRLF lines, minimal quoting), written atomically."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _csv_bytes(dataset: LabeledDataset) -> bytes:
    """The bytes `save_csv` writes, for a store to compare with a stored split."""
    lines = [",".join([f"f{i}" for i in range(dataset.dims)] + ["label"])]
    lines += [",".join(map(repr, row)) + f",{label}"
              for row, label in zip(dataset.features.tolist(), dataset.labels.tolist())]
    lines.append("")
    return "\r\n".join(lines).encode("ascii")


def save_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Feature columns then the label column, under a header row; floats as shortest
    round-trip repr. The bytes are those of `csv.writer`: no cell needs quoting."""
    _atomic_write(path, _csv_bytes(dataset))


def load_csv(path: str | Path, role: str, task_id: str, class_count: int) -> LabeledDataset:
    """Read what `save_csv` writes: a header row with a `label` column, then numeric rows."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: {'header but no data rows' if rows else 'empty file'}")
    header, rows = rows[0], rows[1:]
    if "label" not in header:
        raise ValueError(f"{path}: no column named 'label' in header {header}")
    label_idx, width = header.index("label"), len(header)
    try:  # one conversion, which applies float() to each cell in C
        values = np.array(rows, dtype=np.float64)
        labels = values[:, label_idx]
        whole = values.shape[1] == width and np.all(
            (labels == np.trunc(labels)) & (labels >= -2.0**63) & (labels < 2.0**63))
    except (ValueError, IndexError):  # a ragged row, a non-numeric cell, or rows narrower than the header
        whole = False
    if not whole:  # walk the cells to raise the first bad one's error
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-numeric cell {cell!r}") from None
                if j == label_idx and value != np.int64(int(value)):  # raises on nan, inf or int64 overflow
                    raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-integer label {cell!r}")
    feats, labels = np.delete(values, label_idx, axis=1), labels.astype(np.int64)
    return LabeledDataset(feats, labels, class_count=class_count, role=role, task_id=task_id)
