"""End-to-end experiment orchestration and the calibrated default recipes.

`run_recipe` runs a versioned config's recipe in memory (pretrain, warmup,
grid, cyclical snapshot generation, soups) and returns a `Recipe`, whose
`ranked_grid` is the one grid ranking. `analyse` scores a recipe's models into
its report, budget, LMC and landscape tables. `run_experiment` runs both and
persists the checkpoints, soups and tables to a store, deterministically enough
that running the same config twice emits byte-identical CSVs.
`method_comparison` and `landscape_contrast` run the recipe with the package's
calibrated desk-scale defaults; with `lmc_barriers` they back the headline
empirical claims.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Hashable, Sequence

from .analysis import (
    DEFAULT_EXTENT_MARGIN,
    DEFAULT_LMC_POINTS,
    DEFAULT_RESOLUTION,
    DegeneratePlaneError,
    _check_points,
    _margin_checked,
    _resolution_checked,
    compute_budget,
    count_local_minima,
    default_extent,
    landscape_grid,
    lmc_sweep,
    ood_report,
    plane_basis,
)
from .data import AugmentLevel, LabeledDataset, TaskBundle, TaskKind, TaskSpec, _atomic_write, _split_sizes, gen_task
from .nn import ArchSpec, MetricKind, _Record, _evaluator, _scorer
from .optim import CyclicalSchedule
from .pipeline import (
    Checkpoint,
    GridFailure,
    HyperConfig,
    fgg_base_generate,
    fgg_fission_many,
    fission_total_steps,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
    steps_per_epoch,
)
from .soup import LineageError, SoupMethod, SoupResult, _flat_soup, hierarchical_soup
from .store import Store, StoreError, _json, _plain_name, _read_regular

CONFIG_SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Calibrated desk-scale defaults. These settings were tuned on the synthetic
# tasks so that the rough/smooth contrast and the soup-method orderings are
# reproducible across seeds at interactive runtimes.

DEFAULT_ARCH = ArchSpec((6, 16, 3), "relu")
DEFAULT_BATCH = 32
PRETRAIN_LR = 1e-2
PRETRAIN_EPOCHS = 10
WARMUP_LR = 1e-2
WARMUP_EPOCHS = 4
# The grid deliberately spans past the stable range: the 1.0 and 3e-1 rates
# produce near-chance models, which is what makes uniform-over-grid fragile.
GRID_LRS = (1.0, 3e-1, 3e-2, 1e-2, 3e-3, 1e-3)
GRID_AUGMENTS = (AugmentLevel.MINIMAL, AugmentLevel.MEDIUM, AugmentLevel.HEAVY)
GRID_SEEDS = (0, 1)
GRID_EPOCHS = 12
FGG_LRS = (3e-2, 1e-2, 3e-3, 1e-3)
FGG_AUGMENT = AugmentLevel.HEAVY
FGG_SEED = 0
FGG_EPOCHS = 12
FGG_CYCLE_EPOCHS = 2
FGG_ALPHA1 = 3e-3
FGG_ALPHA2 = 1e-6
FGG_N_COLLECT = 3


def default_task_spec(kind: TaskKind | str, seed: int) -> TaskSpec:
    """Calibrated smooth/rough task families, parameterized by seed."""
    kind = TaskKind(kind)
    if kind is TaskKind.SMOOTH:
        return TaskSpec(kind=kind, seed=seed, dims=6, class_count=3, n_samples=900,
                        source_shift=1.0)
    return TaskSpec(kind=kind, seed=seed, dims=6, class_count=3, n_samples=900,
                    imbalance_ratio=6.0, label_noise_rate=0.15,
                    cluster_heterogeneity=1.5, shift_magnitude=1.5, source_shift=2.0)


def headline_metric(kind: TaskKind | str) -> MetricKind:
    """Accuracy on the benign task, macro recall once imbalance kicks in."""
    return MetricKind.ACCURACY if TaskKind(kind) is TaskKind.SMOOTH else MetricKind.MACRO_RECALL


# ---------------------------------------------------------------------------
# Experiment config

@dataclass(frozen=True)
class GridSection(_Record):
    lrs: tuple[float, ...]
    augments: tuple[AugmentLevel, ...]
    seeds: tuple[int, ...]
    epochs: int

    def __post_init__(self) -> None:
        for name in ("lrs", "augments", "seeds"):
            _distinct(getattr(self, name), name)
        for lr in self.lrs:  # the stage's own rate and epoch checks, at load
            HyperConfig(lr=lr, seed=0, epochs=self.epochs)


@dataclass(frozen=True)
class FggSection(_Record):
    lrs: tuple[float, ...]
    epochs: int
    cycle_epochs: int
    alpha1: float
    alpha2: float
    n_collect: int
    augment: AugmentLevel = FGG_AUGMENT
    seed: int = FGG_SEED

    def __post_init__(self) -> None:
        for lr in _distinct(self.lrs, "lrs"):
            HyperConfig(lr=lr, seed=0, epochs=self.epochs)
        # The fission stage's checks of its rates and snapshot count; its cycle length needs the train split.
        fission_total_steps(CyclicalSchedule(2, self.alpha1, self.alpha2), self.n_collect)


@dataclass(frozen=True)
class AnalysisSection(_Record):
    lmc_points: int = DEFAULT_LMC_POINTS
    landscape_resolution: tuple[int, int] = DEFAULT_RESOLUTION
    landscape_margin: float = DEFAULT_EXTENT_MARGIN

    def __post_init__(self) -> None:
        _check_points(self.lmc_points)
        _resolution_checked(self.landscape_resolution)
        _margin_checked(self.landscape_margin)


# Every soup a config or `soupkit soup` can name: the config section it merges, and how.
SOUPS: dict[str, tuple[str, SoupMethod]] = {
    "uniform": ("grid", SoupMethod.UNIFORM), "greedy": ("grid", SoupMethod.GREEDY),
    "gou": ("fgg", SoupMethod.GOU), "gog": ("fgg", SoupMethod.GOG),
    "fgg_uniform": ("fgg", SoupMethod.UNIFORM), "fgg_greedy": ("fgg", SoupMethod.GREEDY),
    "gs_gou": ("grid", SoupMethod.GOU), "gs_gog": ("grid", SoupMethod.GOG),
}


@dataclass(frozen=True)
class ExperimentConfig(_Record):
    name: str
    metric: MetricKind
    arch: ArchSpec
    task: TaskSpec
    # Small val split on purpose: selection noise is part of the setting
    # under study, and a 5% slice keeps greedy selection honest but fallible.
    split_ratios: tuple[float, float, float] = (0.85, 0.05, 0.10)
    batch_size: int = DEFAULT_BATCH
    weight_decay: float = 0.01
    pretrain_lr: float = PRETRAIN_LR
    pretrain_epochs: int = PRETRAIN_EPOCHS
    pretrain_seed: int = 0
    warmup_lr: float = WARMUP_LR
    warmup_epochs: int = WARMUP_EPOCHS
    grid: GridSection | None = None
    fgg: FggSection | None = None
    soups: tuple[str, ...] = ()
    analysis: AnalysisSection | None = None

    # The file nests the pretraining and warmup settings in one object per stage.
    _FILE_KEYS = {"pretrain_lr": "pretrain.lr", "pretrain_epochs": "pretrain.epochs",
                  "pretrain_seed": "pretrain.seed", "warmup_lr": "warmup.lr", "warmup_epochs": "warmup.epochs"}

    def __post_init__(self) -> None:
        if not _plain_name(self.name):
            raise ValueError(f"experiment name must be a plain directory name, got {self.name!r}")
        for s in self.soups:
            if s not in SOUPS:
                raise ValueError(f"unknown soup method {s!r}, expected one of {tuple(SOUPS)}")
            if getattr(self, SOUPS[s][0]) is None:
                raise ValueError(f"soup {s!r} requested but no {SOUPS[s][0]} section configured")
        if (repeated := _repeated(self.soups)) is not None:
            raise ValueError(f"soups names {repeated} more than once")
        for stage in ("pretrain", "warmup"):  # the stages' own checks, at load
            try:
                HyperConfig(lr=getattr(self, f"{stage}_lr"), seed=0, epochs=getattr(self, f"{stage}_epochs"),
                            batch_size=self.batch_size, weight_decay=self.weight_decay)
            except ValueError as exc:
                raise ValueError(f"{stage}: {exc}") from None
        try:
            n_train = _split_sizes(self.task.n_samples, self.split_ratios)[0]
        except ValueError as exc:
            raise ValueError(f"split_ratios: {exc}") from None
        if self.fgg:  # the fission stage's cycle check
            try:
                cycle_schedule(self.fgg.cycle_epochs, n_train, self.batch_size, self.fgg.alpha1, self.fgg.alpha2)
            except ValueError as exc:
                raise ValueError(f"fgg: {exc}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"experiment config must be an object, got {d!r}")
        version = d.get("schema_version")
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(f"unsupported experiment config schema {version!r} (expected {CONFIG_SCHEMA_VERSION})")
        flat = {}
        for key, value in d.items():
            if key in ("pretrain", "warmup"):
                if not isinstance(value, dict):
                    raise ValueError(f"{key}: expected an object, got {value!r}")
                flat.update((f"{key}.{k}", v) for k, v in value.items())
            elif key in ("grid", "fgg", "analysis"):
                flat[key] = value or None  # null and {} both mean no section
            elif key != "schema_version":
                flat[key] = value
        return super().from_dict(flat)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(_json(Path(path).read_bytes(), f"experiment config {path}", ValueError))

    def to_dict(self) -> dict:
        out = {"schema_version": CONFIG_SCHEMA_VERSION}
        for key, value in super().to_dict().items():
            stage, dot, name = key.partition(".")
            if dot:
                out.setdefault(stage, {})[name] = value
            else:
                out[key] = value
        return out


def default_experiment_config(name: str, kind: TaskKind | str, seed: int) -> ExperimentConfig:
    """The calibrated full recipe as a ready-to-run config, with README's four soups."""
    return ExperimentConfig(
        name=name,
        metric=headline_metric(kind),
        arch=DEFAULT_ARCH,
        task=default_task_spec(kind, seed),
        pretrain_seed=seed,
        grid=GridSection(GRID_LRS, GRID_AUGMENTS, GRID_SEEDS, GRID_EPOCHS),
        fgg=FggSection(FGG_LRS, FGG_EPOCHS, FGG_CYCLE_EPOCHS, FGG_ALPHA1, FGG_ALPHA2, FGG_N_COLLECT),
        soups=("uniform", "greedy", "gou", "gog"),
        analysis=AnalysisSection(),
    )


# ---------------------------------------------------------------------------
# Pipeline pieces shared by run_experiment and the in-memory helpers

def cycle_schedule(cycle_epochs: int, train_rows: int, batch_size: int,
                   alpha1: float, alpha2: float) -> CyclicalSchedule:
    """Cycle length in steps from a length in epochs; must come out even."""
    c = cycle_epochs * steps_per_epoch(train_rows, batch_size)
    return CyclicalSchedule(c, alpha1, alpha2)


def _repeated(ids: Sequence[Hashable]) -> Hashable | None:
    """The first id (or other value) that `ids` names more than once, if any."""
    seen: set[Hashable] = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


def _distinct(values: Sequence[Hashable], label: str, what: str = "value") -> Sequence[Hashable]:
    """`values`, unless empty or naming one value (an enum by its file spelling) twice: the one stage-list rule."""
    if not values:
        raise ValueError(f"{label} must name at least one {what}")
    if (repeated := _repeated(values)) is not None:
        raise ValueError(f"{label} names {getattr(repeated, 'value', repeated)} more than once")
    return values


def _base_groups(groups: Sequence[tuple[Checkpoint, Sequence[Checkpoint]]]) -> dict[str, list[Checkpoint]]:
    """One group per base model, keyed by base id: the base, then its snapshots,
    which must all come from one fission run of that base."""
    out: dict[str, list[Checkpoint]] = {}
    for base, snapshots in groups:
        for s in snapshots:
            if s.lineage.base_id != base.id:
                raise LineageError(f"snapshot {s.id} descends from {s.lineage.base_id}, not {base.id}")
        if len({s.config for s in snapshots}) > 1:
            raise LineageError(f"snapshots of {base.id} come from more than one fission run")
        out[base.id] = [base, *snapshots]
    return out


def _lr_groups(grid: Sequence[Checkpoint]) -> dict[str, list[Checkpoint]]:
    """The grid grouped by learning rate, in sorted key order. A group is
    keyed ``lr=<lr:g>``, or ``lr=<repr(lr)>`` where distinct rates share
    that spelling."""
    by_lr: dict[float, list[Checkpoint]] = {}
    for c in grid:
        if c.config is None:
            raise ValueError(f"checkpoint {c.id} has no training config to group by learning rate")
        by_lr.setdefault(c.config.lr, []).append(c)
    spellings = Counter(f"{lr:g}" for lr in by_lr)
    named = {f"lr={lr:g}" if spellings[f"{lr:g}"] == 1 else f"lr={lr!r}": group
             for lr, group in by_lr.items()}
    return {key: named[key] for key in sorted(named)}


def build_soups(methods: Sequence[str], metric: MetricKind | str, arch: ArchSpec,
                val: LabeledDataset, grid: Sequence[Checkpoint],
                groups: Sequence[tuple[Checkpoint, Sequence[Checkpoint]]]) -> list[tuple[str, SoupResult]]:
    """Construct every requested soup from the grid pool and snapshot groups.

    This is the one soup dispatch: `run_experiment`, the in-memory recipes
    and the CLI all build their soups here.
    """
    metric_key = MetricKind(metric).value
    eval_fn = _evaluator(arch, val, metric_key)  # checks the split at the first score, after the lineage checks
    snapshot_pool = [c for base, snapshots in groups for c in (base, *snapshots)]
    for pool, name in ((grid, "grid"), (snapshot_pool, "snapshot")):
        if repeated := _repeated([c.id for c in pool]):
            raise ValueError(f"the {name} pool holds checkpoint {repeated} more than once")
    out: list[tuple[str, SoupResult]] = []
    for name in methods:
        if name not in SOUPS:
            raise ValueError(f"unknown soup method {name!r}")
        section, method = SOUPS[name]
        if method.lower_level is None:
            soup = _flat_soup(method, grid if section == "grid" else snapshot_pool, metric_key, eval_fn)
        else:
            by = _lr_groups(grid) if section == "grid" else _base_groups(groups)
            soup = hierarchical_soup(by, method, metric_key, eval_fn)
        out.append((name, soup))
    return out


# ---------------------------------------------------------------------------
# The recipe runner and the persisted run

@dataclass
class Recipe:
    """Every model one run of a config trained, and the soups built from them."""
    bundle: TaskBundle
    pretrained: Checkpoint
    theta0: Checkpoint
    grid: list[Checkpoint]
    bases: list[Checkpoint]
    groups: list[tuple[Checkpoint, list[Checkpoint]]]  # (base, its snapshots)
    failures: list[GridFailure]
    soups: list[tuple[str, SoupResult]]

    @property
    def checkpoints(self) -> list[Checkpoint]:
        """Every trained checkpoint, in the order `summary.json` lists them."""
        return [self.pretrained, self.theta0, *self.grid, *self.bases,
                *(c for _, snapshots in self.groups for c in snapshots)]

    def ranked_grid(self, metric: MetricKind | str) -> list[Checkpoint]:
        """The grid best first by recorded validation score; ties go to the smaller id."""
        key = MetricKind(metric).value
        return sorted(self.grid, key=lambda c: (-c.val_metrics.get(key, float("-inf")), c.id))


def run_recipe(config: ExperimentConfig, bundle: TaskBundle) -> Recipe:
    """Pretrain on source, warm up the head, train the configured grid and
    fgg stages on `bundle`, and build `config.soups`. Nothing is persisted."""
    common = dict(batch_size=config.batch_size, weight_decay=config.weight_decay)
    pretrained = pretrain_source(config.arch, bundle.source, HyperConfig(
        lr=config.pretrain_lr, seed=config.pretrain_seed, epochs=config.pretrain_epochs, **common))
    theta0 = linear_probe_warmup(pretrained, bundle.train, HyperConfig(
        lr=config.warmup_lr, seed=config.pretrain_seed, warmup_epochs=config.warmup_epochs, **common),
        bundle.val)
    grid, failures = [], []
    if config.grid:
        g = config.grid
        grid, failures = grid_generate(theta0, list(g.lrs), list(g.augments), list(g.seeds),
                                       bundle.train, bundle.val,
                                       HyperConfig(lr=g.lrs[0], seed=0, epochs=g.epochs, **common))
    bases, groups = [], []
    if config.fgg:
        f = config.fgg
        bases, base_failures = fgg_base_generate(theta0, list(f.lrs), bundle.train, bundle.val, HyperConfig(
            lr=f.lrs[0], seed=f.seed, augment=f.augment, epochs=f.epochs, **common))
        failures += base_failures
        schedule = cycle_schedule(f.cycle_epochs, bundle.train.n, config.batch_size, f.alpha1, f.alpha2)
        results = fgg_fission_many(bases, schedule, f.n_collect, bundle.train, bundle.val)
        groups = [(base, result.checkpoints) for base, result in zip(bases, results)]
    soups = build_soups(config.soups, config.metric, config.arch, bundle.val, grid, groups)
    return Recipe(bundle, pretrained, theta0, grid, bases, groups, failures, soups)


def analyse(config: ExperimentConfig, recipe: Recipe) -> dict:
    """The recipe's tables in memory, keyed by the file `run_experiment` writes each to, in
    `summary.json`'s `files` order: the OOD report of the best grid model and the soups, the
    budget and, with an analysis section and two or more grid models, the LMC curve between the
    best two and the landscape through the best three, where those span a plane."""
    b, ranked = recipe.bundle, recipe.ranked_grid(config.metric)
    best = [("best_grid", ranked[0])] if ranked else []
    tables = {"report.csv": ood_report([*best, *recipe.soups], b.test, [b.ood], config.metric, config.arch),
              "budget.csv": compute_budget(recipe.checkpoints)}
    if (a := config.analysis) and len(ranked) >= 2:
        tables["lmc_curve.csv"] = lmc_sweep(ranked[0], ranked[1], a.lmc_points, b.val, config.metric)
        try:
            basis = plane_basis(*ranked[:3]) if len(ranked) >= 3 else None
        except DegeneratePlaneError:  # no plane through the three best: no slice, as with fewer
            basis = None
        if basis is not None:
            extent = default_extent(basis.anchor_coords, a.landscape_margin)
            tables["landscape.csv"] = landscape_grid(basis, extent, a.landscape_resolution, b.val, config.metric)
    return tables


def run_experiment(config: ExperimentConfig, store: Store) -> dict:
    """Run the config's recipe, persist its checkpoints, soups and CSV reports.

    Returns a summary dict (also written to the experiment directory). Safe
    to re-run: existing identical checkpoints, soups and dataset splits are
    verified, not rewritten. A name whose stored `config.json` holds another
    config, or whose dataset holds other splits, is refused before training.
    """
    exp_dir = store.experiment_dir(config.name)
    record = json.dumps(config.to_dict(), indent=2, sort_keys=True).encode("ascii")
    if _read_regular(f"{exp_dir}/config.json") not in (None, record):
        raise StoreError(f"experiment {config.name!r} already exists with a different config")
    bundle = gen_task(config.task, config.split_ratios)
    g = config.grid
    if config.soups or (config.analysis and g and len(g.lrs) * len(g.augments) * len(g.seeds) >= 2):
        _scorer(config.arch, bundle.val, config.metric)  # a metric the val labels leave undefined fails here
    store.save_task_bundle(config.name, bundle, config.task)  # a taken name fails before training

    recipe = run_recipe(config, bundle)
    for ck in recipe.checkpoints:
        store.save_checkpoint(ck)
    metric_key = config.metric.value
    for _, soup in recipe.soups:
        store.save_soup(soup, config.arch, metric_key)

    tables = analyse(config, recipe)  # every table, before the first is written
    exp_dir.mkdir(parents=True, exist_ok=True)
    for file, table in tables.items():
        table.write_csv(exp_dir / file)
    report, budget = tables["report.csv"], tables["budget.csv"]
    _atomic_write(exp_dir / "config.json", record)
    summary = {
        "name": config.name,
        "metric": metric_key,
        "checkpoints": [c.id for c in recipe.checkpoints],
        "soups": {name: {"id": soup.id, "val_score": soup.val_score} for name, soup in recipe.soups},
        "failures": [{"lr": f.config.lr, "seed": f.config.seed, "augment": f.config.augment.value,
                      "error": f.error} for f in recipe.failures],
        "budget": {"grid_total": budget.grid_total, "fgg_total": budget.fgg_total, "ratio": budget.ratio},
        "report": {row.label: {col: row.scores.get(col) for col in report.columns} for row in report.rows},
        "local_minima": count_local_minima(tables["landscape.csv"]) if "landscape.csv" in tables else None,
        "files": list(tables),
    }
    _atomic_write(exp_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True).encode("ascii"))
    return summary


# ---------------------------------------------------------------------------
# In-memory recipes backing the empirical claims

@dataclass
class ComparisonRun:
    recipe: Recipe
    scores: dict[str, dict[str, float]]  # method -> {"val", "test", "ood"}


def method_comparison(seed: int, kind: TaskKind | str = TaskKind.ROUGH) -> ComparisonRun:
    """Grid baselines vs cyclical-snapshot soups on one seeded task instance."""
    kind = TaskKind(kind)
    config = replace(default_experiment_config(f"cmp-{kind.value}-{seed}", kind, seed), analysis=None)
    recipe = run_recipe(config, gen_task(config.task, config.split_ratios))
    report = analyse(config, recipe)["report.csv"]
    test, ood = report.columns
    # val is the score each model recorded when it was made: a fresh score gives the same bits
    val = [recipe.ranked_grid(config.metric)[0].val_metrics[config.metric.value],
           *(soup.val_score for _, soup in recipe.soups)]
    scores = {row.label: {"val": v, "test": row.scores[test], "ood": row.scores[ood]}
              for row, v in zip(report.rows, val)}
    return ComparisonRun(recipe, scores)


def _find_grid(grid: Sequence[Checkpoint], lr: float, augment: AugmentLevel, seed: int) -> Checkpoint:
    for c in grid:
        if c.config.lr == lr and c.config.augment is augment and c.config.seed == seed:
            return c
    raise LookupError(f"no grid checkpoint with lr={lr} augment={augment.value} seed={seed}")


# Pairs for the connectivity probe. The LR pair straddles the edge of the
# stable range (3e-1 trains but lands far away); a fully diverged endpoint
# would clip the barrier at zero, so 1.0 is deliberately not used here.
LMC_SAME_LR = 1e-2
LMC_CROSS_LRS = (3e-1, 1e-3)
LMC_POINTS = 25


def lmc_barriers(run: ComparisonRun) -> dict[str, float]:
    """Train-accuracy interpolation barriers: seed-only pair vs LR-only pair."""
    aug, grid, train = AugmentLevel.MINIMAL, run.recipe.grid, run.recipe.bundle.train
    seed_a = _find_grid(grid, LMC_SAME_LR, aug, GRID_SEEDS[0])
    seed_b = _find_grid(grid, LMC_SAME_LR, aug, GRID_SEEDS[1])
    lr_a = _find_grid(grid, LMC_CROSS_LRS[0], aug, GRID_SEEDS[0])
    lr_b = _find_grid(grid, LMC_CROSS_LRS[1], aug, GRID_SEEDS[0])
    seed_curve = lmc_sweep(seed_a, seed_b, LMC_POINTS, train, MetricKind.ACCURACY)
    lr_curve = lmc_sweep(lr_a, lr_b, LMC_POINTS, train, MetricKind.ACCURACY)
    return {"seed_pair": seed_curve.barrier(), "lr_pair": lr_curve.barrier()}


# Landscape-contrast recipe: a small pool per task, sliced through its three
# best models. Held-out AUC gives a near-continuous surface; accuracy
# quantizes into plateaus where the strict minima rule finds nothing.
LC_LRS = (3e-2, 1e-2, 3e-3)
LC_SEEDS = (0, 1)
LC_EPOCHS = 8
LC_RANK_METRIC = MetricKind.ACCURACY
LC_METRIC = MetricKind.ROC_AUC_OVR


def landscape_minima(seed: int, kind: TaskKind | str) -> int:
    """Strict-local-minima count of the 3-best-model held-out error slice."""
    kind = TaskKind(kind)
    config = replace(default_experiment_config(f"lc-{kind.value}-{seed}", kind, seed),
                     grid=GridSection(LC_LRS, (AugmentLevel.MINIMAL,), LC_SEEDS, LC_EPOCHS), fgg=None, soups=())
    recipe = run_recipe(config, gen_task(config.task, config.split_ratios))
    ranked = recipe.ranked_grid(LC_RANK_METRIC)
    basis = plane_basis(ranked[0], ranked[1], ranked[2])
    extent = default_extent(basis.anchor_coords)
    surface = landscape_grid(basis, extent, DEFAULT_RESOLUTION, recipe.bundle.test, LC_METRIC)
    return count_local_minima(surface)


def landscape_contrast(seed: int) -> tuple[int, int]:
    """(smooth, rough) strict-minima counts for one seed."""
    return landscape_minima(seed, TaskKind.SMOOTH), landscape_minima(seed, TaskKind.ROUGH)
