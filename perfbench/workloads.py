"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, runs one op in
`op` (the only timed part), and checks an op's output in `check`. Checks
never compare against a frozen digest: they test properties that hold for
any correct program (score ranges, greedy monotonicity, config arithmetic,
cell counts) and, in the run loop, that repeats within a run write
byte-identical artifacts.

Why these three:
- `experiment` is what users run most: one persisted `run_experiment` of the
  calibrated recipe. The trainer (grid stage) takes most of its time.
- `analysis` makes no optimizer step: soups over every method, OOD report,
  LMC sweep and a fine landscape, i.e. thousands of `nn.evaluate` calls.
- `store` writes one experiment's pool into a store of hundreds of
  checkpoints and reads it back through an in-process CLI session, whose
  gou/gog snapshot discovery scales with bases x store size.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

# Package functions are called through their modules, so that the spans the
# tracer installs on module attributes see the benchmark's own calls too.
from soupkit import analysis, cli, data, experiment, pipeline
from soupkit.store import Store

ALL_SOUPS = ("uniform", "greedy", "gou", "gog", "fgg_uniform", "fgg_greedy", "gs_gou", "gs_gog")
TASK_KIND = "rough"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _out_of_unit(values, what: str) -> list[str]:
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return [f"{what}: {len(bad)} values outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def _report_scores(path: Path) -> list[float]:
    return [float(v) for row in _csv_rows(path) for k, v in row.items()
            if k not in ("method", "id") and v != "undefined"]


# ---------------------------------------------------------------------------
# Config arithmetic the checks compare against

def _steps_per_epoch(rows: int, batch: int) -> int:
    return math.ceil(rows / batch)


def fission_steps(config, train_rows: int) -> int:
    """Steps of one fission run: stop at the n-th mid-cycle collection point."""
    c = config.fgg.cycle_epochs * _steps_per_epoch(train_rows, config.batch_size)
    return (config.fgg.n_collect - 1) * c + c // 2


def grid_cells(config) -> int:
    return len(config.grid.lrs) * len(config.grid.augments) * len(config.grid.seeds)


def train_steps(config, source_rows: int, train_rows: int) -> int:
    """Optimizer steps of a full recipe run when no cell diverges."""
    spe_src = _steps_per_epoch(source_rows, config.batch_size)
    spe = _steps_per_epoch(train_rows, config.batch_size)
    f = config.fgg
    return (config.pretrain_epochs * spe_src + config.warmup_epochs * spe
            + grid_cells(config) * config.grid.epochs * spe + len(f.lrs) * f.epochs * spe
            + len(f.lrs) * fission_steps(config, train_rows))


def budget_ratio(config, train_rows: int) -> float:
    f = config.fgg
    fission_epochs = fission_steps(config, train_rows) / _steps_per_epoch(train_rows, config.batch_size)
    return len(f.lrs) * (f.epochs + fission_epochs) / (grid_cells(config) * config.grid.epochs)


def greedy_trials(methods, n_grid: int, fissions_per_base: list[int], lr_group_sizes: list[int]) -> int:
    """Trial merges a greedy soup makes: every candidate after the seed is tried once."""
    n = 0
    for m in methods:
        if m == "greedy":
            n += n_grid - 1
        elif m == "fgg_greedy":
            n += sum(1 + k for k in fissions_per_base) - 1
        elif m in ("gou", "gog"):
            n += len(fissions_per_base) - 1 + (sum(fissions_per_base) if m == "gog" else 0)
        elif m in ("gs_gou", "gs_gog"):
            n += len(lr_group_sizes) - 1 + (sum(k - 1 for k in lr_group_sizes) if m == "gs_gog" else 0)
    return n


# ---------------------------------------------------------------------------
# In-memory pool, trained stage by stage through the public pipeline API

@dataclass
class Pool:
    name: str
    config: object
    bundle: object
    pretrained: object
    theta0: object
    grid: list
    bases: list
    groups: list  # (base, fissions)

    @property
    def checkpoints(self) -> list:
        return [self.pretrained, self.theta0, *self.grid, *self.bases,
                *(c for _, fissions in self.groups for c in fissions)]

    def ranked_grid(self) -> list:
        key = self.config.metric.value
        return sorted(self.grid, key=lambda c: (-c.val_metrics.get(key, float("-inf")), c.id))


def train_pool(config) -> Pool:
    bundle = data.gen_task(config.task, config.split_ratios)
    common = dict(batch_size=config.batch_size, weight_decay=config.weight_decay)
    pretrained = pipeline.pretrain_source(config.arch, bundle.source, pipeline.HyperConfig(
        lr=config.pretrain_lr, seed=config.pretrain_seed, epochs=config.pretrain_epochs, **common))
    theta0 = pipeline.linear_probe_warmup(pretrained, bundle.train, pipeline.HyperConfig(
        lr=config.warmup_lr, seed=config.pretrain_seed, warmup_epochs=config.warmup_epochs, **common),
        bundle.val)
    g, f = config.grid, config.fgg
    grid, _ = pipeline.grid_generate(theta0, list(g.lrs), list(g.augments), list(g.seeds), bundle.train,
                            bundle.val, pipeline.HyperConfig(lr=g.lrs[0], seed=0, epochs=g.epochs, **common))
    bases, _ = pipeline.fgg_base_generate(theta0, list(f.lrs), bundle.train, bundle.val, pipeline.HyperConfig(
        lr=f.lrs[0], seed=f.seed, augment=f.augment, epochs=f.epochs, **common))
    schedule = experiment.cycle_schedule(f.cycle_epochs, bundle.train.n, config.batch_size, f.alpha1, f.alpha2)
    groups = [(b, pipeline.fgg_fission(b, schedule, f.n_collect, bundle.train, bundle.val).checkpoints)
              for b in bases]
    return Pool(config.name, config, bundle, pretrained, theta0, grid, bases, groups)


def _check_greedy(val_score: float, best_candidate: float, label: str) -> list[str]:
    if val_score < best_candidate:
        return [f"{label}: greedy val_score {val_score!r} below best candidate {best_candidate!r}"]
    return []


# ---------------------------------------------------------------------------

class ExperimentWorkload:
    """One op: a persisted `run_experiment` of the calibrated recipe into a fresh store."""

    name = "experiment"
    artifacts = ("report.csv", "budget.csv", "lmc_curve.csv", "landscape.csv")

    def setup(self, seed: int) -> None:
        self.config = experiment.default_experiment_config(f"bench-{seed}", TASK_KIND, seed)
        bundle = data.gen_task(self.config.task, self.config.split_ratios)
        c = self.config
        self.expected = {
            "pipeline.train_steps": train_steps(c, bundle.source.n, bundle.train.n),
            "analysis.landscape.cells": math.prod(c.analysis.landscape_resolution),
            "soup.greedy.trials": greedy_trials(c.soups, grid_cells(c), [c.fgg.n_collect] * len(c.fgg.lrs), []),
        }
        self.checkpoint_count = 2 + grid_cells(c) + len(c.fgg.lrs) * (1 + c.fgg.n_collect)
        self.ratio = budget_ratio(c, bundle.train.n)
        self.fission_used = 0

    def op(self, workdir: Path):
        return experiment.run_experiment(self.config, Store(workdir / "store"))

    def written_bytes(self, workdir: Path) -> int:
        return dir_bytes(workdir / "store")

    def cleanup(self, workdir: Path) -> None:
        pass

    def check(self, summary, workdir: Path) -> tuple[list[str], dict[str, str]]:
        store_dir = workdir / "store"
        exp_dir = store_dir / "experiments" / self.config.name
        missing = [f for f in self.artifacts if not (exp_dir / f).is_file()]
        if missing:
            return [f"missing artifacts {missing}"], {}
        digests = {f: sha256_file(exp_dir / f) for f in self.artifacts}
        errors = []
        if len(summary["checkpoints"]) != self.checkpoint_count:
            errors.append(f"{len(summary['checkpoints'])} checkpoints, config gives {self.checkpoint_count}")
        errors += _out_of_unit(_report_scores(exp_dir / "report.csv"), "report.csv")
        errors += _out_of_unit([float(r["score"]) for r in _csv_rows(exp_dir / "lmc_curve.csv")], "lmc_curve.csv")
        cells = _csv_rows(exp_dir / "landscape.csv")
        errors += _out_of_unit([float(r["error"]) for r in cells], "landscape.csv")
        if len(cells) != self.expected["analysis.landscape.cells"]:
            errors.append(f"landscape has {len(cells)} cells, config gives {self.expected['analysis.landscape.cells']}")
        budget = {r["quantity"]: r["epochs"] for r in _csv_rows(exp_dir / "budget.csv")}
        if not math.isclose(float(budget["fgg_over_grid_ratio"]), self.ratio, rel_tol=1e-12):
            errors.append(f"budget ratio {budget['fgg_over_grid_ratio']} != config arithmetic {self.ratio!r}")
        metric = self.config.metric.value
        grid_scores = [json.loads((store_dir / cid / "manifest.json").read_text())["val_metrics"][metric]
                       for cid in summary["checkpoints"] if cid.startswith("grid-")]
        for name, soup in summary["soups"].items():
            errors += _out_of_unit([soup["val_score"]], f"soup {name}")
            if name == "greedy":
                errors += _check_greedy(soup["val_score"], max(grid_scores), name)
            elif name in ("gou", "gog"):
                audit = json.loads((store_dir / soup["id"] / "audit.json").read_text())
                errors += _check_greedy(soup["val_score"], audit["decisions"][0]["trial_score"], name)
        return errors, digests


class AnalysisWorkload:
    """One op: all eight soups, the OOD report, an LMC sweep and a landscape
    with its minima count, over one seed's in-memory grid and fgg pool."""

    name = "analysis"
    # 60 x 60 = 3,600 landscape evaluations keep the op near half a second,
    # well above timer noise, with nn.evaluate as the leading layer.
    resolution = (60, 60)
    lmc_points = 51

    def setup(self, seed: int) -> None:
        self.pool = train_pool(experiment.default_experiment_config(f"bench-{seed}", TASK_KIND, seed))
        p = self.pool
        lr_groups: dict[float, int] = {}
        for c in p.grid:
            lr_groups[c.config.lr] = lr_groups.get(c.config.lr, 0) + 1
        self.expected = {
            "pipeline.train_steps": 0,
            "analysis.landscape.cells": math.prod(self.resolution),
            "soup.greedy.trials": greedy_trials(ALL_SOUPS, len(p.grid), [len(f) for _, f in p.groups],
                                                list(lr_groups.values())),
        }
        self.fission_used = 0

    def op(self, workdir: Path):
        p = self.pool
        c, b = p.config, p.bundle
        soups = experiment.build_soups(ALL_SOUPS, c.metric, c.arch, b.val, p.grid, p.groups)
        ranked = p.ranked_grid()
        report = analysis.ood_report([("best_grid", ranked[0]), *soups], b.test, [b.ood], c.metric, c.arch)
        curve = analysis.lmc_sweep(ranked[0], ranked[1], self.lmc_points, b.val, c.metric)
        basis = analysis.plane_basis(ranked[0], ranked[1], ranked[2])
        extent = analysis.default_extent(basis.anchor_coords)
        surface = analysis.landscape_grid(basis, extent, self.resolution, b.val, c.metric)
        return {"soups": soups, "report": report, "curve": curve, "surface": surface,
                "minima": analysis.count_local_minima(surface)}

    def written_bytes(self, workdir: Path) -> int:
        return 0

    def cleanup(self, workdir: Path) -> None:
        pass

    def check(self, out, workdir: Path) -> tuple[list[str], dict[str, str]]:
        p = self.pool
        out["report"].write_csv(workdir / "report.csv")
        analysis.compute_budget(p.checkpoints).write_csv(workdir / "budget.csv")
        out["curve"].write_csv(workdir / "lmc_curve.csv")
        out["surface"].write_csv(workdir / "landscape.csv")
        digests = {f: sha256_file(workdir / f)
                   for f in ("report.csv", "budget.csv", "lmc_curve.csv", "landscape.csv")}
        errors = _out_of_unit(_report_scores(workdir / "report.csv"), "report")
        errors += _out_of_unit(out["curve"].scores.tolist(), "lmc curve")
        errors += _out_of_unit(out["surface"].values.ravel().tolist(), "landscape")
        if out["surface"].values.size != self.expected["analysis.landscape.cells"]:
            errors.append(f"landscape has {out['surface'].values.size} cells")
        budget = {r["quantity"]: r["epochs"] for r in _csv_rows(workdir / "budget.csv")}
        ratio = budget_ratio(p.config, p.bundle.train.n)
        if not math.isclose(float(budget["fgg_over_grid_ratio"]), ratio, rel_tol=1e-12):
            errors.append(f"budget ratio {budget['fgg_over_grid_ratio']} != config arithmetic {ratio!r}")
        key = p.config.metric.value
        for name, soup in out["soups"]:
            errors += _out_of_unit([soup.val_score], f"soup {name}")
            if name == "greedy":
                errors += _check_greedy(soup.val_score, max(c.val_metrics[key] for c in p.grid), name)
            elif name == "fgg_greedy":
                fgg_pool = p.checkpoints[2 + len(p.grid):]
                errors += _check_greedy(soup.val_score, max(c.val_metrics[key] for c in fgg_pool), name)
            elif name in ("gou", "gog", "gs_gou", "gs_gog"):
                errors += _check_greedy(soup.val_score, soup.audit[0].trial_score, name)
        return errors, digests


class StoreWorkload:
    """One op: write one experiment's pool into a store that already holds
    five more, then read them back through an in-process CLI session."""

    name = "store"
    # Six experiments of 54 checkpoints each: 324 checkpoints in the store.
    experiments = 6
    lmc_points = 11

    @staticmethod
    def pool_config(seed: int):
        # The store cares about checkpoint count and size, not model quality,
        # so the pool keeps the recipe's shape with one-epoch stages.
        c = experiment.default_experiment_config(f"task-{seed}", TASK_KIND, seed)
        return replace(c, pretrain_epochs=2, warmup_epochs=1, grid=replace(c.grid, epochs=1),
                       fgg=replace(c.fgg, epochs=1, cycle_epochs=1))

    def setup(self, seed: int) -> None:
        self.pools = [train_pool(self.pool_config(seed * self.experiments + i))
                      for i in range(self.experiments)]
        target = self.pools[0]
        self.expected = {"pipeline.train_steps": 0}
        self.fission_used = 2 * sum(len(f) for _, f in target.groups)  # gou + gog groups
        self.ratio = budget_ratio(target.config, target.bundle.train.n)
        self.soup_ids: list[str] = []

    @staticmethod
    def _save(store: Store, pool: Pool) -> None:
        store.save_task_bundle(pool.name, pool.bundle, pool.config.task)
        for ck in pool.checkpoints:
            store.save_checkpoint(ck)

    def _root(self, workdir: Path) -> Path:
        # One store per run, shared by its ops. Writing and deleting all 324
        # checkpoints in every op made the filesystem's delete work stall
        # later writes, which left this workload's times far too spread.
        return workdir.parent / "store"

    def op(self, workdir: Path):
        root, p = self._root(workdir), self.pools[0]
        if not root.exists():  # the warm-up op, untimed, adds the other five pools
            for pool in self.pools[1:]:
                self._save(Store(root), pool)
        self._save(Store(root), p)
        metric = p.config.metric.value
        ranked = p.ranked_grid()
        outputs: dict[str, dict] = {}

        def run_cli(label: str, *argv: str) -> dict:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.cli_dispatch(["--store", str(root), *argv])
            if rc != 0:
                raise RuntimeError(f"soupkit {label} exited {rc}")
            outputs[label] = json.loads(buf.getvalue().strip().splitlines()[-1])
            return outputs[label]

        bases = ",".join(b.id for b in p.bases)
        for method in ("gou", "gog"):
            run_cli(method, "soup", "--data", p.name, "--method", method, "--metric", metric, "--bases", bases)
        run_cli("greedy", "soup", "--data", p.name, "--method", "greedy", "--metric", metric,
            "--ids", ",".join(c.id for c in p.grid))
        run_cli("eval", "eval", "--id", outputs["gog"]["id"], "--data", p.name, "--split", "test", "--metric", metric)
        labels = ("best_grid", "gou", "gog", "greedy")
        ids = [ranked[0].id] + [outputs[m]["id"] for m in labels[1:]]
        run_cli("report", "report", "--ids", ",".join(ids), "--labels", ",".join(labels), "--data", p.name,
            "--metric", metric, "--out", str(workdir / "report.csv"))
        run_cli("lmc", "lmc", "--a", ranked[0].id, "--b", ranked[1].id, "--data", p.name, "--split", "val",
            "--metric", metric, "--points", str(self.lmc_points), "--out", str(workdir / "lmc_curve.csv"))
        run_cli("budget", "budget", "--out", str(workdir / "budget.csv"))
        self.soup_ids = [outputs[m]["id"] for m in ("gou", "gog", "greedy")]
        return outputs

    def _op_paths(self, workdir: Path) -> list[Path]:
        root, pool = self._root(workdir), self.pools[0]
        ids = [c.id for c in pool.checkpoints] + self.soup_ids
        return [root / "datasets" / pool.name, *(root / i for i in ids)]

    def written_bytes(self, workdir: Path) -> int:
        return sum(dir_bytes(path) for path in self._op_paths(workdir))

    def cleanup(self, workdir: Path) -> None:
        """Take this op's writes back out of the shared store."""
        for path in self._op_paths(workdir):
            shutil.rmtree(path, ignore_errors=True)

    def check(self, outputs, workdir: Path) -> tuple[list[str], dict[str, str]]:
        p = self.pools[0]
        key = p.config.metric.value
        digests = {f: sha256_file(workdir / f) for f in ("report.csv", "budget.csv", "lmc_curve.csv")}
        errors = _out_of_unit(_report_scores(workdir / "report.csv"), "report")
        errors += _out_of_unit(outputs["lmc"]["scores"], "lmc")
        errors += _out_of_unit([outputs["eval"]["score"]], "eval")
        errors += _check_greedy(outputs["greedy"]["val_score"], max(c.val_metrics[key] for c in p.grid), "greedy")
        root = self._root(workdir)
        for method in ("gou", "gog"):
            errors += _out_of_unit([outputs[method]["val_score"]], method)
            audit = json.loads((root / outputs[method]["id"] / "audit.json").read_text())
            errors += _check_greedy(outputs[method]["val_score"], audit["decisions"][0]["trial_score"], method)
            if method == "gou":
                # A uniform local soup takes the whole group: base plus its snapshots.
                for base, fissions in p.groups:
                    got = sorted(audit["level_members"][f"local-{base.id}"])
                    if got != sorted([base.id, *(f.id for f in fissions)]):
                        errors.append(f"gou group of {base.id} has members {got}")
        if not math.isclose(outputs["budget"]["ratio"], self.ratio, rel_tol=1e-12):
            errors.append(f"budget ratio {outputs['budget']['ratio']!r} != config arithmetic {self.ratio!r}")
        return errors, digests


WORKLOADS = {w.name: w for w in (ExperimentWorkload, AnalysisWorkload, StoreWorkload)}
