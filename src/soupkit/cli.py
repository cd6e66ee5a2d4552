"""Command-line interface.

Every subcommand prints a single machine-readable JSON summary line on
success and exits 0; failures print to stderr and exit nonzero. State
between commands lives in a checkpoint store directory (``--store``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import (DEFAULT_EXTENT_MARGIN, DEFAULT_LMC_POINTS, DEFAULT_RESOLUTION, _stage_budget,
                       count_local_minima, default_extent, landscape_grid, lmc_sweep, ood_report, plane_basis)
from .data import ROLES, AugmentLevel, TaskKind, TaskSpec, gen_task
from .experiment import (DEFAULT_ARCH, FGG_AUGMENT, FGG_CYCLE_EPOCHS, FGG_SEED, GRID_AUGMENTS, GRID_SEEDS, SOUPS,
                         ExperimentConfig, _distinct, build_soups, cycle_schedule, default_task_spec, run_experiment)
from .nn import ACTIVATIONS, ArchSpec, MetricKind, evaluate
from .pipeline import (HyperConfig, TrainingDivergedError, fgg_base_generate, fgg_fission, grid_generate,
                       linear_probe_warmup, pretrain_source)
from .store import Store, StoreError, _task_spec


def _arch(args) -> ArchSpec:
    dims = tuple(int(d) for d in args.arch.split(","))
    return ArchSpec(dims, args.activation)


def _names(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _listed(text: str | None, flag: str, parse=str, what: str = "value") -> list:
    """The values a comma-separated list flag names, each read by `parse`, under the stage-list rule."""
    return _distinct([parse(x) for x in _names(text or "")], flag, what)


def _ids(args, flag: str = "ids") -> list[str]:
    return _listed(getattr(args, flag), f"--{flag}", what="checkpoint id")


def _resolution(text: str) -> tuple[int, int]:
    try:
        nx, ny = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--resolution must be two comma-separated integers, got {text!r}") from None
    return nx, ny


def _trained_config(ck, need: str) -> HyperConfig:
    if ck.config is None:
        raise ValueError(f"checkpoint {ck.id} has no training config ({ck.lineage.stage}); {need}")
    return ck.config


def _training(args) -> dict:
    """The `HyperConfig` settings every training stage takes from its flags."""
    return {"batch_size": args.batch_size, "weight_decay": args.weight_decay}


def _stage_inputs(args, start: str):
    """The store, the stage's start checkpoint, and the train and val splits of `--data`."""
    store = Store(args.store)
    return (store, store.load_checkpoint(start),
            store.load_dataset(args.data, "train"), store.load_dataset(args.data, "val"))


def _saved(store: Store, checkpoints) -> list[str]:
    return [store.save_checkpoint(ck) for ck in checkpoints]


def _written(args, table, summary: dict) -> dict:
    """`summary`, after `table` is written as CSV to `--out` if that is given."""
    if args.out:
        table.write_csv(args.out)
        summary["csv"] = args.out
    return summary


def cmd_gen_data(args) -> dict:
    if args.spec:
        spec = _task_spec(Path(args.spec).read_bytes(), f"task spec {args.spec}", ValueError)
    else:
        spec = TaskSpec(**{f.name: getattr(args, f.name) for f in fields(TaskSpec)})
    bundle = gen_task(spec)
    path = Store(args.store).save_task_bundle(args.name, bundle, spec)
    return {"command": "gen-data", "name": args.name, "path": str(path),
            "rows": {role: ds.n for role, ds in bundle.splits().items()}}


def cmd_pretrain(args) -> dict:
    store = Store(args.store)
    source = store.load_dataset(args.data, "source")
    config = HyperConfig(lr=args.lr, seed=args.seed, epochs=args.epochs, **_training(args))
    ck = pretrain_source(_arch(args), source, config)
    return {"command": "pretrain", "id": _saved(store, [ck])[0], "epochs": ck.epochs_consumed}


def cmd_warmup(args) -> dict:
    store, pretrained, train, val = _stage_inputs(args, args.pretrained)
    seed = args.seed if args.seed is not None else _trained_config(pretrained, "pass --seed").seed
    config = HyperConfig(lr=args.lr, seed=seed, warmup_epochs=args.epochs, **_training(args))
    ck = linear_probe_warmup(pretrained, train, config, val)
    return {"command": "warmup", "id": _saved(store, [ck])[0], "val_metrics": ck.val_metrics}


def cmd_grid(args) -> dict:
    lrs, seeds = _listed(args.lrs, "--lrs", float), _listed(args.seeds, "--seeds", int)
    augments = _listed(args.augments, "--augments")
    store, theta0, train, val = _stage_inputs(args, args.theta0)
    template = HyperConfig(lr=lrs[0], seed=0, epochs=args.epochs, **_training(args))
    checkpoints, failures = grid_generate(theta0, lrs, augments, seeds, train, val, template)
    return {"command": "grid", "ids": _saved(store, checkpoints), "failed_cells": len(failures)}


def cmd_fgg_base(args) -> dict:
    lrs = _listed(args.lrs, "--lrs", float)
    store, theta0, train, val = _stage_inputs(args, args.theta0)
    template = HyperConfig(lr=lrs[0], seed=args.seed, augment=args.augment, epochs=args.epochs,
                           **_training(args))
    checkpoints, failures = fgg_base_generate(theta0, lrs, train, val, template)
    return {"command": "fgg-base", "ids": _saved(store, checkpoints), "failed_cells": len(failures)}


def cmd_fission(args) -> dict:
    store, base, train, val = _stage_inputs(args, args.base)
    batch_size = _trained_config(base, "fission needs a trained base").batch_size
    schedule = cycle_schedule(args.cycle_epochs, train.n, batch_size, args.alpha1, args.alpha2)
    result = fgg_fission(base, schedule, args.n_collect, train, val)
    return {"command": "fission", "base": base.id, "ids": _saved(store, result.checkpoints),
            "capture_steps": result.capture_steps, "truncated": result.truncated}


def cmd_soup(args) -> dict:
    store = Store(args.store)
    val = store.load_dataset(args.data, "val")
    flag = "ids" if SOUPS[args.method][0] == "grid" else "bases"
    loaded = [store.load_checkpoint(i) for i in _ids(args, flag)]
    grid, groups = loaded, []
    if flag == "bases":
        # Lineage is read from the fission manifests in one pass, so only the
        # requested bases' snapshots are loaded and checksummed.
        base_ids = {b.id for b in loaded}
        snapshots = [store.load_checkpoint(i) for i, m in store.manifests("fission-")
                     if m["lineage"]["base_id"] in base_ids]
        snapshots.sort(key=lambda f: f.lineage.cycle_index or 0)
        grid, groups = [], [(b, [f for f in snapshots if f.lineage.base_id == b.id]) for b in loaded]
    soup = build_soups([args.method], args.metric, loaded[0].arch, val, grid, groups)[0][1]
    store.save_soup(soup, loaded[0].arch, args.metric)
    return {"command": "soup", "id": soup.id, "method": args.method,
            "members": soup.members, "val_score": soup.val_score}


def cmd_eval(args) -> dict:
    store = Store(args.store)
    ck = store.load_checkpoint(args.id)
    ds = store.load_dataset(args.data, args.split)
    score = evaluate(ck.params, ck.arch, ds, args.metric)
    return {"command": "eval", "id": ck.id, "split": args.split,
            "metric": args.metric, "score": score}


def cmd_lmc(args) -> dict:
    store = Store(args.store)
    a = store.load_checkpoint(args.a)
    b = store.load_checkpoint(args.b)
    curve = lmc_sweep(a, b, args.points, store.load_dataset(args.data, args.split), args.metric)
    return _written(args, curve, {"command": "lmc", "a": a.id, "b": b.id, "metric": args.metric,
                                  "barrier": curve.barrier(), "scores": [float(s) for s in curve.scores]})


def cmd_landscape(args) -> dict:
    ids = _ids(args)
    if len(ids) != 3:
        raise ValueError(f"landscape needs exactly three checkpoint ids, got {len(ids)}")
    resolution = _resolution(args.resolution)
    store = Store(args.store)
    anchors = [store.load_checkpoint(i) for i in ids]
    ds = store.load_dataset(args.data, args.split)
    basis = plane_basis(*anchors)
    extent = default_extent(basis.anchor_coords, args.margin)
    surface = landscape_grid(basis, extent, resolution, ds, args.metric)
    return _written(args, surface, {"command": "landscape", "ids": ids, "extent": [float(e) for e in extent],
                                    "resolution": list(resolution), "local_minima": count_local_minima(surface)})


def cmd_report(args) -> dict:
    store = Store(args.store)
    ids = _ids(args)
    labels = _names(args.labels) if args.labels else ids
    if len(labels) != len(ids):
        raise ValueError(f"{len(labels)} labels for {len(ids)} ids")
    entries = [(label, store.load_checkpoint(i)) for label, i in zip(labels, ids)]
    id_test = store.load_dataset(args.data, "test")
    ood = [store.load_dataset(args.data, "ood")]
    arch = entries[0][1].arch
    table = ood_report(entries, id_test, ood, args.metric, arch)
    table.write_csv(args.out)
    return {"command": "report", "csv": args.out, "rows": len(table.rows),
            "columns": table.columns}


def cmd_budget(args) -> dict:
    store = Store(args.store)
    # The manifests hold each run's stage and epoch count: no weights are read,
    # and each manifest is dropped once read.
    manifests = ((m for _, m in store.manifests()) if args.ids is None
                 else (store.read_manifest(i) for i in _ids(args)))
    budget = _stage_budget((m["lineage"]["stage"], m["epochs_consumed"]) for m in manifests)
    return _written(args, budget, {"command": "budget", "stage_epochs": budget.stage_epochs,
                                   "grid_total": budget.grid_total, "fgg_total": budget.fgg_total,
                                   "ratio": budget.ratio})


def cmd_run_experiment(args) -> dict:
    config = ExperimentConfig.from_json(args.config)
    summary = run_experiment(config, Store(args.store))
    summary["command"] = "run-experiment"
    return summary


_METRICS = [m.value for m in MetricKind]
# gen-data's defaults: the calibrated rough task's kind, seed and shape; the knobs keep TaskSpec's own.
_TASK = default_task_spec(TaskKind.ROUGH, 0)
_SOUPS_OF = {sec: "/".join(n for n, (s, _) in SOUPS.items() if s == sec) for sec in ("grid", "fgg")}

# Flags that several subcommands take, each declared once. Each subcommand lists
# its flags in order: a bare name takes the shared settings (none for a flag of
# its own), and (name, settings) adds to or overrides them.
_SHARED = {
    "--data": {"required": True},
    "--metric": {"choices": _METRICS, "required": True},
    "--split": {"choices": [r for r in ROLES if r != "source"], "default": "val"},
    "--out": {},
    "--theta0": {"required": True},
    "--lrs": {"required": True},
    "--lr": {"type": float, "required": True},
    "--epochs": {"type": int, "required": True},
    "--batch-size": {"type": int, "default": HyperConfig.batch_size},
    "--weight-decay": {"type": float, "default": HyperConfig.weight_decay},
}
_TRAINING = ("--batch-size", "--weight-decay")

_COMMANDS = {
    "gen-data": ("generate a synthetic task and save its CSV splits", [
        ("--name", {"required": True}), ("--spec", {"help": "task spec JSON file (overrides the flags below)"}),
        # each dest is a TaskSpec field, so that cmd_gen_data builds the spec from fields(TaskSpec)
        ("--kind", {"choices": [k.value for k in TaskKind], "default": _TASK.kind.value}),
        ("--seed", {"type": int, "default": _TASK.seed}),
        ("--dims", {"type": int, "default": _TASK.dims}),
        ("--classes", {"dest": "class_count", "type": int, "default": _TASK.class_count}),
        ("--samples", {"dest": "n_samples", "type": int, "default": _TASK.n_samples}),
        ("--imbalance", {"dest": "imbalance_ratio", "type": float, "default": TaskSpec.imbalance_ratio}),
        ("--label-noise", {"dest": "label_noise_rate", "type": float, "default": TaskSpec.label_noise_rate}),
        ("--heterogeneity", {"dest": "cluster_heterogeneity", "type": float,
                             "default": TaskSpec.cluster_heterogeneity}),
        ("--shift", {"dest": "shift_magnitude", "type": float, "default": TaskSpec.shift_magnitude}),
        ("--source-shift", {"type": float, "default": TaskSpec.source_shift}),
    ]),
    "pretrain": ("train a seeded init on the source split", [
        "--data",
        ("--arch", {"default": ",".join(map(str, DEFAULT_ARCH.layer_dims)), "help": "comma-separated layer dims"}),
        ("--activation", {"choices": ACTIVATIONS, "default": DEFAULT_ARCH.activation}),
        "--lr", "--epochs", ("--seed", {"type": int, "default": ExperimentConfig.pretrain_seed}), *_TRAINING,
    ]),
    "warmup": ("linear-probe warmup of the final layer", [
        "--data", ("--pretrained", {"required": True, "help": "pretrained checkpoint id"}),
        "--lr", "--epochs", ("--seed", {"type": int, "default": None}), *_TRAINING,
    ]),
    "grid": ("fine-tune a hyperparameter grid from a warmstart", [
        "--data", "--theta0", "--lrs",
        ("--augments", {"default": ",".join(a.value for a in GRID_AUGMENTS)}),
        ("--seeds", {"default": ",".join(map(str, GRID_SEEDS))}),
        "--epochs", *_TRAINING,
    ]),
    "fgg-base": ("train one base model per learning rate", [
        "--data", "--theta0", "--lrs",
        ("--augment", {"choices": [a.value for a in AugmentLevel], "default": FGG_AUGMENT.value}),
        ("--seed", {"type": int, "default": FGG_SEED}),
        "--epochs", *_TRAINING,
    ]),
    "fission": ("cyclical-schedule snapshot generation from a base", [
        "--data", ("--base", {"required": True}), ("--cycle-epochs", {"type": int, "default": FGG_CYCLE_EPOCHS}),
        ("--alpha1", {"type": float, "required": True}), ("--alpha2", {"type": float, "required": True}),
        ("--n-collect", {"type": int, "required": True}),
    ]),
    "soup": ("merge checkpoints in weight space", [
        "--data", ("--method", {"choices": list(SOUPS), "required": True}), "--metric",
        ("--ids", {"help": f"members for {_SOUPS_OF['grid']}"}),
        ("--bases", {"help": f"base ids for {_SOUPS_OF['fgg']}; snapshots found via lineage"}),
    ]),
    "eval": ("score a checkpoint on a dataset split", [
        ("--id", {"required": True}), "--data", ("--split", {"choices": ROLES, "default": "test"}), "--metric",
    ]),
    "lmc": ("linear interpolation curve between two checkpoints", [
        ("--a", {"required": True}), ("--b", {"required": True}), "--data", "--split", "--metric",
        ("--points", {"type": int, "default": DEFAULT_LMC_POINTS}), "--out",
    ]),
    "landscape": ("2-D error surface through three checkpoints", [
        ("--ids", {"required": True, "help": "three comma-separated checkpoint ids"}),
        "--data", "--split", "--metric",
        ("--resolution", {"default": ",".join(map(str, DEFAULT_RESOLUTION))}),
        ("--margin", {"type": float, "default": DEFAULT_EXTENT_MARGIN}), "--out",
    ]),
    "report": ("in-distribution vs OOD score table", [
        ("--ids", {"required": True}), "--labels", "--data", "--metric", ("--out", {"required": True}),
    ]),
    "budget": ("training-epoch totals by stage", ["--ids", "--out"]),
    "run-experiment": ("run a full experiment config", [("config", {"help": "experiment config JSON"})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soupkit",
                                     description="cyclical-schedule model generation and weight souping")
    parser.add_argument("--store", default=os.environ.get("SOUPKIT_STORE", "store"),
                        help="checkpoint store directory (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            name, settings = (flag, {}) if isinstance(flag, str) else flag
            if "dest" in settings:  # help shows the flag's own name, not the dest's
                settings = {"metavar": name[2:].upper().replace("-", "_"), **settings}
            p.add_argument(name, **{**_SHARED.get(name, {}), **settings})
    return parser


_parser = functools.cache(build_parser)  # one per process, built at the first dispatch


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = _parser()
    # the --store default follows SOUPKIT_STORE as it is now, not at build time
    parser.set_defaults(store=os.environ.get("SOUPKIT_STORE", "store"))
    args = parser.parse_args(argv)
    # Looked up at each call, not bound into the cached parser, so that a
    # handler swapped on the module (a test's patch, a tracer) is the one run.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        summary = handler(args)
    except (ValueError, LookupError, StoreError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
