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
from pathlib import Path

from .analysis import (
    DEFAULT_EXTENT_MARGIN,
    DEFAULT_LMC_POINTS,
    _stage_budget,
    count_local_minima,
    default_extent,
    landscape_grid,
    lmc_sweep,
    ood_report,
    plane_basis,
)
from .data import AugmentLevel, TaskSpec, gen_task
from .experiment import SOUPS, ExperimentConfig, _repeated, build_soups, cycle_schedule, run_experiment
from .nn import ArchSpec, MetricKind, evaluate
from .pipeline import (
    HyperConfig,
    TrainingDivergedError,
    fgg_base_generate,
    fgg_fission,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
)
from .store import Store, StoreError

_METRICS = [m.value for m in MetricKind]
_AUGMENTS = [a.value for a in AugmentLevel]


def _store(args) -> Store:
    return Store(args.store)


def _arch(args) -> ArchSpec:
    dims = tuple(int(d) for d in args.arch.split(","))
    return ArchSpec(dims, args.activation)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _names(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _id_list(text: str | None, flag: str) -> list[str]:
    """The ids a comma-separated flag names; naming none, or one twice, is an
    error that names the flag."""
    if not (ids := _names(text or "")):
        raise ValueError(f"{flag} must name at least one checkpoint id")
    if repeated := _repeated(ids):
        raise ValueError(f"{flag} names {repeated} more than once")
    return ids


def _trained_config(ck, need: str) -> HyperConfig:
    if ck.config is None:
        raise ValueError(f"checkpoint {ck.id} has no training config ({ck.lineage.stage}); {need}")
    return ck.config


def cmd_gen_data(args) -> dict:
    if args.spec:
        spec = TaskSpec.from_dict(json.loads(Path(args.spec).read_text()))
    else:
        spec = TaskSpec(kind=args.kind, seed=args.seed, dims=args.dims,
                        class_count=args.classes, n_samples=args.samples,
                        imbalance_ratio=args.imbalance, label_noise_rate=args.label_noise,
                        cluster_heterogeneity=args.heterogeneity,
                        shift_magnitude=args.shift, source_shift=args.source_shift)
    bundle = gen_task(spec)
    path = _store(args).save_task_bundle(args.name, bundle, spec)
    return {"command": "gen-data", "name": args.name, "path": str(path),
            "rows": {role: ds.n for role, ds in bundle.splits().items()}}


def cmd_pretrain(args) -> dict:
    store = _store(args)
    source = store.load_dataset(args.data, "source")
    config = HyperConfig(lr=args.lr, seed=args.seed, epochs=args.epochs,
                         batch_size=args.batch_size, weight_decay=args.weight_decay)
    ck = pretrain_source(_arch(args), source, config)
    store.save_checkpoint(ck, exist_ok=True)
    return {"command": "pretrain", "id": ck.id, "epochs": ck.epochs_consumed}


def cmd_warmup(args) -> dict:
    store = _store(args)
    pretrained = store.load_checkpoint(args.pretrained)
    train = store.load_dataset(args.data, "train")
    val = store.load_dataset(args.data, "val")
    seed = args.seed if args.seed is not None else _trained_config(pretrained, "pass --seed").seed
    config = HyperConfig(lr=args.lr, seed=seed, warmup_epochs=args.epochs,
                         batch_size=args.batch_size, weight_decay=args.weight_decay)
    ck = linear_probe_warmup(pretrained, train, config, val)
    store.save_checkpoint(ck, exist_ok=True)
    return {"command": "warmup", "id": ck.id, "val_metrics": ck.val_metrics}


def cmd_grid(args) -> dict:
    store = _store(args)
    theta0 = store.load_checkpoint(args.theta0)
    train = store.load_dataset(args.data, "train")
    val = store.load_dataset(args.data, "val")
    template = HyperConfig(lr=_floats(args.lrs)[0], seed=0, epochs=args.epochs,
                           batch_size=args.batch_size, weight_decay=args.weight_decay)
    checkpoints, failures = grid_generate(theta0, _floats(args.lrs), _names(args.augments),
                                          _ints(args.seeds), train, val, template)
    for ck in checkpoints:
        store.save_checkpoint(ck, exist_ok=True)
    return {"command": "grid", "ids": [c.id for c in checkpoints],
            "failed_cells": len(failures)}


def cmd_fgg_base(args) -> dict:
    store = _store(args)
    theta0 = store.load_checkpoint(args.theta0)
    train = store.load_dataset(args.data, "train")
    val = store.load_dataset(args.data, "val")
    template = HyperConfig(lr=_floats(args.lrs)[0], seed=args.seed, augment=args.augment,
                           epochs=args.epochs, batch_size=args.batch_size,
                           weight_decay=args.weight_decay)
    checkpoints, failures = fgg_base_generate(theta0, _floats(args.lrs), train, val, template)
    for ck in checkpoints:
        store.save_checkpoint(ck, exist_ok=True)
    return {"command": "fgg-base", "ids": [c.id for c in checkpoints],
            "failed_cells": len(failures)}


def cmd_fission(args) -> dict:
    store = _store(args)
    base = store.load_checkpoint(args.base)
    train = store.load_dataset(args.data, "train")
    val = store.load_dataset(args.data, "val")
    batch_size = _trained_config(base, "fission needs a trained base").batch_size
    schedule = cycle_schedule(args.cycle_epochs, train.n, batch_size,
                              args.alpha1, args.alpha2)
    result = fgg_fission(base, schedule, args.n_collect, train, val)
    for ck in result.checkpoints:
        store.save_checkpoint(ck, exist_ok=True)
    return {"command": "fission", "base": base.id,
            "ids": [c.id for c in result.checkpoints],
            "capture_steps": result.capture_steps, "truncated": result.truncated}


def cmd_soup(args) -> dict:
    store = _store(args)
    val = store.load_dataset(args.data, "val")
    flag = "ids" if SOUPS[args.method][0] == "grid" else "bases"
    loaded = [store.load_checkpoint(i) for i in _id_list(getattr(args, flag), f"--{flag}")]
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
    store.save_soup(soup, loaded[0].arch, args.metric, exist_ok=True)
    return {"command": "soup", "id": soup.id, "method": args.method,
            "members": soup.members, "val_score": soup.val_score}


def cmd_eval(args) -> dict:
    store = _store(args)
    ck = store.load_checkpoint(args.id)
    ds = store.load_dataset(args.data, args.split)
    score = evaluate(ck.params, ck.arch, ds, args.metric)
    return {"command": "eval", "id": ck.id, "split": args.split,
            "metric": args.metric, "score": score}


def cmd_lmc(args) -> dict:
    store = _store(args)
    a = store.load_checkpoint(args.a)
    b = store.load_checkpoint(args.b)
    ds = store.load_dataset(args.data, args.split)
    curve = lmc_sweep(a, b, args.points, ds, args.metric)
    out = {"command": "lmc", "a": a.id, "b": b.id, "metric": args.metric,
           "barrier": curve.barrier(), "scores": [float(s) for s in curve.scores]}
    if args.out:
        curve.write_csv(args.out)
        out["csv"] = args.out
    return out


def cmd_landscape(args) -> dict:
    store = _store(args)
    ids = _names(args.ids)
    if len(ids) != 3:
        raise ValueError(f"landscape needs exactly three checkpoint ids, got {len(ids)}")
    anchors = [store.load_checkpoint(i) for i in ids]
    ds = store.load_dataset(args.data, args.split)
    basis = plane_basis(*anchors)
    extent = default_extent(basis.anchor_coords, args.margin)
    nx, ny = _ints(args.resolution)
    surface = landscape_grid(basis, extent, (nx, ny), ds, args.metric)
    out = {"command": "landscape", "ids": ids, "extent": [float(e) for e in extent],
           "resolution": [nx, ny], "local_minima": count_local_minima(surface)}
    if args.out:
        surface.write_csv(args.out)
        out["csv"] = args.out
    return out


def cmd_report(args) -> dict:
    store = _store(args)
    ids = _id_list(args.ids, "--ids")
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
    store = _store(args)
    # The manifests hold each run's stage and epoch count: no weights are read,
    # and each manifest is dropped once read.
    manifests = ((m for _, m in store.manifests()) if args.ids is None
                 else (store.read_manifest(i) for i in _id_list(args.ids, "--ids")))
    budget = _stage_budget((m["lineage"]["stage"], m["epochs_consumed"]) for m in manifests)
    out = {"command": "budget", "stage_epochs": budget.stage_epochs,
           "grid_total": budget.grid_total, "fgg_total": budget.fgg_total,
           "ratio": budget.ratio}
    if args.out:
        budget.write_csv(args.out)
        out["csv"] = args.out
    return out


def cmd_run_experiment(args) -> dict:
    config = ExperimentConfig.from_json(args.config)
    summary = run_experiment(config, _store(args))
    summary["command"] = "run-experiment"
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soupkit",
                                     description="cyclical-schedule model generation and weight souping")
    parser.add_argument("--store", default=os.environ.get("SOUPKIT_STORE", "store"),
                        help="checkpoint store directory (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    add = sub.add_parser

    p = add("gen-data", help="generate a synthetic task and save its CSV splits")
    p.add_argument("--name", required=True)
    p.add_argument("--spec", help="task spec JSON file (overrides the flags below)")
    p.add_argument("--kind", choices=["smooth", "rough"], default="rough")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=6)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--samples", type=int, default=900)
    p.add_argument("--imbalance", type=float, default=1.0)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--heterogeneity", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--source-shift", type=float, default=1.0)

    p = add("pretrain", help="train a seeded init on the source split")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", default="6,16,3", help="comma-separated layer dims")
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu")
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--weight-decay", type=float, default=0.01)

    p = add("warmup", help="linear-probe warmup of the final layer")
    p.add_argument("--data", required=True)
    p.add_argument("--pretrained", required=True, help="pretrained checkpoint id")
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--weight-decay", type=float, default=0.01)

    p = add("grid", help="fine-tune a hyperparameter grid from a warmstart")
    p.add_argument("--data", required=True)
    p.add_argument("--theta0", required=True)
    p.add_argument("--lrs", required=True)
    p.add_argument("--augments", default="minimal,medium,heavy")
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--weight-decay", type=float, default=0.01)

    p = add("fgg-base", help="train one base model per learning rate")
    p.add_argument("--data", required=True)
    p.add_argument("--theta0", required=True)
    p.add_argument("--lrs", required=True)
    p.add_argument("--augment", choices=_AUGMENTS, default="heavy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--weight-decay", type=float, default=0.01)

    p = add("fission", help="cyclical-schedule snapshot generation from a base")
    p.add_argument("--data", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--cycle-epochs", type=int, default=2)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--n-collect", type=int, required=True)

    p = add("soup", help="merge checkpoints in weight space")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=list(SOUPS), required=True)
    p.add_argument("--metric", choices=_METRICS, required=True)
    soups_of = {sec: "/".join(n for n, (s, _) in SOUPS.items() if s == sec) for sec in ("grid", "fgg")}
    p.add_argument("--ids", help=f"members for {soups_of['grid']}")
    p.add_argument("--bases", help=f"base ids for {soups_of['fgg']}; snapshots found via lineage")

    p = add("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--id", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "ood", "source"], default="test")
    p.add_argument("--metric", choices=_METRICS, required=True)

    p = add("lmc", help="linear interpolation curve between two checkpoints")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "ood"], default="val")
    p.add_argument("--metric", choices=_METRICS, required=True)
    p.add_argument("--points", type=int, default=DEFAULT_LMC_POINTS)
    p.add_argument("--out")

    p = add("landscape", help="2-D error surface through three checkpoints")
    p.add_argument("--ids", required=True, help="three comma-separated checkpoint ids")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "ood"], default="val")
    p.add_argument("--metric", choices=_METRICS, required=True)
    p.add_argument("--resolution", default="25,25")
    p.add_argument("--margin", type=float, default=DEFAULT_EXTENT_MARGIN)
    p.add_argument("--out")

    p = add("report", help="in-distribution vs OOD score table")
    p.add_argument("--ids", required=True)
    p.add_argument("--labels")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=_METRICS, required=True)
    p.add_argument("--out", required=True)

    p = add("budget", help="training-epoch totals by stage")
    p.add_argument("--ids")
    p.add_argument("--out")

    p = add("run-experiment", help="run a full experiment config")
    p.add_argument("config", help="experiment config JSON")

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
