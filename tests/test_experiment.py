"""Experiment config plumbing and the in-memory recipe helpers.

The statistical claims behind the default recipes (method orderings,
landscape contrast, barrier ordering) are exercised in test_acceptance.py;
here we only cover the config surface and the cheap invariants.
"""

import csv
import functools
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import PINS_KERNELS

import soupkit
from soupkit import experiment
from soupkit.data import AugmentLevel, LabeledDataset, TaskKind, gen_task
from soupkit.experiment import (
    DEFAULT_ARCH,
    SOUPS,
    ExperimentConfig,
    analyse,
    build_soups,
    cycle_schedule,
    default_experiment_config,
    default_task_spec,
    headline_metric,
    landscape_contrast,
    method_comparison,
    run_experiment,
    run_recipe,
)
from soupkit.nn import MetricKind, MetricUndefinedError, evaluate
from soupkit.store import Store, StoreError


def _tiny_config(name="tiny", seed=1, soups=("uniform", "greedy", "gou", "gog"), kind="rough"):
    cfg = replace(default_experiment_config(name, kind, seed), soups=soups)
    d = cfg.to_dict()
    d["task"]["n_samples"] = 240
    d["task"]["dims"] = 4
    d["arch"] = {"layer_dims": [4, 8, 3], "activation": "relu"}
    d["pretrain"]["epochs"] = 2
    d["warmup"]["epochs"] = 1
    d["grid"].update(lrs=[0.01, 0.003, 0.001], augments=["minimal"], seeds=[0], epochs=1)
    d["fgg"].update(lrs=[0.01, 0.003], epochs=1, n_collect=2)
    d["analysis"] = {"lmc_points": 5, "landscape_resolution": [4, 4]}
    return ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# Config surface

def test_config_json_roundtrip(tmp_path):
    cfg = default_experiment_config("demo", "rough", 3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_json(path) == cfg


def test_config_rejects_unknown_schema():
    d = default_experiment_config("demo", "rough", 0).to_dict()
    d["schema_version"] = 99
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_dict(d)


def test_config_rejects_missing_required_keys():
    d = default_experiment_config("demo", "rough", 0).to_dict()
    del d["metric"]
    with pytest.raises(ValueError, match="metric"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("misspell, key", [
    (lambda d: d.__setitem__("soup", d.pop("soups")), "'soup'"),
    (lambda d: d["fgg"].__setitem__("augmnet", d["fgg"].pop("augment")), "'fgg.augmnet'"),
    (lambda d: d["warmup"].__setitem__("epoch", 3), "'warmup.epoch'"),
    (lambda d: d.__setitem__("warmup_epochs", 3), "'warmup_epochs'"),
], ids=["soup", "fgg.augmnet", "warmup.epoch", "warmup_epochs"])
def test_config_rejects_unknown_keys_by_their_spelling_in_the_file(misspell, key):
    d = default_experiment_config("demo", "rough", 0).to_dict()
    misspell(d)
    with pytest.raises(ValueError, match=f"unknown key {key}"):
        ExperimentConfig.from_dict(d)


def test_config_rejects_a_landscape_resolution_of_the_wrong_length():
    d = default_experiment_config("demo", "rough", 0).to_dict()
    d["analysis"]["landscape_resolution"] = [1]
    with pytest.raises(ValueError, match=r"analysis\.landscape_resolution: expected a list of 2 values"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["grid"].__setitem__("epochs", 2.7), r"grid\.epochs: expected an integer, got 2\.7"),
    (lambda d: d["grid"].__setitem__("epochs", True), r"grid\.epochs: expected an integer, got True"),
    (lambda d: d["task"].__setitem__("seed", False), r"task\.seed: expected an integer, got False"),
    (lambda d: d["warmup"].__setitem__("epochs", "2"), r"warmup\.epochs: expected an integer, got '2'"),
    (lambda d: d["grid"]["seeds"].append(1.5), r"grid\.seeds: expected an integer, got 1\.5"),
    (lambda d: d["fgg"].__setitem__("n_collect", float("inf")), r"fgg\.n_collect: expected an integer, got inf"),
    (lambda d: d.__setitem__("name", ["x"]), r"name: expected a string, got \['x'\]"),
    (lambda d: d["arch"].__setitem__("activation", 1), r"arch\.activation: expected a string, got 1"),
    (lambda d: d["soups"].__setitem__(0, None), r"soups: expected a string, got None"),
    (lambda d: d["pretrain"].__setitem__("lr", float("nan")), r"pretrain\.lr: expected a finite number, got nan"),
    (lambda d: d.__setitem__("weight_decay", float("inf")), r"weight_decay: expected a finite number, got inf"),
    (lambda d: d["task"].__setitem__("imbalance_ratio", float("-inf")),
     r"task\.imbalance_ratio: expected a finite number, got -inf"),
    (lambda d: d["split_ratios"].__setitem__(0, 10**400), r"split_ratios: expected a finite number, got 1000"),
    (lambda d: d["grid"]["lrs"].__setitem__(0, True), r"grid\.lrs: expected a finite number, got True"),
    (lambda d: d["fgg"].__setitem__("alpha1", "0.5"), r"fgg\.alpha1: expected a finite number, got '0\.5'"),
    (lambda d: d.__setitem__("pretrain", 3), r"^pretrain: expected an object, got 3$"),
], ids=["fractional", "true", "false", "string-int", "fractional-item", "inf", "list-name", "int-str", "null-item",
        "nan-float", "inf-float", "minus-inf-float", "huge-int-float", "true-float", "string-float", "int-stage"])
def test_config_refuses_a_value_of_the_wrong_type(edit, message):
    d = default_experiment_config("demo", "rough", 0).to_dict()
    edit(d)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["grid"].__setitem__("seeds", []), "grid: seeds must name at least one value"),
    (lambda d: d["grid"].__setitem__("augments", []), "grid: augments must name at least one value"),
    (lambda d: d["grid"].__setitem__("lrs", []), "grid: lrs must name at least one value"),
    (lambda d: d["fgg"].__setitem__("lrs", []), "fgg: lrs must name at least one value"),
    (lambda d: d["grid"].__setitem__("lrs", [0.01, 0.01]), "grid: lrs names 0.01 more than once"),
    (lambda d: d["grid"].__setitem__("augments", ["heavy", "minimal", "heavy"]),
     "grid: augments names heavy more than once"),
    (lambda d: d["grid"].__setitem__("seeds", [1, 0, 1]), "grid: seeds names 1 more than once"),
    (lambda d: d["fgg"].__setitem__("lrs", [0.01, 1e-2]), "fgg: lrs names 0.01 more than once"),
    (lambda d: d["grid"]["lrs"].__setitem__(2, -0.01), "grid: lr must be positive and finite, got -0.01"),
    (lambda d: d["fgg"]["lrs"].__setitem__(0, 0), "fgg: lr must be positive and finite, got 0.0"),
    (lambda d: d["fgg"].__setitem__("n_collect", 0), "fgg: n_collect must be positive, got 0"),
    (lambda d: d["fgg"].update(alpha1=1e-3, alpha2=1e-2), "fgg: alpha2 must not exceed alpha1, got 0.01 > 0.001"),
    (lambda d: d["analysis"].__setitem__("lmc_points", 1), "analysis: need at least two interpolation points, got 1"),
    (lambda d: d["analysis"].__setitem__("landscape_resolution", [5, 1]),
     "analysis: resolution must be at least 2x2, got (5, 1)"),
    (lambda d: d["analysis"].__setitem__("landscape_margin", -0.5),
     "analysis: margin must be greater than -0.5, got -0.5"),
    (lambda d: d.__setitem__("soups", ["uniform", "gou", "uniform"]), "soups names uniform more than once"),
], ids=["grid-no-seeds", "grid-no-augments", "grid-no-lrs", "fgg-no-lrs", "grid-lr-twice", "grid-augment-twice",
        "grid-seed-twice", "fgg-lr-twice", "grid-negative-lr", "fgg-zero-lr", "no-collect", "alpha2-over-alpha1",
        "one-lmc-point", "thin-landscape", "margin-leaving-no-extent", "soup-twice"])
def test_config_refuses_at_load_what_a_stage_would_refuse_after_training(edit, message):
    d = default_experiment_config("demo", "rough", 0).to_dict()
    edit(d)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(d)
    assert str(exc.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda d: (d["task"].update(n_samples=240), d["fgg"].update(cycle_epochs=1)),
     "fgg: cycle length must be a positive even integer, got 7"),
    (lambda d: d.update(split_ratios=[0.9, 0.1, 0.1]), "split_ratios: ratios must sum to 1, got 1.1"),
    (lambda d: d.update(split_ratios=[1.0, 0.0, 0.0]), "split_ratios: need three positive ratios, got (1.0, 0.0, 0.0)"),
    (lambda d: (d["task"].update(n_samples=40), d.update(split_ratios=[0.96, 0.02, 0.02])),
     "split_ratios: split of 40 rows by (0.96, 0.02, 0.02) leaves an empty part"),
], ids=["odd-cycle", "ratios-over-one", "zero-ratio", "empty-val"])
def test_config_refuses_at_load_a_cycle_or_split_that_needs_the_split_sizes(edit, message):
    d = default_experiment_config("demo", "rough", 0).to_dict()
    edit(d)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(d)
    assert str(exc.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(batch_size=0), "pretrain: batch_size must be positive, got 0"),
    (lambda d: d.update(weight_decay=-1), "pretrain: weight_decay must be non-negative and finite, got -1.0"),
    (lambda d: d["pretrain"].update(lr=0), "pretrain: lr must be positive and finite, got 0.0"),
    (lambda d: d["pretrain"].update(epochs=-1), "pretrain: epoch counts must be non-negative"),
    (lambda d: d["warmup"].update(lr=-1), "warmup: lr must be positive and finite, got -1.0"),
    (lambda d: d["warmup"].update(epochs=-1), "warmup: epoch counts must be non-negative"),
    (lambda d: d["grid"].update(epochs=-1), "grid: epoch counts must be non-negative"),
    (lambda d: d["fgg"].update(epochs=-2), "fgg: epoch counts must be non-negative"),
], ids=["zero-batch", "negative-decay", "zero-pretrain-lr", "negative-pretrain-epochs", "negative-warmup-lr",
        "negative-warmup-epochs", "negative-grid-epochs", "negative-fgg-epochs"])
def test_config_refuses_at_load_bad_stage_settings(edit, message):
    d = default_experiment_config("demo", "rough", 0).to_dict()
    edit(d)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(d)
    assert str(exc.value) == message


def test_config_takes_an_integral_float_as_an_int():
    d = default_experiment_config("demo", "rough", 0).to_dict()
    d["grid"]["epochs"] = 2.0
    d["task"]["seed"] = np.int64(3)
    cfg = ExperimentConfig.from_dict(d)
    assert type(cfg.grid.epochs) is int and cfg.grid.epochs == 2
    assert type(cfg.task.seed) is int and cfg.task.seed == 3


def test_readme_config_example_is_the_default_recipe():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Experiment config", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert ExperimentConfig.from_dict(json.loads(example)) == default_experiment_config("demo-rough-0", "rough", 0)


def test_readme_soup_table_is_soups():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Soup methods", 1)[1].split("\n\n", 2)[1]
    rows = [[cell.strip(" `") for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    assert [(row[0], row[-1]) for row in rows] == [
        (name, "--ids" if section == "grid" else "--bases") for name, (section, _) in SOUPS.items()]


def _dotted_keys(d: dict, prefix: str = "") -> set[str]:
    out = set()
    for key, value in d.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _dotted_keys(value, f"{prefix}{key}.")
    return out


def test_readme_names_what_exists():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    entry = readme.split("## Library entry points", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(entry, {})
    # every backticked `<module>.<name>` outside the code blocks, a call's
    # arguments dropped; config keys such as `analysis.lmc_points` are not names
    modules = {m.name for m in pkgutil.iter_modules(soupkit.__path__)}
    config_keys = _dotted_keys(default_experiment_config("demo", "rough", 0).to_dict())
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    cited = {m.group(1) for span in re.findall(r"`([^`]+)`", prose)
             if (m := re.match(r"(?:soupkit\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span))}
    cited = sorted(name for name in cited if name.split(".")[0] in modules and name not in config_keys)

    def resolves(name: str) -> bool:
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"soupkit.{module}"))
        except AttributeError:
            return False
        return True

    assert cited and [name for name in cited if not resolves(name)] == []


def test_config_rejects_unknown_soup():
    with pytest.raises(ValueError, match="unknown soup"):
        replace(default_experiment_config("demo", "rough", 0), soups=("uniform", "magic"))


def test_config_soup_sections_must_exist():
    cfg = default_experiment_config("demo", "rough", 0)
    d = cfg.to_dict()
    d["grid"] = None
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig.from_dict(d)
    d = cfg.to_dict()
    d["fgg"] = None
    with pytest.raises(ValueError, match="fgg"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("section", ["grid", "fgg", "analysis"])
@pytest.mark.parametrize("form", ["null", "absent", "empty"])
def test_config_section_that_is_null_absent_or_empty_stays_off(section, form):
    d = replace(default_experiment_config("demo", "rough", 0), soups=()).to_dict()
    if form == "absent":
        del d[section]
    else:
        d[section] = None if form == "null" else {}
    cfg = ExperimentConfig.from_dict(d)
    assert getattr(cfg, section) is None
    assert cfg.to_dict()[section] is None


def test_config_rejects_pathy_names():
    for name in ("a/b", ".", "..", ".hidden", ""):
        with pytest.raises(ValueError, match="name"):
            default_experiment_config(name, "rough", 0)


def test_default_task_families():
    rough = default_task_spec("rough", 4)
    assert rough.task_id == "rough-4"
    assert rough.imbalance_ratio > 1.0 and rough.label_noise_rate > 0.0
    smooth = default_task_spec("smooth", 4)
    # benign kind pins the complications off
    assert smooth.imbalance_ratio == 1.0 and smooth.label_noise_rate == 0.0
    assert headline_metric("smooth") is MetricKind.ACCURACY
    assert headline_metric("rough") is MetricKind.MACRO_RECALL


def test_cycle_schedule_steps():
    # 204 rows at batch 32 -> 7 steps/epoch, 2 epochs -> c = 14
    sched = cycle_schedule(2, 204, 32, 1e-3, 1e-6)
    assert sched.cycle_steps == 14
    assert sched.alpha1 == 1e-3 and sched.alpha2 == 1e-6


# ---------------------------------------------------------------------------
# build_soups

def test_build_soups_names_and_membership():
    cfg = _tiny_config(soups=())
    bundle = gen_task(cfg.task, cfg.split_ratios)
    recipe = run_recipe(cfg, bundle)
    grid, groups = recipe.grid, recipe.groups
    soups = build_soups(["uniform", "greedy", "gou", "gog", "fgg_uniform",
                         "fgg_greedy", "gs_gou", "gs_gog"],
                        cfg.metric, cfg.arch, bundle.val, grid, groups)
    by_name = dict(soups)
    assert sorted(by_name["uniform"].members) == sorted(c.id for c in grid)
    assert set(by_name["greedy"].members) <= {c.id for c in grid}
    pool = {c.id for base, fissions in groups for c in (base, *fissions)}
    assert set(by_name["fgg_uniform"].members) == pool
    assert by_name["gou"].level_members is not None
    assert by_name["gs_gog"].level_members is not None
    for name, soup in soups:
        assert soup.val_score is not None, name
    # every hierarchical top level is greedy over locals, so it can only
    # improve on the best single local group
    eval_fn = lambda p: evaluate(p, cfg.arch, bundle.val, cfg.metric)
    for name in ("gou", "gog"):
        soup = by_name[name]
        locals_ = soup.level_members
        assert all(k.startswith("local-") for k in locals_)
        assert soup.val_score == pytest.approx(eval_fn(soup.params))


def test_a_grid_whose_best_models_span_no_plane_writes_no_landscape(tmp_path):
    # zero grid epochs leave every cell at θ0, so the three best anchors coincide
    d = _tiny_config(soups=()).to_dict()
    d["grid"]["epochs"] = 0
    summary = run_experiment(ExperimentConfig.from_dict(d), Store(tmp_path / "store"))
    assert summary["files"] == ["report.csv", "budget.csv", "lmc_curve.csv"]
    assert summary["local_minima"] is None
    exp_dir = tmp_path / "store" / "experiments" / "tiny"
    assert not (exp_dir / "landscape.csv").exists()
    assert json.loads((exp_dir / "summary.json").read_text()) == summary


@pytest.mark.parametrize("pool", ["grid", "snapshot"])
def test_build_soups_refuses_a_pool_that_holds_one_checkpoint_twice(pool):
    cfg = _tiny_config(soups=())
    bundle = gen_task(cfg.task, cfg.split_ratios)
    recipe = run_recipe(cfg, bundle)
    grid, groups = recipe.grid, recipe.groups
    if pool == "grid":
        twice, grid = grid[1], [*grid, grid[1]]
    else:
        (base, snapshots), *rest = groups
        twice, groups = snapshots[0], [(base, [*snapshots, snapshots[0]]), *rest]
    for name in ("uniform", "gou"):
        with pytest.raises(ValueError, match=f"the {pool} pool holds checkpoint {twice.id} more than once"):
            build_soups([name], cfg.metric, cfg.arch, bundle.val, grid, groups)


def _unknown_soup():
    val = LabeledDataset(np.zeros((2, 6)), np.array([0, 1]), class_count=3, role="val", task_id="t")
    build_soups(["nope"], "accuracy", DEFAULT_ARCH, val, [], [])


@pytest.mark.parametrize("call, error, message", [
    (_unknown_soup, ValueError, "unknown soup method 'nope'"),
    (lambda: experiment._find_grid([], 0.01, AugmentLevel.MINIMAL, 0), LookupError,
     "no grid checkpoint with lr=0.01 augment=minimal seed=0"),
], ids=["unknown soup", "grid miss"])
def test_experiment_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_lr_groups_keep_rates_that_share_a_spelling_apart():
    cfg = _tiny_config(soups=())
    d = cfg.to_dict()
    d["grid"]["lrs"] = [0.001, 0.0010000001, 0.003]
    d.update(fgg=None)
    cfg = ExperimentConfig.from_dict(d)
    bundle = gen_task(cfg.task, cfg.split_ratios)
    grid = run_recipe(cfg, bundle).grid
    groups = experiment._lr_groups(grid)
    assert list(groups) == ["lr=0.001", "lr=0.0010000001", "lr=0.003"]
    assert [[c.config.lr for c in g] for g in groups.values()] == [[0.001], [0.0010000001], [0.003]]
    [(_, soup)] = build_soups(["gs_gog"], cfg.metric, cfg.arch, bundle.val, grid, [])
    assert sorted(soup.level_members) == ["local-lr=0.001", "local-lr=0.0010000001", "local-lr=0.003"]


def test_build_soups_checks_the_split_once(split_checks):
    cfg = _tiny_config(soups=())
    bundle = gen_task(cfg.task, cfg.split_ratios)
    recipe = run_recipe(cfg, bundle)
    split_checks.clear()
    soups = build_soups(["uniform", "greedy", "gou", "gog", "fgg_uniform", "fgg_greedy", "gs_gou", "gs_gog"],
                        cfg.metric, cfg.arch, bundle.val, recipe.grid, recipe.groups)
    assert sum(len(soup.audit) for _, soup in soups) > 8  # many trials, one check
    assert len(split_checks) == 1 and split_checks[0] is bundle.val.features
    for name, soup in soups:
        assert soup.val_score == evaluate(soup.params, cfg.arch, bundle.val, cfg.metric), name


def test_gs_gog_records_lower_level_decisions(tmp_path):
    d = _tiny_config().to_dict()
    d["grid"]["seeds"] = [0, 1]  # two members per lr group, so each local greedy decides
    d.update(fgg=None, soups=[])
    cfg = ExperimentConfig.from_dict(d)
    bundle = gen_task(cfg.task, cfg.split_ratios)
    grid = run_recipe(cfg, bundle).grid
    [(_, soup)] = build_soups(["gs_gog"], cfg.metric, cfg.arch, bundle.val, grid, [])
    by_lr = {}
    for c in grid:
        by_lr.setdefault(f"local-lr={c.config.lr:g}", set()).add(c.id)
    assert set(soup.local_audits) == set(by_lr)
    for local_id, decisions in soup.local_audits.items():
        assert {a.candidate_id for a in decisions} == by_lr[local_id]
        assert len(decisions) == 2 and decisions[0].accepted
        kept = [a.candidate_id for a in decisions if a.accepted]
        assert kept == soup.level_members[local_id]
    store = Store(tmp_path)
    store.save_soup(soup, cfg.arch, cfg.metric.value)
    audit = store.load_audit(soup.id)
    assert audit["local_decisions"] == {
        k: [a.to_dict() for a in v] for k, v in soup.local_audits.items()
    }


# ---------------------------------------------------------------------------
# run_experiment determinism

def test_run_experiment_writes_identical_bytes_twice(tmp_path):
    cfg = _tiny_config()
    artifacts = ("report.csv", "budget.csv", "lmc_curve.csv", "landscape.csv",
                 "summary.json", "config.json")
    payloads = []
    for sub in ("a", "b"):
        store = Store(tmp_path / sub)
        summary = run_experiment(cfg, store)
        exp = store.experiment_dir(cfg.name)
        payloads.append({f: (exp / f).read_bytes() for f in artifacts})
        assert summary["failures"] == []
    assert payloads[0] == payloads[1]


def test_a_store_written_twice_from_one_config_is_byte_identical(tmp_path):
    cfg = _tiny_config(soups=_ALL_SOUPS)
    trees = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        run_experiment(cfg, Store(root))
        trees.append({p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    names = trees[0].keys()
    assert names == trees[1].keys()
    assert [n for n in sorted(names) if trees[0][n] != trees[1][n]] == []
    # every kind of file the store holds: checkpoints, soups' audits, datasets and experiments
    assert sum(n.endswith("/manifest.json") for n in names) == sum(n.endswith("/weights.bin") for n in names) > 0
    assert sum(n.endswith("/audit.json") for n in names) == len(_ALL_SOUPS)
    assert {"datasets/tiny/task.json", "experiments/tiny/summary.json"} <= names


def test_run_experiment_is_rerunnable_in_place(tmp_path):
    cfg = _tiny_config()
    store = Store(tmp_path)
    first = run_experiment(cfg, store)
    second = run_experiment(cfg, store)  # identical checkpoints, soups and splits are verified, not rewritten
    assert first["checkpoints"] == second["checkpoints"]
    assert first["soups"] == second["soups"]


# ---------------------------------------------------------------------------
# analyse: the one analysis of a recipe

def test_run_experiment_writes_what_analyse_holds(tmp_path):
    cfg = _tiny_config()
    store = Store(tmp_path / "store")
    summary = run_experiment(cfg, store)
    tables = analyse(cfg, run_recipe(cfg, gen_task(cfg.task, cfg.split_ratios)))
    assert summary["files"] == list(tables) == ["report.csv", "budget.csv", "lmc_curve.csv", "landscape.csv"]
    for file, table in tables.items():
        table.write_csv(tmp_path / file)
        assert (tmp_path / file).read_bytes() == (store.experiment_dir(cfg.name) / file).read_bytes(), file


def test_analyse_without_an_analysis_section_makes_the_report_and_budget_only():
    cfg = replace(_tiny_config(), analysis=None)
    tables = analyse(cfg, run_recipe(cfg, gen_task(cfg.task, cfg.split_ratios)))
    assert list(tables) == ["report.csv", "budget.csv"]


def test_a_failing_analysis_writes_no_csv(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no landscape")

    monkeypatch.setattr(experiment, "landscape_grid", broken)
    cfg = _tiny_config()
    store = Store(tmp_path)
    with pytest.raises(RuntimeError, match="no landscape"):
        run_experiment(cfg, store)
    assert sorted(p.name for p in store.experiment_dir(cfg.name).glob("*.csv")) == []


# Golden sha256 digests of the tiny config's artifacts with every soup
# method enabled. A change in numerics, soup membership or audit layout
# shows up here, so a re-baseline has to be made, and logged, on purpose.
# The byte pins that a kernel moves hold one entry per kernel of
# `conftest.PINS_KERNELS`; the audits are the same on both.
_ALL_SOUPS = ("uniform", "greedy", "gou", "gog", "fgg_uniform", "fgg_greedy", "gs_gou", "gs_gog")
_GOLDEN_FILES = {
    "SkylakeX": {
        "report.csv": "8432ad84b0ab54fc3c05b7ffd05e4f7e4d636ba37791a65fdea75b11c9301d6f",
        "landscape.csv": "af54e390dd42cd1fca8b2fab6408f6482b3c6ca8e36d76a6c73aab6f251a6c30",
        "summary.json": "50a0ff4458891ad2cf097268ff336ce94eec1d880fece0c6441ce2f210ce363f",
    },
    "Haswell": {
        "report.csv": "8432ad84b0ab54fc3c05b7ffd05e4f7e4d636ba37791a65fdea75b11c9301d6f",
        "landscape.csv": "486d2bb9cb9076d08427a7ae326713fda3779f86a51f6b9d5e42caa8bc270f10",
        "summary.json": "50a0ff4458891ad2cf097268ff336ce94eec1d880fece0c6441ce2f210ce363f",
    },
}
_GOLDEN_AUDITS = {
    "uniform": "9684e239d4dfd42c6a188ea16a502f9ef398c8f4c7e83371f6eed8ec3d3d57e1",
    "greedy": "f3790869c7a3be11ef4533d5428b3443839acc1d9e31a9e0622a7bdc1617f1b2",
    "gou": "1d14c83f1b28d48e794ddb7904c98153e7a388b9d43428adf929bc15976dbe9a",
    "gog": "69793821018f809607459aac9dbb89501709a99f76b427c7036a36f7c3b51d26",
    "fgg_uniform": "2093cee05ee20dedc33f92abbbfd5080f388f137d5bacfe0b1ea0692a748ab5e",
    "fgg_greedy": "08bae10e5b61523e1ee81564b397787518647155b96ddbfe6199cd3ce82129c1",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_experiment_artifacts_match_golden_digests(tmp_path, pinned):
    cfg = _tiny_config(soups=_ALL_SOUPS)
    store = Store(tmp_path)
    summary = run_experiment(cfg, store)
    exp = store.experiment_dir(cfg.name)
    golden = pinned(_GOLDEN_FILES)
    assert {f: _sha256(exp / f) for f in golden} == golden
    audits = {name: _sha256(tmp_path / summary["soups"][name]["id"] / "audit.json")
              for name in _GOLDEN_AUDITS}
    assert audits == _GOLDEN_AUDITS


def test_run_recipe_checkpoints_are_the_summary_checkpoints(tmp_path):
    cfg = _tiny_config(soups=_ALL_SOUPS)
    recipe = run_recipe(cfg, gen_task(cfg.task, cfg.split_ratios))
    summary = run_experiment(cfg, Store(tmp_path))
    assert [c.id for c in recipe.checkpoints] == summary["checkpoints"]
    assert {name: soup.id for name, soup in recipe.soups} == {
        name: s["id"] for name, s in summary["soups"].items()}


def test_run_experiment_refuses_a_taken_name_before_training(tmp_path, monkeypatch):
    cfg = _tiny_config()
    store = Store(tmp_path)
    other = _tiny_config(seed=2)
    store.save_task_bundle(cfg.name, gen_task(other.task, other.split_ratios), other.task)

    def no_training(*args, **kwargs):
        raise AssertionError("trained under a taken name")

    monkeypatch.setattr(experiment, "pretrain_source", no_training)
    with pytest.raises(StoreError, match="different task spec"):
        run_experiment(cfg, store)
    assert store.list_checkpoints() == []


def test_a_refused_run_experiment_leaves_no_experiment_directory(tmp_path):
    cfg, other = _tiny_config(), _tiny_config(seed=2)
    store = Store(tmp_path)
    store.save_task_bundle(cfg.name, gen_task(other.task, other.split_ratios), other.task)
    with pytest.raises(StoreError, match="different task spec"):
        run_experiment(cfg, store)
    assert [p.name for p in tmp_path.iterdir()] == ["datasets"]


@pytest.mark.parametrize("form", ["soups", "analysis"])
def test_a_metric_the_val_split_leaves_undefined_is_refused_before_training(tmp_path, monkeypatch, form,
                                                                           undefined_auc_config):
    store = Store(tmp_path / "store")
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "pretrain_source", lambda *a, **k: pytest.fail("trained first"))
        with pytest.raises(MetricUndefinedError, match="single class present"):
            run_experiment(ExperimentConfig.from_dict(undefined_auc_config(form)), store)
    assert not store.root.exists()
    # a run that never scores val under the metric is not refused
    summary = run_experiment(ExperimentConfig.from_dict(undefined_auc_config("neither")), store)
    assert summary["soups"] == {} and summary["files"] == ["report.csv", "budget.csv"]


def test_an_experiment_name_is_bound_to_its_config(tmp_path, monkeypatch):
    cfg = _tiny_config(soups=("uniform",))
    store = Store(tmp_path)
    run_experiment(cfg, store)
    exp = store.experiment_dir(cfg.name)
    before = {p.name: p.read_bytes() for p in exp.iterdir()}
    d = cfg.to_dict()
    d["grid"].update(lrs=[0.01, 0.003])

    def no_task(*args, **kwargs):
        raise AssertionError("made a task under a name bound to another config")

    monkeypatch.setattr(experiment, "gen_task", no_task)
    with pytest.raises(StoreError) as exc:
        run_experiment(ExperimentConfig.from_dict(d), store)
    assert str(exc.value) == "experiment 'tiny' already exists with a different config"
    assert {p.name: p.read_bytes() for p in exp.iterdir()} == before


def test_a_one_model_grid_with_analysis_writes_no_lmc_curve(tmp_path):
    d = _tiny_config(soups=("greedy",)).to_dict()
    d["grid"].update(lrs=[0.01])
    d["fgg"] = None
    summary = run_experiment(ExperimentConfig.from_dict(d), Store(tmp_path))
    assert summary["files"] == ["report.csv", "budget.csv"] and summary["local_minima"] is None
    assert sorted(p.name for p in (tmp_path / "experiments" / "tiny").iterdir()) == [
        "budget.csv", "config.json", "report.csv", "summary.json"]


def test_best_grid_breaks_ties_like_greedy_and_lmc(tmp_path, monkeypatch):
    endpoints = []
    real_sweep = experiment.lmc_sweep

    def spy(a, b, *args):
        endpoints.append(a.id)
        return real_sweep(a, b, *args)

    monkeypatch.setattr(experiment, "lmc_sweep", spy)
    cfg = _tiny_config(soups=("greedy",))
    store = Store(tmp_path)
    summary = run_experiment(cfg, store)
    scores = {cid: store.read_manifest(cid)["val_metrics"][cfg.metric.value]
              for cid in summary["checkpoints"] if cid.startswith("grid-")}
    top = max(scores.values())
    assert sum(s == top for s in scores.values()) >= 2  # the grid has a tie at the top
    with open(store.experiment_dir(cfg.name) / "report.csv", newline="") as fh:
        best = next(row["id"] for row in csv.DictReader(fh) if row["method"] == "best_grid")
    greedy = store.load_audit(summary["soups"]["greedy"]["id"])
    assert best == min(cid for cid, s in scores.items() if s == top)
    assert best == greedy["decisions"][0]["candidate_id"]
    assert endpoints == [best]


# Golden digests of the default recipe (rough, seed 0): twelve-epoch stages,
# heavy augmentation, the warmup head slice and fission collection at full
# scale, none of which the tiny config reaches. The weights digest covers
# every checkpoint's weights.bin, concatenated in summary order.
_GOLDEN_DEFAULT_FILES = {
    "SkylakeX": {
        "report.csv": "909bc76797a63f7cba7f0c955dfbba93137297c291df03faa6e7706e221b6288",
        "landscape.csv": "9922fb0cce8b86c293ac8b1682ad9360aed383e23dda221a8dda4548944b3661",
        "summary.json": "d2b0f0c3bcdb319a18b14713467ef2b89d41424754634d683b5c2a4de55c22e7",
    },
    "Haswell": {
        "report.csv": "909bc76797a63f7cba7f0c955dfbba93137297c291df03faa6e7706e221b6288",
        "landscape.csv": "3bd4caca534fbfbfecd7f175d48bfc12169e5262ef37307c9ed8e70e241b0cba",
        "summary.json": "d2b0f0c3bcdb319a18b14713467ef2b89d41424754634d683b5c2a4de55c22e7",
    },
}
_GOLDEN_DEFAULT_WEIGHTS = {
    "SkylakeX": "171c64d1d99425447daa00b7fc3179ec3424ed7e4b26f7e7df53bb9ed77d44d5",
    "Haswell": "b260ff1805971caf731e957c04a469a4607113703cb4d12609cb9b40f77b705a",
}


def test_default_recipe_artifacts_match_golden_digests(tmp_path, pinned):
    cfg = default_experiment_config("pin", "rough", 0)
    store = Store(tmp_path)
    summary = run_experiment(cfg, store)
    exp = store.experiment_dir(cfg.name)
    golden = pinned(_GOLDEN_DEFAULT_FILES)
    assert {f: _sha256(exp / f) for f in golden} == golden
    weights = hashlib.sha256()
    for cid in summary["checkpoints"]:
        weights.update((tmp_path / cid / "weights.bin").read_bytes())
    assert weights.hexdigest() == pinned(_GOLDEN_DEFAULT_WEIGHTS)


# Golden digests of every checkpoint's val_metrics (accuracy, macro F1,
# macro recall and ROC-AUC as stored in its manifest), hashed in summary
# order. The digests above see macro recall alone: the pinned recipes are
# rough, so the other metrics reach the artifacts only through manifests.
_GOLDEN_TINY_VAL_METRICS = "99e2c06f450da32fac8e3b510c7b6ce7661a2438b93a2872e9bdbc6da1f8c729"
_GOLDEN_DEFAULT_VAL_METRICS = "8712714fab1a6548faa98fc5e80d713cc4676734ade5c9c2c1b057db782a0f2c"
# The smooth task family scores by accuracy, so its report pins that path
# (seed 0: its nine soups and baselines spread over seven accuracy values).
_GOLDEN_SMOOTH_REPORT = "ca198a0501da4fee772b44457c927730c6fb0ab4279e4461d5a344f04bcacb61"


def _val_metrics_digest(store, summary):
    digest = hashlib.sha256()
    for cid in summary["checkpoints"]:
        metrics = store.read_manifest(cid)["val_metrics"]
        digest.update(json.dumps(metrics, sort_keys=True).encode("ascii"))
    return digest.hexdigest()


def test_tiny_val_metrics_match_golden_digest(tmp_path):
    store = Store(tmp_path)
    summary = run_experiment(_tiny_config(soups=_ALL_SOUPS), store)
    assert _val_metrics_digest(store, summary) == _GOLDEN_TINY_VAL_METRICS


def test_default_recipe_val_metrics_match_golden_digest(tmp_path):
    store = Store(tmp_path)
    summary = run_experiment(default_experiment_config("pin", "rough", 0), store)
    assert _val_metrics_digest(store, summary) == _GOLDEN_DEFAULT_VAL_METRICS


# Golden digests of every checkpoint and soup manifest: checkpoints in
# summary order, then soups in the config's soup order.
# These see what no pin above sees: each manifest's lineage (base, cycle and
# root), its config, its data tag and its epochs consumed.
_GOLDEN_TINY_MANIFESTS = {
    "SkylakeX": "289f5aefc4a4b67e783bea6f43870cb553bfbdcd052a4e489f208393734ddf6c",
    "Haswell": "9c832db9b440a82bdd4a0f3137e92bb768c9ea5aaf2a0a2404fc119532d23acb",
}
_GOLDEN_DEFAULT_MANIFESTS = {
    "SkylakeX": "a50d45f386b679b6314eededdcda5c7ca6cdd2096035040042ccc8557359c414",
    "Haswell": "8b6230c6f8da557181573ae916cd0c058f04e7c2a2e38dc2dbfdbd9d3444304c",
}


def _manifests_digest(store, summary):
    digest = hashlib.sha256()
    for cid in [*summary["checkpoints"], *(s["id"] for s in summary["soups"].values())]:
        manifest = store.read_manifest(cid)
        digest.update(json.dumps(manifest, sort_keys=True).encode("ascii"))
    return digest.hexdigest()


def test_tiny_manifests_match_golden_digest(tmp_path, pinned):
    store = Store(tmp_path)
    summary = run_experiment(_tiny_config(soups=_ALL_SOUPS), store)
    assert _manifests_digest(store, summary) == pinned(_GOLDEN_TINY_MANIFESTS)


def test_default_recipe_manifests_match_golden_digest(tmp_path, pinned):
    store = Store(tmp_path)
    summary = run_experiment(default_experiment_config("pin", "rough", 0), store)
    assert _manifests_digest(store, summary) == pinned(_GOLDEN_DEFAULT_MANIFESTS)


_KERNEL_PINS = ("test_run_experiment_artifacts_match_golden_digests",
                "test_default_recipe_artifacts_match_golden_digests",
                "test_tiny_manifests_match_golden_digest", "test_default_recipe_manifests_match_golden_digest")


def test_the_byte_pins_hold_on_the_haswell_kernel():
    # the pins' Haswell entries, checked on an AVX-512 host as well: the four
    # kernel-dependent pins in a child process that runs that kernel
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
    fingerprint = subprocess.run([sys.executable, "-c", "from soupkit.nn import _kernel_fingerprint; "
                                  "print(_kernel_fingerprint())"], capture_output=True, text=True, env=env,
                                 cwd=Path(__file__).parents[1] / "src", timeout=60)
    assert fingerprint.stdout.strip() == PINS_KERNELS["Haswell"], fingerprint.stderr
    tests = [f"{__file__}::{name}" for name in _KERNEL_PINS]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          capture_output=True, text=True, env=env, cwd=Path(__file__).parent, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert "4 passed" in proc.stdout


# Golden digests of the written config.json and the dataset's task.json. A
# round trip through the config codec cannot see a change that both
# directions share, such as writing 1 for 1.0; these bytes can.
_GOLDEN_CONFIG_FILES = {
    "tiny": ("d03bd19b669c9429f0b5b49d52fab62b7807dee138617aca238a1e684322961a",
             "90ab6f17d9255c9324e2d974d58004feafbd52070ce0c4cb4e2bc3ea2faf0741"),
    "tiny-smooth": ("af1023bb8d04f21d5460def6fb06c96f19502b46ec86d421adba11f031df87d3",
                    "0ac778acf15502ca35ceb5e594536beb57d82d724214af2cfca4c3bde38079c5"),
    "default": ("e5a8c17812023688cfa652d1c5fc4159cf6fe00d90b16228c896599e0cafb78b",
                "b75c1aff46ea93fe8a22bb0c9a605cb0d5e49c33867a192fdf50c3943192e32d"),
}


@pytest.mark.parametrize("recipe", sorted(_GOLDEN_CONFIG_FILES))
def test_config_and_task_json_match_golden_digests(tmp_path, recipe):
    cfg = {"tiny": lambda: _tiny_config(soups=_ALL_SOUPS),
           "tiny-smooth": lambda: _tiny_config(name="tiny-smooth", seed=0, soups=_ALL_SOUPS, kind="smooth"),
           "default": lambda: default_experiment_config("pin", "rough", 0)}[recipe]()
    store = Store(tmp_path)
    run_experiment(cfg, store)
    written = (_sha256(store.experiment_dir(cfg.name) / "config.json"),
               _sha256(store.dataset_dir(cfg.name) / "task.json"))
    assert written == _GOLDEN_CONFIG_FILES[recipe]


def test_smooth_accuracy_report_matches_golden_digest(tmp_path):
    cfg = _tiny_config(name="tiny-smooth", seed=0, soups=_ALL_SOUPS, kind="smooth")
    assert cfg.metric is MetricKind.ACCURACY
    store = Store(tmp_path)
    run_experiment(cfg, store)
    assert _sha256(store.experiment_dir(cfg.name) / "report.csv") == _GOLDEN_SMOOTH_REPORT


# The in-memory recipes behind the acceptance criteria: every method's
# val/test/ood scores on rough seed 0 (its best grid model has no tie), and
# the (smooth, rough) strict-minima counts at the default resolution.
_GOLDEN_COMPARISON_SCORES = "4a50c7453cf7b198b3b6f9282b9ce4a283c000907a56842d0176b5ebba6fe481"
_GOLDEN_LANDSCAPE_CONTRAST = [(0, 9), (0, 17), (1, 4)]


def test_method_comparison_scores_match_golden_digest():
    scores = method_comparison(0, "rough").scores
    digest = hashlib.sha256(json.dumps(scores, sort_keys=True).encode("ascii")).hexdigest()
    assert digest == _GOLDEN_COMPARISON_SCORES


def test_landscape_contrast_matches_golden_counts():
    assert [landscape_contrast(seed) for seed in range(3)] == _GOLDEN_LANDSCAPE_CONTRAST


def test_truncated_fission_warns_once_with_its_reason(caplog):
    import logging

    d = _tiny_config().to_dict()
    d["fgg"].update(lrs=[0.01], alpha1=1e30)
    d.update(grid=None, soups=[])
    cfg = ExperimentConfig.from_dict(d)
    bundle = gen_task(cfg.task, cfg.split_ratios)
    with caplog.at_level(logging.WARNING, logger="soupkit"):
        recipe = run_recipe(cfg, bundle)
    bases, groups, failures = recipe.bases, recipe.groups, recipe.failures
    assert len(bases) == 1 and failures == []
    assert len(groups[0][1]) < cfg.fgg.n_collect
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1, warnings
    assert bases[0].id in warnings[0] and "truncated" in warnings[0] and "non-finite" in warnings[0]


def test_summary_and_config_survive_a_crash_mid_write(tmp_path, full_disk):
    cfg = _tiny_config(soups=("uniform",))
    store = Store(tmp_path)
    run_experiment(cfg, store)
    exp = store.experiment_dir(cfg.name)
    before = {f: (exp / f).read_bytes() for f in ("config.json", "summary.json")}
    full_disk("config.json")
    full_disk("summary.json")
    with pytest.raises(OSError):
        run_experiment(cfg, store)
    assert {f: (exp / f).read_bytes() for f in before} == before
    assert not [p.name for p in exp.iterdir() if p.name.endswith(".tmp")]
