"""End-to-end CLI runs against a temporary store.

Each test drives cli_dispatch directly so exit codes and the one-line JSON
contract are exercised exactly as a shell user would see them.
"""

import builtins
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import soupkit
from soupkit.analysis import _stage_budget, compute_budget
from soupkit.cli import cli_dispatch
from soupkit.experiment import SOUPS, build_soups, default_experiment_config
from soupkit.store import Store


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_dispatch(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _ok(*argv):
    rc, out, err = _run(*argv)
    assert rc == 0, f"command failed: {err}"
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1, f"expected one JSON line, got {out!r}"
    return json.loads(lines[0])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """One small pipeline shared by the read-only assertions below."""
    root = str(tmp_path_factory.mktemp("clistore"))
    s = ("--store", root)
    ids = {"store": root}

    ids["gen"] = _ok(*s, "gen-data", "--name", "demo", "--kind", "rough",
                     "--seed", "3", "--dims", "4", "--samples", "240",
                     "--imbalance", "3", "--label-noise", "0.1", "--shift", "1.0",
                     "--heterogeneity", "1.0")
    ids["pretrain"] = _ok(*s, "pretrain", "--data", "demo", "--arch", "4,8,3",
                          "--lr", "0.01", "--epochs", "2")["id"]
    ids["warm"] = _ok(*s, "warmup", "--data", "demo", "--pretrained", ids["pretrain"],
                      "--lr", "0.01", "--epochs", "1")["id"]
    grid = _ok(*s, "grid", "--data", "demo", "--theta0", ids["warm"],
               "--lrs", "0.01,0.003,0.001", "--augments", "minimal", "--seeds", "0",
               "--epochs", "1")
    ids["grid"] = grid["ids"]
    base = _ok(*s, "fgg-base", "--data", "demo", "--theta0", ids["warm"],
               "--lrs", "0.01,0.003", "--epochs", "1")
    ids["bases"] = base["ids"]
    ids["fissions"] = {}
    for b in ids["bases"]:
        f = _ok(*s, "fission", "--data", "demo", "--base", b,
                "--alpha1", "0.003", "--alpha2", "1e-6", "--n-collect", "2")
        ids["fissions"][b] = f["ids"]
    return ids


def test_gen_data_reports_rows(pipe):
    rows = pipe["gen"]["rows"]
    assert set(rows) == {"source", "train", "val", "test", "ood"}
    assert rows["train"] + rows["val"] + rows["test"] == 240


def test_stage_ids_carry_stage_prefixes(pipe):
    assert pipe["pretrain"].startswith("pretrained-")
    assert pipe["warm"].startswith("warmstart-")
    assert len(pipe["grid"]) == 3 and all(i.startswith("grid-") for i in pipe["grid"])
    assert len(pipe["bases"]) == 2 and all(i.startswith("base-") for i in pipe["bases"])
    for fids in pipe["fissions"].values():
        assert len(fids) == 2 and all(i.startswith("fission-") for i in fids)


def test_soup_hierarchical_refuses_two_fission_runs_of_one_base(pipe, tmp_path):
    shutil.copytree(pipe["store"], tmp_path / "store")
    s = ("--store", str(tmp_path / "store"))
    base = pipe["bases"][0]
    _ok(*s, "fission", "--data", "demo", "--base", base,
        "--alpha1", "0.001", "--alpha2", "1e-5", "--n-collect", "2")
    for method in ("gou", "gog"):
        rc, out, err = _run(*s, "soup", "--data", "demo", "--method", method,
                            "--metric", "accuracy", "--bases", base)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: snapshots of {base} come from more than one fission run")
        assert err.count("\n") == 1


def test_eval_scores_a_checkpoint(pipe):
    out = _ok("--store", pipe["store"], "eval", "--id", pipe["grid"][0],
              "--data", "demo", "--metric", "accuracy")
    assert out["split"] == "test"
    assert 0.0 <= out["score"] <= 1.0


def test_soup_uniform_and_greedy(pipe):
    s = ("--store", pipe["store"])
    uni = _ok(*s, "soup", "--data", "demo", "--method", "uniform",
              "--metric", "accuracy", "--ids", ",".join(pipe["grid"]))
    assert uni["id"].startswith("soup-")
    assert sorted(uni["members"]) == sorted(pipe["grid"])
    greedy = _ok(*s, "soup", "--data", "demo", "--method", "greedy",
                 "--metric", "accuracy", "--ids", ",".join(pipe["grid"]))
    assert set(greedy["members"]) <= set(pipe["grid"])
    assert greedy["val_score"] >= uni["val_score"] - 1e-12


def test_soup_hierarchical_over_bases(pipe):
    s = ("--store", pipe["store"])
    for method in ("gou", "gog"):
        out = _ok(*s, "soup", "--data", "demo", "--method", method,
                  "--metric", "accuracy", "--bases", ",".join(pipe["bases"]))
        assert out["id"].startswith("soup-")
        assert out["val_score"] is not None


def test_soup_hierarchical_matches_build_soups(pipe):
    """Every soup in `SOUPS` made by the CLI is the one `build_soups` makes:
    grid soups over the grid named by --ids, fgg soups over the bases named
    by --bases and their snapshots."""
    store = Store(pipe["store"])
    val = store.load_dataset("demo", "val")
    grid = [store.load_checkpoint(i) for i in pipe["grid"]]
    groups = [(store.load_checkpoint(b), [store.load_checkpoint(f) for f in pipe["fissions"][b]])
              for b in pipe["bases"]]
    for method, (section, _) in SOUPS.items():
        flag, ids, pools = (("--ids", pipe["grid"], (grid, [])) if section == "grid"
                            else ("--bases", pipe["bases"], ([], groups)))
        out = _ok("--store", pipe["store"], "soup", "--data", "demo", "--method", method,
                  "--metric", "accuracy", flag, ",".join(ids))
        [(_, soup)] = build_soups([method], "accuracy", grid[0].arch, val, *pools)
        assert (out["id"], out["val_score"]) == (soup.id, soup.val_score), method
        assert store.load_audit(out["id"]) == json.loads(json.dumps(soup.audit_dict())), method


def test_soup_hierarchical_loads_only_requested_snapshots(pipe, monkeypatch):
    base, other = pipe["bases"]
    loaded = []
    real_load = Store.load_checkpoint

    def spy(self, checkpoint_id):
        loaded.append(checkpoint_id)
        return real_load(self, checkpoint_id)

    monkeypatch.setattr(Store, "load_checkpoint", spy)
    _ok("--store", pipe["store"], "soup", "--data", "demo", "--method", "gou",
        "--metric", "accuracy", "--bases", base)
    assert sorted(i for i in loaded if i.startswith("fission-")) == sorted(pipe["fissions"][base])
    assert not set(loaded) & set(pipe["fissions"][other])


def test_a_soup_under_a_second_metric_is_refused_and_leaves_the_audit(pipe, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    argv = ("--store", str(root), "soup", "--data", "demo", "--method", "uniform", "--ids", ",".join(pipe["grid"]))
    first = _ok(*argv, "--metric", "accuracy")
    audit = root / first["id"] / "audit.json"
    before = audit.read_bytes(), audit.stat().st_ino
    rc, out, err = _run(*argv, "--metric", "roc_auc_ovr")
    assert rc == 1 and out == ""
    assert err == f"error: soup {first['id']} is already stored under metric accuracy with a different audit\n"
    assert (audit.read_bytes(), audit.stat().st_ino) == before
    assert _ok(*argv, "--metric", "accuracy") == first
    assert (audit.read_bytes(), audit.stat().st_ino) == before  # the identical record wrote nothing


def test_discovery_and_budget_in_a_store_with_debris_match_list_then_read(pipe, tmp_path, add_debris):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    store = Store(root)
    add_debris(root, (root / pipe["fissions"][pipe["bases"][0]][0] / "manifest.json").read_bytes())
    # snapshot discovery and budget as they were: list every checkpoint, then read manifests
    base_ids = set(pipe["bases"])
    snapshots = sorted((store.load_checkpoint(i) for i in store.list_checkpoints()
                        if i.startswith("fission-") and store.read_manifest(i)["lineage"]["base_id"] in base_ids),
                       key=lambda f: f.lineage.cycle_index or 0)
    bases = [store.load_checkpoint(b) for b in pipe["bases"]]
    groups = [(b, [f for f in snapshots if f.lineage.base_id == b.id]) for b in bases]
    val = store.load_dataset("demo", "val")
    for method in ("gou", "gog"):
        [(_, soup)] = build_soups([method], "accuracy", bases[0].arch, val, [], groups)
        out = _ok("--store", str(root), "soup", "--data", "demo", "--method", method,
                  "--metric", "accuracy", "--bases", ",".join(pipe["bases"]))
        assert (out["id"], out["members"], out["val_score"]) == (soup.id, soup.members, soup.val_score), method
    _stage_budget((m["lineage"]["stage"], m["epochs_consumed"])
                  for m in map(store.read_manifest, store.list_checkpoints())).write_csv(tmp_path / "want.csv")
    _ok("--store", str(root), "budget", "--out", str(tmp_path / "got.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _file_calls(monkeypatch, root):
    """The opens and stats of paths under `root` from now on, as (call, path
    relative to root) pairs. An `os.open` made by `open` (its opener) is part
    of that one open, and an `os.fstat` of an open file is not a stat of a path."""
    calls = []
    prefix = f"{root}/"
    depth = [0]

    def spy(call, real):
        def wrapper(path, *args, **kwargs):
            if not depth[0] and isinstance(path, (str, os.PathLike)) and os.fspath(path).startswith(prefix):
                calls.append((call, os.fspath(path)[len(prefix):]))
            depth[0] += 1
            try:
                return real(path, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for owner, attr, call in ((builtins, "open", "open"), (io, "open", "open"), (os, "open", "open"),
                              (os, "stat", "stat")):
        monkeypatch.setattr(owner, attr, spy(call, getattr(owner, attr)))
    return calls


def _never_list(self):
    raise AssertionError("list_checkpoints called")


def test_budget_reads_each_manifest_once_and_stats_no_entry(pipe, tmp_path, monkeypatch):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    ids = Store(root).list_checkpoints()
    monkeypatch.setattr(Store, "list_checkpoints", _never_list)
    calls = _file_calls(monkeypatch, root)
    _ok("--store", str(root), "budget", "--out", str(tmp_path / "budget.csv"))
    assert [c for c in calls if c[0] == "stat"] == []
    assert sorted(calls) == sorted(("open", f"{i}/manifest.json") for i in ids)


def test_snapshot_discovery_opens_only_fission_manifests(pipe, tmp_path, monkeypatch):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    base = pipe["bases"][0]
    fissions = [i for i in Store(root).list_checkpoints() if i.startswith("fission-")]
    monkeypatch.setattr(Store, "list_checkpoints", _never_list)
    calls = _file_calls(monkeypatch, root)
    soup = _ok("--store", str(root), "soup", "--data", "demo", "--method", "gou",
               "--metric", "accuracy", "--bases", base)["id"]
    # Outside the dataset and the soup being saved, no entry is stat'ed and
    # only the base's and the snapshots' manifests are opened: each snapshot
    # once by discovery, the base's snapshots once more as they load.
    entries = [(call, path) for call, path in calls if path.split("/")[0] not in ("datasets", soup)]
    assert [c for c in entries if c[0] == "stat"] == []
    opened = sorted(path for call, path in entries if path.endswith("/manifest.json"))
    want = [base, *fissions, *pipe["fissions"][base]]
    assert opened == sorted(f"{i}/manifest.json" for i in want)


def _child(*argv):
    """`python *argv` in a fresh interpreter that imports soupkit from this source tree."""
    src = str(Path(soupkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_prints_usage():
    proc = _child("-m", "soupkit.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: soupkit")


def test_the_package_root_holds_only_its_version_and_imports_no_module():
    """Each name has one import path, its module: `import soupkit.nn` runs the root and nn alone."""
    proc = _child("-c", "import json, sys, soupkit; names = [n for n in vars(soupkit) if not n.startswith('__')]; "
                        "import soupkit.nn; print(json.dumps([names, soupkit.__version__, "
                        "sorted(m for m in sys.modules if m.partition('.')[0] == 'soupkit')]))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "0.1.0", ["soupkit", "soupkit.nn"]]


def test_lmc_writes_curve(pipe, tmp_path):
    csv_path = str(tmp_path / "curve.csv")
    out = _ok("--store", pipe["store"], "lmc", "--a", pipe["grid"][0],
              "--b", pipe["grid"][1], "--data", "demo", "--metric", "accuracy",
              "--points", "5", "--out", csv_path)
    assert len(out["scores"]) == 5
    assert out["barrier"] >= 0.0
    assert len(open(csv_path).readlines()) == 6


def test_landscape_counts_minima(pipe, tmp_path):
    csv_path = str(tmp_path / "surface.csv")
    out = _ok("--store", pipe["store"], "landscape", "--ids", ",".join(pipe["grid"]),
              "--data", "demo", "--metric", "accuracy", "--resolution", "4,4",
              "--out", csv_path)
    assert out["local_minima"] >= 0
    assert len(open(csv_path).readlines()) == 1 + 16


def test_report_table(pipe, tmp_path):
    csv_path = str(tmp_path / "report.csv")
    out = _ok("--store", pipe["store"], "report", "--ids", ",".join(pipe["grid"][:2]),
              "--labels", "lr_high,lr_mid", "--data", "demo",
              "--metric", "accuracy", "--out", csv_path)
    assert out["rows"] == 2
    lines = open(csv_path).read().splitlines()
    # the ood column carries the generator's task id, not the store name
    assert lines[0] == "method,id,id_test,rough-3:ood"
    assert lines[1].startswith("lr_high,")


def test_report_refuses_a_label_count_that_differs_from_the_id_count(pipe, tmp_path):
    rc, out, err = _run("--store", pipe["store"], "report", "--ids", ",".join(pipe["grid"][:2]),
                        "--labels", "only_one", "--data", "demo", "--metric", "accuracy",
                        "--out", str(tmp_path / "report.csv"))
    assert rc == 1 and out == "" and err == "error: 1 labels for 2 ids\n"
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["report", "budget"])
@pytest.mark.parametrize("ids", [",", "", " , "], ids=["comma", "empty", "blank"])
def test_a_list_flag_that_names_nothing_is_a_one_line_error(pipe, tmp_path, command, ids):
    report_flags = ("--data", "demo", "--metric", "accuracy") if command == "report" else ()
    rc, out, err = _run("--store", pipe["store"], command, *report_flags, "--ids", ids,
                        "--out", str(tmp_path / "out.csv"))
    assert rc == 1 and out == ""
    assert err == "error: --ids must name at least one checkpoint id\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, flag", [("soup", "--ids"), ("soup", "--bases"), ("report", "--ids"),
                                           ("budget", "--ids")])
def test_a_list_flag_that_names_an_id_twice_is_a_one_line_error(pipe, tmp_path, command, flag):
    a, b = pipe["bases"] if flag == "--bases" else pipe["grid"][:2]
    flags = {"soup": ("--data", "demo", "--metric", "accuracy",
                      "--method", "gou" if flag == "--bases" else "uniform"),
             "report": ("--data", "demo", "--metric", "accuracy", "--out", str(tmp_path / "out.csv")),
             "budget": ("--out", str(tmp_path / "out.csv"))}[command]
    before = sorted(os.listdir(pipe["store"]))
    rc, out, err = _run("--store", pipe["store"], command, *flags, flag, f"{a}, {b},{a}")
    assert rc == 1 and out == ""
    assert err == f"error: {flag} names {a} more than once\n"
    assert not (tmp_path / "out.csv").exists()
    assert sorted(os.listdir(pipe["store"])) == before


@pytest.mark.parametrize("command, flag, named, problem", [
    ("grid", "--lrs", ",", "must name at least one value"),
    ("grid", "--seeds", ",", "must name at least one value"),
    ("grid", "--augments", " , ", "must name at least one value"),
    ("fgg-base", "--lrs", ",", "must name at least one value"),
    ("grid", "--lrs", "0.01,0.01", "names 0.01 more than once"),
    ("grid", "--lrs", "1e-2, 0.003,0.01", "names 0.01 more than once"),
    ("grid", "--seeds", "0,1,0", "names 0 more than once"),
    ("grid", "--augments", "minimal,heavy,minimal", "names minimal more than once"),
    ("fgg-base", "--lrs", "0.003,0.01,0.003", "names 0.003 more than once"),
])
def test_a_stage_list_flag_that_names_nothing_or_a_value_twice_is_a_one_line_error(pipe, command, flag, named,
                                                                                   problem):
    flags = {"--theta0": pipe["warm"], "--lrs": "0.01", "--epochs": "1", flag: named}
    before = sorted(os.listdir(pipe["store"]))
    rc, out, err = _run("--store", pipe["store"], command, "--data", "demo",
                        *(part for item in flags.items() for part in item))
    assert rc == 1 and out == ""
    assert err == f"error: {flag} {problem}\n"
    assert sorted(os.listdir(pipe["store"])) == before


@pytest.mark.parametrize("resolution", ["4", "4,4,4", "4,x", "4.5,4", "", "4;4"])
def test_a_landscape_resolution_other_than_two_integers_is_a_one_line_error(pipe, tmp_path, resolution):
    rc, out, err = _run("--store", pipe["store"], "landscape", "--ids", ",".join(pipe["grid"]), "--data", "demo",
                        "--metric", "accuracy", "--resolution", resolution, "--out", str(tmp_path / "surface.csv"))
    assert rc == 1 and out == ""
    assert err == f"error: --resolution must be two comma-separated integers, got {resolution!r}\n"
    assert not (tmp_path / "surface.csv").exists()


def test_a_landscape_margin_of_minus_half_is_a_one_line_error(pipe, tmp_path):
    rc, out, err = _run("--store", pipe["store"], "landscape", "--ids", ",".join(pipe["grid"]), "--data", "demo",
                        "--metric", "accuracy", "--margin", "-0.5", "--out", str(tmp_path / "surface.csv"))
    assert (rc, out, err) == (1, "", "error: margin must be greater than -0.5, got -0.5\n")
    assert not (tmp_path / "surface.csv").exists()


def test_an_infinite_landscape_margin_is_a_one_line_error(pipe, tmp_path):
    rc, out, err = _run("--store", pipe["store"], "landscape", "--ids", ",".join(pipe["grid"]), "--data", "demo",
                        "--metric", "accuracy", "--margin", "inf", "--out", str(tmp_path / "surface.csv"))
    assert (rc, out, err) == (1, "", "error: margin must be finite, got inf\n")
    assert not (tmp_path / "surface.csv").exists()


def test_landscape_refuses_an_anchor_named_twice(pipe):
    a, b = pipe["grid"][:2]
    rc, out, err = _run("--store", pipe["store"], "landscape", "--ids", f"{a},{b},{a}", "--data", "demo",
                        "--metric", "accuracy")
    assert rc == 1 and out == "" and err == f"error: --ids names {a} more than once\n"


def test_budget_covers_all_stages(pipe, tmp_path):
    out = _ok("--store", pipe["store"], "budget", "--out", str(tmp_path / "b.csv"))
    stages = out["stage_epochs"]
    for stage in ("pretrained", "warmstart", "grid", "base", "fission"):
        assert stage in stages, stage
    assert out["grid_total"] == 3.0  # 3 cells x 1 epoch
    assert out["ratio"] is not None


def test_budget_from_manifests_equals_compute_budget_over_loaded_checkpoints(pipe, tmp_path):
    store = Store(pipe["store"])
    every = store.list_checkpoints()
    for ids, argv in ((every, ()), (every[::2], ("--ids", ",".join(every[::2])))):
        want = compute_budget([store.load_checkpoint(i) for i in ids])
        want.write_csv(tmp_path / "want.csv")
        out = _ok("--store", pipe["store"], "budget", *argv, "--out", str(tmp_path / "got.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert out["stage_epochs"] == want.stage_epochs
        assert (out["grid_total"], out["fgg_total"], out["ratio"]) == (want.grid_total, want.fgg_total, want.ratio)


def test_budget_reads_no_weights(pipe, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    before = _ok("--store", str(root), "budget")
    victim = pipe["grid"][0]
    (root / victim / "weights.bin").write_bytes(b"\x00" * 8)
    assert _ok("--store", str(root), "budget") == before
    rc, _, err = _run("--store", str(root), "eval", "--id", victim, "--data", "demo", "--metric", "accuracy")
    assert rc != 0 and "checksum mismatch" in err


def test_eval_of_a_checkpoint_without_weights_is_a_one_line_error_naming_it(pipe, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    victim = pipe["grid"][0]
    (root / victim / "weights.bin").unlink()
    rc, out, err = _run("--store", str(root), "eval", "--id", victim, "--data", "demo", "--metric", "accuracy")
    assert (rc, out, err) == (1, "", f"error: checkpoint {victim} has no weights.bin in {root}\n")


def test_budget_refuses_a_manifest_of_an_unknown_stage(pipe, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    manifest = root / pipe["grid"][0] / "manifest.json"
    m = json.loads(manifest.read_text())
    m["lineage"]["stage"] = "mystery"
    manifest.write_text(json.dumps(m))
    rc, out, err = _run("--store", str(root), "budget")
    assert rc == 1 and out == ""
    assert err.startswith("error: unknown stage 'mystery'") and err.count("\n") == 1


def _edited(**keys):
    return lambda raw: json.dumps(dict(json.loads(raw), **keys)).encode()


_BAD_MANIFESTS = {
    "array": (lambda raw: b"[1]", "is not a JSON object"),
    "lineage": (_edited(lineage="x"), "has a lineage that is not an object"),
    "epochs": (_edited(epochs_consumed=None), "has an epochs_consumed that is not a number"),
    "truncated": (lambda raw: raw[:len(raw) // 2], "is not valid JSON"),
    "not-utf8": (lambda raw: b"\xff" + raw, "is not valid JSON"),
}


@pytest.mark.parametrize("command", ["budget", "eval", "soup", "fission"])
@pytest.mark.parametrize("bad", list(_BAD_MANIFESTS))
def test_a_malformed_manifest_is_a_one_line_error_naming_it(pipe, tmp_path, bad, command):
    """`budget`, `eval`, gou discovery and a re-save (fission again into the same ids) read one snapshot's manifest."""
    root = tmp_path / "store"
    shutil.copytree(pipe["store"], root)
    base = pipe["bases"][0]
    victim = pipe["fissions"][base][0]
    edit, problem = _BAD_MANIFESTS[bad]
    manifest = root / victim / "manifest.json"
    manifest.write_bytes(edit(manifest.read_bytes()))
    argv = {
        "budget": ["budget"],
        "eval": ["eval", "--id", victim, "--data", "demo", "--metric", "accuracy"],
        "soup": ["soup", "--data", "demo", "--method", "gou", "--metric", "accuracy", "--bases", base],
        "fission": ["fission", "--data", "demo", "--base", base, "--alpha1", "0.003", "--alpha2", "1e-6",
                    "--n-collect", "2"],
    }[command]
    assert _run("--store", str(root), *argv) == (1, "", f"error: manifest of {victim} {problem}\n")


def test_store_flag_from_environment(pipe, monkeypatch):
    monkeypatch.setenv("SOUPKIT_STORE", pipe["store"])
    out = _ok("eval", "--id", pipe["grid"][0], "--data", "demo", "--metric", "accuracy")
    assert out["command"] == "eval"


def test_run_experiment_minimal_config(tmp_path):
    config = {
        "schema_version": 1,
        "name": "tiny",
        "metric": "accuracy",
        "arch": {"layer_dims": [4, 8, 3], "activation": "relu"},
        "task": {"kind": "rough", "seed": 1, "dims": 4, "class_count": 3,
                 "n_samples": 240, "imbalance_ratio": 2.0, "label_noise_rate": 0.1,
                 "cluster_heterogeneity": 1.0, "shift_magnitude": 1.0},
        "pretrain": {"lr": 0.01, "epochs": 2, "seed": 1},
        "warmup": {"lr": 0.01, "epochs": 1},
        "grid": {"lrs": [0.01, 0.003, 0.001], "augments": ["minimal"], "seeds": [0], "epochs": 1},
        "fgg": {"lrs": [0.01, 0.003], "epochs": 1, "cycle_epochs": 2,
                "alpha1": 0.003, "alpha2": 1e-6, "n_collect": 2},
        "soups": ["uniform", "greedy", "gou", "gog"],
        "analysis": {"lmc_points": 5, "landscape_resolution": [4, 4]},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    store = tmp_path / "store"
    out = _ok("--store", str(store), "run-experiment", str(cfg_path))
    assert out["command"] == "run-experiment"
    assert out["name"] == "tiny"
    assert set(out["soups"]) == {"uniform", "greedy", "gou", "gog"}
    exp_dir = store / "experiments" / "tiny"
    for artifact in ("report.csv", "summary.json", "config.json", "budget.csv",
                     "lmc_curve.csv", "landscape.csv"):
        assert (exp_dir / artifact).is_file(), artifact


@pytest.mark.parametrize("config, problem", [
    ({"schema_version": 1, "name": "tiny", "metric": "accuracy",
      "arch": {"layer_dims": [4, 8, 3], "activation": "relu"},
      "task": {"kind": "smooth", "seed": 1, "dims": 4, "class_count": 3, "n_samples": 240},
      "soup": ["uniform"]}, "unknown key 'soup'"),
    ([1, 2], "must be an object"),
    ({"schema_version": 1, "name": "tiny", "metric": "accuracy",
      "arch": {"layer_dims": [4, 8, 3], "activation": "relu"},
      "task": {"kind": "smooth", "seed": 1, "dims": 4, "class_count": 3, "n_samples": 240},
      "pretrain": {"lr": float("nan")}}, "pretrain.lr: expected a finite number, got nan"),
], ids=["unknown-key", "not-an-object", "nan-rate"])
def test_run_experiment_refuses_a_bad_config_in_one_line(tmp_path, config, problem):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc, out, err = _run("--store", str(tmp_path / "store"), "run-experiment", str(cfg_path))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and problem in err and err.count("\n") == 1
    assert not (tmp_path / "store" / "datasets").exists()


@pytest.mark.parametrize("edit, problem", [
    (lambda d: (d["task"].update(n_samples=240), d["fgg"].update(cycle_epochs=1)),
     "fgg: cycle length must be a positive even integer, got 7"),
    (lambda d: d.update(split_ratios=[0.9, 0.1, 0.1]), "split_ratios: ratios must sum to 1, got 1.1"),
], ids=["odd-cycle", "ratios-over-one"])
def test_run_experiment_refuses_an_odd_cycle_or_bad_ratios_before_writing(tmp_path, edit, problem):
    d = default_experiment_config("e", "rough", 0).to_dict()
    edit(d)
    (tmp_path / "exp.json").write_text(json.dumps(d))
    rc, out, err = _run("--store", str(tmp_path / "store"), "run-experiment", str(tmp_path / "exp.json"))
    assert (rc, out, err) == (1, "", f"error: {problem}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


def test_run_experiment_refuses_a_landscape_margin_of_minus_half_before_training(tmp_path):
    d = default_experiment_config("e", "rough", 0).to_dict()
    d["analysis"]["landscape_margin"] = -0.5
    (tmp_path / "exp.json").write_text(json.dumps(d))
    rc, out, err = _run("--store", str(tmp_path / "store"), "run-experiment", str(tmp_path / "exp.json"))
    assert (rc, out, err) == (1, "", "error: analysis: margin must be greater than -0.5, got -0.5\n")
    assert not (tmp_path / "store" / "datasets").exists()


@pytest.mark.parametrize("form", ["soups", "analysis"])
def test_run_experiment_refuses_a_metric_the_val_split_leaves_undefined_before_writing(tmp_path, form,
                                                                                      undefined_auc_config):
    (tmp_path / "exp.json").write_text(json.dumps(undefined_auc_config(form)))
    rc, out, err = _run("--store", str(tmp_path / "store"), "run-experiment", str(tmp_path / "exp.json"))
    assert (rc, out, err) == (1, "", "error: ROC-AUC is undefined with a single class present\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


@pytest.mark.parametrize("edit, problem", [
    (lambda spec: spec.update(n_sample=spec.pop("n_samples")), "unknown key 'n_sample'"),
    (lambda spec: spec.pop("dims"), "missing key 'dims'"),
], ids=["unknown", "missing"])
def test_gen_data_spec_with_a_bad_key_is_a_one_line_error(tmp_path, edit, problem):
    spec = {"kind": "rough", "seed": 0, "dims": 4, "class_count": 3, "n_samples": 240}
    edit(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc, out, err = _run("--store", str(tmp_path / "store"), "gen-data", "--name", "e", "--spec", str(spec_path))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and problem in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, what", [
    (("run-experiment", "{path}"), "experiment config {path}"),
    (("gen-data", "--name", "e", "--spec", "{path}"), "task spec {path}"),
], ids=["config", "spec"])
@pytest.mark.parametrize("raw", [b'{"schema_version": 1, ', b"\xff{}"], ids=["truncated", "not-utf8"])
def test_an_input_file_that_is_not_json_is_a_one_line_error_naming_it(tmp_path, argv, what, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    rc, out, err = _run("--store", str(tmp_path / "store"), *(a.format(path=path) for a in argv))
    assert (rc, out, err) == (1, "", f"error: {what.format(path=path)} is not valid JSON\n")
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


@pytest.mark.parametrize("raw, problem", [
    (b'"x"', "TaskSpec: expected an object, got 'x'"),
    (b"{}", "TaskSpec: missing key 'kind'; missing key 'seed'"),
], ids=["not-an-object", "empty-object"])
def test_a_spec_file_that_is_no_task_spec_is_a_one_line_error_naming_it(tmp_path, raw, problem):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    rc, out, err = _run("--store", str(tmp_path / "store"), "gen-data", "--name", "e", "--spec", str(path))
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: task spec {path}: {problem}")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("argv, problem", [
    (("grid", "--theta0", "{warm}", "--lrs", "0.01,nan", "--epochs", "1"), "lr must be positive and finite, got nan"),
    (("fission", "--base", "{base}", "--alpha1", "inf", "--alpha2", "1e-6", "--n-collect", "2"),
     "rates must be positive and finite"),
    (("pretrain", "--lr", "0.01", "--epochs", "1", "--weight-decay", "inf"), "weight_decay must be non-negative and finite"),
], ids=["grid-lr", "fission-alpha", "pretrain-weight-decay"])
def test_a_non_finite_rate_flag_is_a_one_line_error(pipe, argv, problem):
    argv = [a.format(warm=pipe["warm"], base=pipe["bases"][0]) for a in argv]
    rc, out, err = _run("--store", pipe["store"], argv[0], "--data", "demo", *argv[1:])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and problem in err and err.count("\n") == 1


def test_gen_data_refuses_a_non_finite_knob_in_one_line(tmp_path):
    rc, out, err = _run("--store", str(tmp_path / "store"), "gen-data", "--name", "e", "--imbalance", "nan")
    assert rc == 1 and out == ""
    assert err.startswith("error: imbalance_ratio must be finite") and err.count("\n") == 1
    assert not (tmp_path / "store").exists()


def test_dispatch_runs_the_handler_bound_on_the_module_now(pipe, monkeypatch):
    argv = ("--store", pipe["store"], "eval", "--id", pipe["grid"][0], "--data", "demo", "--metric", "accuracy")
    _ok(*argv)  # the parser is built and cached by the first dispatch
    seen = []
    monkeypatch.setattr(soupkit.cli, "cmd_eval", lambda args: seen.append(args.id) or {"command": "patched"})
    assert _ok(*argv) == {"command": "patched"}
    assert seen == [pipe["grid"][0]]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        _run("definitely-not-a-command")
    assert exc.value.code == 2


def test_missing_checkpoint_is_an_error(pipe):
    rc, out, err = _run("--store", pipe["store"], "eval", "--id", "grid-nope",
                        "--data", "demo", "--metric", "accuracy")
    assert rc == 1
    assert out == ""
    assert "error:" in err


def test_landscape_rejects_wrong_anchor_count(pipe):
    rc, _, err = _run("--store", pipe["store"], "landscape",
                      "--ids", ",".join(pipe["grid"][:2]), "--data", "demo",
                      "--metric", "accuracy")
    assert rc == 1 and "three" in err


def test_soup_requires_member_flags(pipe):
    for method, (section, _) in SOUPS.items():
        flag = "--ids" if section == "grid" else "--bases"
        for given in ((), (flag, ""), (flag, ","), (flag, " , ")):
            rc, out, err = _run("--store", pipe["store"], "soup", "--data", "demo",
                                "--method", method, "--metric", "accuracy", *given)
            assert rc == 1 and out == "", (method, given)
            assert err.startswith("error: ") and flag in err and err.count("\n") == 1, (method, given, err)


def _soup_id(pipe):
    return _ok("--store", pipe["store"], "soup", "--data", "demo", "--method", "uniform",
               "--metric", "accuracy", "--ids", ",".join(pipe["grid"]))["id"]


def test_fission_from_a_soup_is_a_one_line_error(pipe):
    soup = _soup_id(pipe)
    rc, out, err = _run("--store", pipe["store"], "fission", "--data", "demo", "--base", soup,
                        "--alpha1", "0.003", "--alpha2", "1e-6", "--n-collect", "2")
    assert rc == 1 and out == ""
    assert err.startswith(f"error: checkpoint {soup} has no training config") and err.count("\n") == 1


def test_soup_by_learning_rate_of_a_soup_is_a_one_line_error(pipe):
    soup = _soup_id(pipe)
    for method in ("gs_gou", "gs_gog"):
        rc, out, err = _run("--store", pipe["store"], "soup", "--data", "demo", "--method", method,
                            "--metric", "accuracy", "--ids", soup)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: checkpoint {soup} has no training config") and err.count("\n") == 1


def test_warmup_from_a_soup_without_seed_is_a_one_line_error(pipe):
    soup = _soup_id(pipe)
    rc, out, err = _run("--store", pipe["store"], "warmup", "--data", "demo", "--pretrained", soup,
                        "--lr", "0.01", "--epochs", "1")
    assert rc == 1 and out == ""
    assert err.startswith(f"error: checkpoint {soup} has no training config") and "--seed" in err
    assert err.count("\n") == 1


def test_diverging_stage_is_a_one_line_error(tmp_path):
    s = ("--store", str(tmp_path))
    _ok(*s, "gen-data", "--name", "e", "--seed", "0")
    rc, out, err = _run(*s, "pretrain", "--data", "e", "--lr", "1e6", "--epochs", "3")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: non-finite") and err.count("\n") == 1


def test_gen_data_under_a_name_outside_the_store_is_a_one_line_error(tmp_path):
    for name in ("../x", "../../escaped", "..", "."):
        rc, out, err = _run("--store", str(tmp_path / "outer" / "store"), "gen-data", "--name", name)
        assert rc == 1 and out == ""
        assert err == f"error: invalid dataset name {name!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, want", [
    (("budget",), (0, '{"command": "budget", "fgg_total": 0.0, "grid_total": 0.0, "ratio": null, '
                      '"stage_epochs": {}}\n', "")),
    (("eval", "--id", "grid-x", "--data", "d", "--split", "val", "--metric", "accuracy"),
     (1, "", "error: no checkpoint grid-x in {root}\n")),
])
def test_a_read_only_command_on_a_missing_store_creates_nothing(tmp_path, argv, want):
    root = tmp_path / "absent" / "store"
    rc, out, err = _run("--store", str(root), *argv)
    assert (rc, out, err) == (want[0], want[1], want[2].format(root=root))
    assert list(tmp_path.iterdir()) == []


def test_gen_data_refuses_a_different_spec_under_a_taken_name(tmp_path):
    s = ("--store", str(tmp_path))
    _ok(*s, "gen-data", "--name", "e", "--seed", "0")
    train = (tmp_path / "datasets" / "e" / "train.csv").read_bytes()
    rc, out, err = _run(*s, "gen-data", "--name", "e", "--seed", "5", "--samples", "300")
    assert rc == 1 and out == "" and "different task spec" in err
    assert (tmp_path / "datasets" / "e" / "train.csv").read_bytes() == train
    _ok(*s, "gen-data", "--name", "e", "--seed", "0")


def test_run_experiment_refuses_other_splits_of_a_dataset_before_training(tmp_path):
    # README's gen-data line splits the calibrated rough task 0.8/0.1/0.1; a config splits it 0.85/0.05/0.10.
    s = ("--store", str(tmp_path / "store"))
    _ok(*s, "gen-data", "--name", "demo", "--kind", "rough", "--seed", "0", "--imbalance", "6",
        "--label-noise", "0.15", "--heterogeneity", "1.5", "--shift", "1.5", "--source-shift", "2")
    train = tmp_path / "store" / "datasets" / "demo" / "train.csv"
    before = train.read_bytes()
    assert len(before.splitlines()) == 1 + 720
    (tmp_path / "exp.json").write_text(json.dumps(default_experiment_config("demo", "rough", 0).to_dict()))
    rc, out, err = _run(*s, "run-experiment", str(tmp_path / "exp.json"))
    assert (rc, out, err) == (1, "", "error: dataset 'demo' already exists with different splits\n")
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["datasets"]
    assert train.read_bytes() == before


@pytest.mark.parametrize("edit, problem", [
    (lambda d: d.update(batch_size=0), "pretrain: batch_size must be positive, got 0"),
    (lambda d: d.update(weight_decay=-1), "pretrain: weight_decay must be non-negative and finite, got -1.0"),
    (lambda d: d["pretrain"].update(lr=0), "pretrain: lr must be positive and finite, got 0.0"),
    (lambda d: d["warmup"].update(lr=-1), "warmup: lr must be positive and finite, got -1.0"),
    (lambda d: d["grid"].update(epochs=-1), "grid: epoch counts must be non-negative"),
    (lambda d: d["fgg"].update(epochs=-2), "fgg: epoch counts must be non-negative"),
], ids=["zero-batch", "negative-decay", "zero-pretrain-lr", "negative-warmup-lr", "negative-grid-epochs",
        "negative-fgg-epochs"])
def test_run_experiment_refuses_bad_stage_settings_before_writing(tmp_path, edit, problem):
    d = default_experiment_config("e", "rough", 0).to_dict()
    edit(d)
    (tmp_path / "exp.json").write_text(json.dumps(d))
    rc, out, err = _run("--store", str(tmp_path / "store"), "run-experiment", str(tmp_path / "exp.json"))
    assert (rc, out, err) == (1, "", f"error: {problem}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]
