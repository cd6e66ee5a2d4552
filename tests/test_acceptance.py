"""Acceptance gate: ten checks with pinned thresholds and runtime budgets.

Each check prints exactly one verdict line (run pytest with -s to see the
PASS lines too; FAIL lines surface in the assertion message). The empirical
checks (6-9) run the calibrated default recipes at full desk scale, so this
file is the slow part of the suite: about two minutes end to end.
"""

import json
import os
import time

import numpy as np
import pytest

from soupkit.data import AugmentLevel, Batch, TaskSpec, gen_task
from soupkit.experiment import (
    ExperimentConfig,
    default_experiment_config,
    landscape_contrast,
    lmc_barriers,
    method_comparison,
    run_experiment,
)
from soupkit.nn import (ArchSpec, MetricKind, ParamVector, _evaluator, cross_entropy, evaluate, forward, gradient,
                        init_params)
from soupkit.optim import CyclicalSchedule, cyclical_alpha, is_collection_point
from soupkit.pipeline import (
    Checkpoint,
    HyperConfig,
    Lineage,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
)
from soupkit.soup import greedy_soup, hierarchical_soup, uniform_soup
from soupkit.store import Store
from soupkit.analysis import compute_budget

_TIMES: dict[str, float] = {}


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(f"\n{line}")
    assert ok, line


# ---------------------------------------------------------------------------
# Shared full-scale runs for criteria 7, 8 and 9. Built once, timed so the
# consuming criteria can account for them against their runtime budgets.

@pytest.fixture(scope="session")
def rough_runs():
    t0 = time.perf_counter()
    runs = [method_comparison(seed, "rough") for seed in range(10)]
    _TIMES["rough"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def smooth_runs():
    t0 = time.perf_counter()
    runs = [method_comparison(seed, "smooth") for seed in range(10)]
    _TIMES["smooth"] = time.perf_counter() - t0
    return runs


# ---------------------------------------------------------------------------
# 1. Schedule exactness

def _alpha_oracle(i: int, c: int, a1: float, a2: float) -> float:
    # straight-line reimplementation of the triangular schedule
    t = (1.0 / c) * ((i - 1) % c + 1)
    if t <= 0.5:
        return a2 * (2.0 * t) + a1 * (1.0 - 2.0 * t)
    return a1 * (2.0 * t - 1.0) + a2 * (2.0 - 2.0 * t)


def test_criterion_1_schedule_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC1)
    max_err = 0.0
    for _ in range(10_000):
        c = 2 * int(rng.integers(1, 500))
        i = int(rng.integers(1, 1_000_000))
        a1 = 10.0 ** rng.uniform(-6, 0)
        a2 = a1 * 10.0 ** rng.uniform(-6, 0)
        got = cyclical_alpha(i, CyclicalSchedule(c, a1, a2))
        max_err = max(max_err, abs(got - _alpha_oracle(i, c, a1, a2)))

    collection_ok = True
    for c in (2, 4, 8, 16):
        want = [i for i in range(1, 10_001) if (i - 1) % c + 1 == c // 2]
        got = [i for i in range(1, 10_001) if is_collection_point(i, c)]
        collection_ok = collection_ok and got == want and len(want) == 10_000 // c

    elapsed = time.perf_counter() - t0
    ok = max_err == 0.0 and collection_ok and elapsed < 1.0
    _verdict(1, "schedule exactness", ok,
             f"max_abs_err={max_err:.1e} over 10000 tuples, collection points "
             f"exhaustive for c in {{2,4,8,16}} up to 1e4, {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. Gradient correctness

def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC2)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        d_in = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 3))
        dims = (d_in, *(int(rng.integers(3, 7)) for _ in range(depth)), int(rng.integers(2, 5)))
        arch = ArchSpec(dims, "tanh")  # smooth loss keeps central FD well posed
        params = init_params(arch, seed=trial)
        n = int(rng.integers(5, 12))
        batch = Batch(rng.normal(size=(n, d_in)), rng.integers(0, dims[-1], size=n))
        g = gradient(params, arch, batch).values
        base = params.values
        fd = np.empty_like(base)
        for k in range(base.size):
            plus, minus = base.copy(), base.copy()
            plus[k] += h
            minus[k] -= h
            lp = cross_entropy(forward(ParamVector(plus, arch.signature), arch, batch), batch.labels)
            lm = cross_entropy(forward(ParamVector(minus, arch.signature), arch, batch), batch.labels)
            fd[k] = (lp - lm) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _verdict(2, "gradient correctness", ok,
             f"worst per-coordinate rel err {worst:.2e} < 1e-6 over 100 nets, "
             f"{elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. Soup math oracles

_SARCH = ArchSpec((2, 2))  # 6 parameters


def _flat(cid, value, stage="grid", base_id=None, score=None):
    vm = {} if score is None else {"accuracy": score}
    return Checkpoint(id=cid, arch=_SARCH,
                      params=ParamVector(np.full(_SARCH.param_count, float(value)), _SARCH.signature),
                      config=None, lineage=Lineage(stage, base_id=base_id),
                      val_metrics=vm, epochs_consumed=0.0)


def _table_scorer(table):
    def score(p: ParamVector) -> float:
        key = round(float(p.values[0]), 6)
        if key not in table:
            raise AssertionError(f"evaluator called on unscripted params {key}")
        return table[key]
    return score


def _simulate_greedy(cands, recorded, table):
    """Independent walk of the published greedy rule on scripted scores."""
    ranked = sorted(cands, key=lambda c: (-recorded[c.id], c.id))
    members, current = [ranked[0]], recorded[ranked[0].id]
    for cand in ranked[1:]:
        key = round(float(np.mean([m.params.values[0] for m in members + [cand]])), 6)
        if table[key] >= current:
            members.append(cand)
            current = table[key]
    return [m.id for m in members], current


def test_criterion_3_soup_math_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC3)
    ok = True
    notes = []

    # uniform vs np.mean for m in {1, 2, 5}
    for m in (1, 2, 5):
        vecs = [ParamVector(rng.normal(size=9), "sig") for _ in range(m)]
        soup = uniform_soup(vecs)
        err = float(np.max(np.abs(soup.values - np.mean([v.values for v in vecs], axis=0))))
        ok = ok and err <= 1e-12
    notes.append("uniform<=1e-12")

    # local soup m in {0, 1, 2, 5}, uniform lower: one gou group, whose
    # single local soup the top level returns unchanged
    base = _flat("base-0", 8.0, stage="base")
    snaps = [_flat(f"fission-{k}", 16.0 + 8 * k, stage="fission", base_id=base.id)
             for k in range(5)]
    for m in (0, 1, 2, 5):
        local = hierarchical_soup({base.id: [base, *snaps[:m]]}, "gou", "accuracy",
                                  evaluate_fn=lambda p: 0.0)
        want_members = [base.id] + [s.id for s in snaps[:m]]
        want = np.mean([c.params.values for c in [base, *snaps[:m]]], axis=0)
        ok = ok and local.level_members[f"local-{base.id}"] == want_members
        ok = ok and float(np.max(np.abs(local.params.values - want))) <= 1e-12
        if m == 0:  # no snapshots: collapse to the base exactly
            ok = ok and np.array_equal(local.params.values, base.params.values)
    notes.append("local m in {0,1,2,5}")

    # greedy membership vs an independent simulation of the rule
    cands = [_flat("grid-a", 32.0, score=0.90), _flat("grid-b", 24.0, score=0.80),
             _flat("grid-c", 16.0, score=0.70), _flat("grid-d", 8.0, score=0.60)]
    table = {28.0: 0.92, 24.0: 0.91, 21.333333: 0.95}
    soup = greedy_soup(cands, "accuracy", evaluate_fn=_table_scorer(table))
    want_members, want_score = _simulate_greedy(cands, {c.id: c.val_metrics["accuracy"] for c in cands}, table)
    ok = ok and list(soup.members) == want_members == ["grid-a", "grid-b", "grid-d"]
    ok = ok and soup.val_score == want_score == 0.95
    accepted = [c for c in cands if c.id in soup.members]
    want = np.mean([c.params.values for c in accepted], axis=0)
    ok = ok and float(np.max(np.abs(soup.params.values - want))) <= 1e-12
    notes.append("greedy scripted")

    # hierarchical gou: uniform locals, scripted greedy top
    base_a = _flat("base-a", 0.0, stage="base")
    snaps_a = [_flat("fission-a1", 8.0, "fission", base_a.id),
               _flat("fission-a2", 16.0, "fission", base_a.id)]
    base_b = _flat("base-b", 48.0, stage="base")
    snaps_b = [_flat("fission-b1", 56.0, "fission", base_b.id),
               _flat("fission-b2", 64.0, "fission", base_b.id)]
    groups = {"base-a": [base_a, *snaps_a], "base-b": [base_b, *snaps_b]}
    gou = hierarchical_soup(groups, "gou", "accuracy",
                            evaluate_fn=_table_scorer({8.0: 0.8, 56.0: 0.7, 32.0: 0.85}))
    ok = ok and list(gou.members) == ["local-base-a", "local-base-b"]
    ok = ok and gou.level_members == {"local-base-a": ["base-a", "fission-a1", "fission-a2"],
                                      "local-base-b": ["base-b", "fission-b1", "fission-b2"]}
    ok = ok and float(np.max(np.abs(gou.params.values - 32.0))) <= 1e-12
    ok = ok and gou.val_score == 0.85
    # same groups, rejecting top trial: only the better local survives
    gou_rej = hierarchical_soup(groups, "gou", "accuracy",
                                evaluate_fn=_table_scorer({8.0: 0.8, 56.0: 0.7, 32.0: 0.75}))
    ok = ok and list(gou_rej.members) == ["local-base-a"]
    ok = ok and float(np.max(np.abs(gou_rej.params.values - 8.0))) <= 1e-12
    notes.append("gou scripted")

    # hierarchical gog: scripted greedy at both levels
    base_a = _flat("base-a", 0.0, stage="base", score=0.60)
    snaps_a = [_flat("fission-a1", 8.0, "fission", base_a.id, score=0.90),
               _flat("fission-a2", 16.0, "fission", base_a.id, score=0.50)]
    base_b = _flat("base-b", 48.0, stage="base", score=0.70)
    snaps_b = [_flat("fission-b1", 56.0, "fission", base_b.id, score=0.65)]
    gog = hierarchical_soup(
        {"base-a": [base_a, *snaps_a], "base-b": [base_b, *snaps_b]}, "gog", "accuracy",
        evaluate_fn=_table_scorer({4.0: 0.85, 12.0: 0.95, 52.0: 0.72, 32.0: 0.96}))
    # group a: seed fission-a1 (0.90); +base (mean 4) 0.85 rejected; +a2 (mean 12) 0.95 kept
    # group b: seed base-b (0.70); +b1 (mean 52) 0.72 kept
    # top:     seed local-a (0.95); +local-b (mean 32) 0.96 kept
    ok = ok and gog.level_members == {"local-base-a": ["fission-a1", "fission-a2"],
                                      "local-base-b": ["base-b", "fission-b1"]}
    ok = ok and list(gog.members) == ["local-base-a", "local-base-b"]
    ok = ok and gog.val_score == 0.96
    ok = ok and float(np.max(np.abs(gog.params.values - 32.0))) <= 1e-12
    notes.append("gog scripted")

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(3, "soup math oracles", ok,
             f"{', '.join(notes)}; membership exact, numeric <=1e-12, {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------------------
# 4. Greedy monotonicity on real runs

def test_criterion_4_greedy_monotonicity():
    t0 = time.perf_counter()
    arch = ArchSpec((4, 8, 3))
    metric = MetricKind.MACRO_RECALL
    failures = []
    for seed in range(20):
        task = TaskSpec(kind="rough", seed=seed, dims=4, class_count=3, n_samples=300,
                        imbalance_ratio=4.0, label_noise_rate=0.1,
                        cluster_heterogeneity=1.0, shift_magnitude=1.0, source_shift=1.5)
        bundle = gen_task(task, (0.85, 0.05, 0.10))
        pre = pretrain_source(arch, bundle.source, HyperConfig(lr=1e-2, seed=seed, epochs=2))
        theta0 = linear_probe_warmup(pre, bundle.train,
                                     HyperConfig(lr=1e-2, seed=seed, warmup_epochs=1), bundle.val)
        template = HyperConfig(lr=3e-2, seed=0, epochs=2)
        grid, _ = grid_generate(theta0, [3e-2, 1e-2, 3e-3], [AugmentLevel.MINIMAL], [0, 1],
                                bundle.train, bundle.val, template)
        soup = greedy_soup(grid, metric, evaluate_fn=_evaluator(arch, bundle.val, metric))
        best_recorded = max(c.val_metrics[metric.value] for c in grid)
        soup_val = evaluate(soup.params, arch, bundle.val, metric)
        best_val = max(evaluate(c.params, arch, bundle.val, metric) for c in grid)
        if not (soup.val_score >= best_recorded and soup_val >= best_val):
            failures.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not failures
    _verdict(4, "greedy monotonicity", ok,
             f"soup val >= best individual on 20/20 seeded runs"
             f"{'' if ok else f', failures at seeds {failures}'}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Compute budget bookkeeping

def test_criterion_5_compute_budget():
    t0 = time.perf_counter()
    arch = ArchSpec((6, 16, 3))
    zeros = ParamVector(np.zeros(arch.param_count), arch.signature)

    def ck(cid, stage, epochs, base_id=None):
        return Checkpoint(id=cid, arch=arch, params=zeros, config=None,
                          lineage=Lineage(stage, base_id=base_id), val_metrics={},
                          epochs_consumed=epochs)

    # 8 LRs x 3 augments x 2 seeds = 48 grid models, 50 epochs each
    cks = [ck(f"grid-{i:02d}", "grid", 50.0) for i in range(48)]
    # FGG: one 50-epoch base per LR, then 5 collections costing 17 epochs per base
    for b in range(8):
        cks.append(ck(f"base-{b}", "base", 50.0))
        cks.extend(ck(f"fission-{b}-{k}", "fission", 17.0 / 5, base_id=f"base-{b}")
                   for k in range(5))
    report = compute_budget(cks)
    elapsed = time.perf_counter() - t0
    grid_ok = report.grid_total == 48 * 50.0
    fgg_ok = abs(report.fgg_total - (8 * 50.0 + 8 * 17.0)) < 1e-9
    ratio_ok = report.ratio is not None and abs(report.ratio - 536.0 / 2400.0) < 1e-12
    ok = grid_ok and fgg_ok and ratio_ok and report.ratio < 0.25 and elapsed < 1.0
    _verdict(5, "compute budget", ok,
             f"grid={report.grid_total:.0f} epochs, fgg={report.fgg_total:.0f}, "
             f"ratio={report.ratio:.4f} < 0.25, {elapsed:.3f}s < 1s")


# ---------------------------------------------------------------------------
# 6. Landscape contrast

def test_criterion_6_landscape_contrast():
    t0 = time.perf_counter()
    counts = [landscape_contrast(seed) for seed in range(10)]
    wins = sum(rough > smooth for smooth, rough in counts)
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 300.0
    _verdict(6, "landscape contrast", ok,
             f"rough minima > smooth minima in {wins}/10 seeds (need >=8), "
             f"counts={counts}, {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 7 + 8. Method ordering and OOD robustness

def test_criterion_7_method_ordering(rough_runs, smooth_runs):
    t0 = time.perf_counter()
    gog_vs_uniform = sum(r.scores["gog"]["test"] >= r.scores["uniform"]["test"]
                         for r in rough_runs)
    gog_vs_greedy = sum(r.scores["gog"]["test"] >= r.scores["greedy"]["test"]
                        for r in rough_runs)
    gou_diff = float(np.mean([r.scores["greedy"]["test"] - r.scores["gou"]["test"]
                              for r in smooth_runs]))
    gog_diff = float(np.mean([r.scores["greedy"]["test"] - r.scores["gog"]["test"]
                              for r in smooth_runs]))
    elapsed = _TIMES.get("rough", 0.0) + _TIMES.get("smooth", 0.0) + time.perf_counter() - t0
    ok = (gog_vs_uniform >= 8 and gog_vs_greedy >= 6
          and abs(gou_diff) <= 0.01 and abs(gog_diff) <= 0.01
          and elapsed < 900.0)
    _verdict(7, "method ordering", ok,
             f"(a) gog>=uniform {gog_vs_uniform}/10 need 8; "
             f"(b) gog>=greedy {gog_vs_greedy}/10 need 6; "
             f"(c) smooth mean |greedy-gou|={abs(gou_diff):.4f}, "
             f"|greedy-gog|={abs(gog_diff):.4f} <= 0.01; {elapsed:.0f}s < 900s")


def test_criterion_8_ood_robustness(rough_runs):
    t0 = time.perf_counter()
    wins = sum(max(r.scores["gou"]["ood"], r.scores["gog"]["ood"]) >= r.scores["greedy"]["ood"]
               for r in rough_runs)
    elapsed = _TIMES.get("rough", 0.0) + time.perf_counter() - t0
    ok = wins >= 6
    _verdict(8, "ood robustness", ok,
             f"best(gou,gog) >= greedy on ood in {wins}/10 seeds (need >=6), "
             f"{elapsed:.0f}s, budget shared with criterion 7")


# ---------------------------------------------------------------------------
# 9. LMC barrier ordering

def test_criterion_9_lmc_barriers(rough_runs):
    t0 = time.perf_counter()
    barriers = [lmc_barriers(run) for run in rough_runs]
    wins = sum(b["seed_pair"] < b["lr_pair"] for b in barriers)
    elapsed = _TIMES.get("rough", 0.0) + time.perf_counter() - t0
    ok = wins >= 7 and elapsed < 300.0
    _verdict(9, "lmc barrier ordering", ok,
             f"seed-pair barrier < lr-pair barrier in {wins}/10 runs (need >=7), "
             f"{elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 10. Determinism and persistence

def _tiny_experiment_config() -> ExperimentConfig:
    d = default_experiment_config("acc10", "rough", 5).to_dict()
    d["task"].update(n_samples=240, dims=4)
    d["arch"] = {"layer_dims": [4, 8, 3], "activation": "relu"}
    d["pretrain"].update(epochs=2)
    d["warmup"].update(epochs=1)
    d["grid"].update(lrs=[0.01, 0.003, 0.001], augments=["minimal"], seeds=[0], epochs=1)
    d["fgg"].update(lrs=[0.01, 0.003], epochs=1, n_collect=2)
    d["analysis"] = {"lmc_points": 5, "landscape_resolution": [4, 4]}
    return ExperimentConfig.from_dict(d)


def test_criterion_10_determinism_and_persistence(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    cfg = _tiny_experiment_config()
    artifacts = ("report.csv", "budget.csv", "lmc_curve.csv", "landscape.csv", "config.json")
    payloads = []
    for sub in ("a", "b"):
        store = Store(tmp_path / sub)
        run_experiment(cfg, store)
        exp = store.experiment_dir(cfg.name)
        payloads.append({f: (exp / f).read_bytes() for f in artifacts})
    identical = payloads[0] == payloads[1]

    # bitwise store round-trip
    store = Store(tmp_path / "rt")
    arch = ArchSpec((5, 7, 3))
    ck = Checkpoint(id="grid-roundtrip00", arch=arch, params=init_params(arch, 3),
                    config=HyperConfig(lr=0.01, seed=3), lineage=Lineage("grid"),
                    val_metrics={"accuracy": 0.5}, epochs_consumed=1.0)
    store.save_checkpoint(ck)
    lossless = store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()

    # fault injection: crash between weights and manifest leaves no manifest
    real_replace = os.replace

    def explode_on_manifest(src, dst):
        if str(dst).endswith("manifest.json"):
            raise OSError("simulated crash")
        return real_replace(src, dst)

    other = Checkpoint(id="grid-faulted0000", arch=arch, params=init_params(arch, 4),
                       config=None, lineage=Lineage("grid"), val_metrics={}, epochs_consumed=1.0)
    monkeypatch.setattr("soupkit.data.os.replace", explode_on_manifest)
    with pytest.raises(OSError):
        store.save_checkpoint(other)
    clean = not store.exists(other.id) and store.list_checkpoints() == [ck.id]
    monkeypatch.setattr("soupkit.data.os.replace", real_replace)
    store.save_checkpoint(other)  # retry succeeds once the fault clears
    clean = clean and store.exists(other.id)

    elapsed = time.perf_counter() - t0
    ok = identical and lossless and clean and elapsed < 120.0
    _verdict(10, "determinism and persistence", ok,
             f"rerun CSVs byte-identical={identical}, store lossless={lossless}, "
             f"fault injection clean={clean}, {elapsed:.1f}s < 120s")
