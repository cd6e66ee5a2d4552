#!/usr/bin/env python3
"""soupkit benchmark: one closed-loop caller, one workload per process.

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from the root of a source checkout; the package is imported from
`src/`. Set-up builds the workload's inputs from the seed (several times,
reporting the median), a warm-up op runs untimed, then ops run back to back
for `--seconds`. Every op's output is checked; an op that raises or fails a
check counts as failed. A reference probe (`probe.py`) runs after every op
and every set-up step; each time is rescaled to the reference host's speed
by the probes right before and after it, because the host's speed drifts.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced ops and reports the per-layer metrics from the traced ones, plus
the ratio of traced to untraced op time. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`; the full record
(environment, samples, digests, every span name) goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
MIN_TIMED_OPS = 4
PROBE_WARMUP = 5
WORKLOAD_NAMES = ("experiment", "analysis", "store")

# Functions whose call count and self time are reported; the record file
# holds every traced name.
LAYER_FUNCTIONS = (
    "nn.gradient", "nn.evaluate", "optim.adamw_step", "data.augment", "data.load_csv", "data.save_csv",
    "pipeline.val_metric_map", "pipeline.fine_tune", "pipeline.fgg_fission",
    "pipeline.grid_generate", "pipeline.fgg_base_generate",
    "analysis.landscape_grid", "analysis.lmc_sweep", "analysis.ood_report",
    "soup.uniform_soup", "soup.greedy_soup", "soup.hierarchical_soup",
    "store.save_checkpoint", "store.load_checkpoint", "store.save_soup", "store.list_checkpoints",
    "store.save_task_bundle", "store.load_dataset",
    "experiment.run_experiment", "experiment.build_soups",
    "cli.soup", "cli.eval", "cli.report", "cli.lmc", "cli.budget",
)
# Stage spans, whose inclusive time is the stage's duration.
STAGE_FUNCTIONS = ("experiment.run_experiment", "experiment.build_soups", "pipeline.grid_generate",
                   "pipeline.fgg_base_generate", "pipeline.fgg_fission")
# Self time of the training stages is the per-step loop overhead around the
# engine, optimizer and augmentation calls.
TRAINING_STAGES = ("pipeline.pretrain_source", "pipeline.linear_probe_warmup",
                   "pipeline.fine_tune", "pipeline.fgg_fission")
LAYER_COUNTERS = {
    "pipeline.train_steps": "count",
    "pipeline.step_overhead_us": "us",
    "soup.greedy.trials": "count",
    "soup.greedy.accept_ratio": "ratio",
    "analysis.landscape.cells": "count",
    "store.bytes_written": "bytes",
    "store.bytes_read": "bytes",
    "store.fission_loads_per_used": "ratio",
}
# Counts that must repeat exactly from one traced op to the next.
REPEATING_COUNTS = ("pipeline.train_steps", "soup.greedy.trials", "analysis.landscape.cells",
                    "store.load_checkpoint.calls")


def per_layer_units() -> dict[str, str]:
    from spans import LAYERS, OTHER

    units: dict[str, str] = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in STAGE_FUNCTIONS:
        units[f"{fn}.total_s"] = "s"
    units.update(LAYER_COUNTERS)
    for layer in (*LAYERS, OTHER):
        units[f"{layer}.share"] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Time to import the package and its CLI in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import soupkit, soupkit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    import numpy as np

    best = None
    for p in (50, 75, 90, 95, 99):
        if len(samples) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(samples, p)))
    return best


def layer_values(spans, workload, workdir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced op."""
    v: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        v[f"{fn}.calls"] = spans.calls_of(fn)
        v[f"{fn}.self_s"] = spans.self_of(fn)
    for fn in STAGE_FUNCTIONS:
        v[f"{fn}.total_s"] = spans.total_of(fn)
    steps = spans.calls_of("optim.adamw_step")
    v["pipeline.train_steps"] = steps
    loop_self = sum(spans.self_of(fn) for fn in TRAINING_STAGES)
    v["pipeline.step_overhead_us"] = loop_self / steps * 1e6 if steps else 0.0
    greedy = [note for _, note in spans.notes_of("soup.greedy_soup")]
    trials = sum(t for t, _ in greedy)
    v["soup.greedy.trials"] = trials
    v["soup.greedy.accept_ratio"] = sum(a for _, a in greedy) / trials if trials else 0.0
    v["analysis.landscape.cells"] = sum(n for _, n in spans.notes_of("analysis.landscape_grid"))
    v["store.bytes_written"] = workload.written_bytes(workdir)
    loads = spans.notes_of("store.load_checkpoint")
    read = sum((Path(root) / cid / name).stat().st_size
               for _, (root, cid) in loads for name in ("manifest.json", "weights.bin"))
    read += sum(Path(path).stat().st_size for _, path in spans.notes_of("data.load_csv"))
    v["store.bytes_read"] = read
    hier_soups = {pos for pos, method in spans.notes_of("cli.soup") if method in ("gou", "gog")}
    fission_loads = sum(1 for pos, (_, cid) in loads
                        if cid.startswith("fission-") and spans.ancestor_named(pos, "cli.soup") in hier_soups)
    v["store.fission_loads_per_used"] = fission_loads / workload.fission_used if workload.fission_used else 0.0
    return v


@dataclass
class Ops:
    """What the closed loop saw: op times (scaled and raw), failures and
    traced-op values."""

    walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    raw_walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    reference: dict[str, str] | None = None
    layer_samples: list[dict[str, float]] = field(default_factory=list)
    self_s_totals: dict[str, float] = field(default_factory=dict)
    first_counts: dict[str, float] = field(default_factory=dict)


def check_op(ops: Ops, workload, out, workdir: Path) -> list[str]:
    try:
        errors, digests = workload.check(out, workdir)
    except Exception as exc:  # a broken output is a failed op, not a crashed run
        return [f"check raised {type(exc).__name__}: {exc}"]
    if ops.reference is None:
        if not errors:
            ops.reference = digests
    elif digests != ops.reference:
        drift = sorted(k for k in ops.reference if digests.get(k) != ops.reference[k])
        errors.append(f"artifacts differ from the run's first op: {drift}")
    return errors


def record_traced_op(ops: Ops, workload, spans, workdir: Path, raw: float, wall: float) -> list[str]:
    """Layer values of one traced op. Shares are of the raw op time; seconds
    are scaled like the op's time (by wall / raw)."""
    from spans import OTHER

    factor = wall / raw
    values = layer_values(spans, workload, workdir)
    errors = [f"{key} = {values[key]}, expected {want}"
              for key, want in workload.expected.items() if values[key] != want]
    for key in REPEATING_COUNTS:
        first = ops.first_counts.setdefault(key, values[key])
        if values[key] != first:
            errors.append(f"{key} = {values[key]}, first traced op had {first}")
    layer_self = spans.layer_self()
    layer_self[OTHER] = raw - sum(layer_self.values())
    values.update({f"{layer}.share": secs / raw for layer, secs in layer_self.items()})
    for key in values:
        if key.endswith(("_s", "_us")):
            values[key] *= factor
    ops.layer_samples.append(values)
    for name, secs in zip(spans.names, spans.self_by_name):
        ops.self_s_totals[name] = ops.self_s_totals.get(name, 0.0) + float(secs) * factor
    return errors


def run_ops(workload, seconds: float, tracer, run_dir: Path, probe) -> Ops:
    """Op 0 is the warm-up (checked, not timed); then ops back to back until
    `seconds` have passed since the first timed op started (at least
    MIN_TIMED_OPS). A probe runs right after each op, and the op's time is
    scaled by it and the probe before. With a tracer, every second op is
    traced.

    Each op's directory is removed right after its checks, and the removal
    is flushed (`os.sync`) before the next op starts. The filesystem may
    discard freed blocks when its journal commits; unflushed deletes pile
    up and slow the writes of later ops and later runs, which spread the
    store workload's write phase by up to 2.5x."""
    ops = Ops()
    op_id = 0
    timed_from = None
    while op_id <= MIN_TIMED_OPS or perf_counter() - timed_from < seconds:
        if op_id == 1:
            timed_from = perf_counter()
        traced = tracer is not None and op_id > 0 and op_id % 2 == 0
        workdir = run_dir / f"op{op_id}"
        workdir.mkdir()
        ops.attempted += 1
        if traced:
            tracer.install(op_id)
        t0 = perf_counter()
        try:
            out, errors = workload.op(workdir), []
        except Exception as exc:  # a failed op is counted and the loop goes on
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            raw = perf_counter() - t0
            if traced:
                tracer.uninstall()
        probe()
        wall = probe_scale(raw, probe.samples[-2:])
        if out is not None:
            errors += check_op(ops, workload, out, workdir)
            if traced:
                errors += record_traced_op(ops, workload, tracer.op_spans(op_id), workdir, raw, wall)
        if errors:
            ops.failures.append(f"op {op_id}: " + "; ".join(errors))
        workload.cleanup(workdir)
        shutil.rmtree(workdir)
        os.sync()
        if op_id > 0:
            ops.walls[traced].append(wall)
            ops.raw_walls[traced].append(raw)
        op_id += 1
    return ops


def probe_scale(raw_s: float, probes: list[float]) -> float:
    """Raw seconds rescaled to the reference host's speed by the probes
    right before and after them."""
    from probe import REF_PROBE_S

    return raw_s * REF_PROBE_S / statistics.mean(probes)


def probed(probe, fn, repeats: int) -> tuple[list[float], list[float]]:
    """`repeats` timings of `fn` (it returns its own seconds), each followed
    by a probe, the last probe already run preceding the first: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(repeats):
        secs = fn()
        probe()
        raw.append(secs)
        scaled.append(probe_scale(secs, probe.samples[-2:]))
    return scaled, raw


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import soupkit
    import envinfo
    from probe import Probe
    from spans import Tracer
    from workloads import WORKLOADS

    os.sync()  # flush deletes left by whatever ran before
    probe = Probe()
    for _ in range(PROBE_WARMUP):
        probe()
    import_samples, import_raw = probed(probe, import_seconds, IMPORT_REPEATS)
    workload = WORKLOADS[name]()
    build_samples, build_raw = probed(probe, lambda: timed(lambda: workload.setup(seed)), SETUP_REPEATS)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)
    raw_setup_s = statistics.median(import_raw) + statistics.median(build_raw)

    tracer = Tracer(soupkit) if trace else None
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        ops = run_ops(workload, seconds, tracer, run_dir, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
        os.sync()

    wall_s = statistics.median(ops.walls[False])
    raw_wall_s = statistics.median(ops.raw_walls[False])
    failed = len(ops.failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": envinfo.environment(ROOT, SRC),
        "import_s": import_samples, "build_s": build_samples,
        "import_s_raw": import_raw, "build_s_raw": build_raw,
        "wall_s_untraced": ops.walls[False], "wall_s_traced": ops.walls[True],
        "wall_s_untraced_raw": ops.raw_walls[False], "wall_s_traced_raw": ops.raw_walls[True],
        "probe_s": probe.samples,
        "attempted": ops.attempted, "failed": failed, "failures": ops.failures,
        "artifact_sha256": ops.reference or {},
        "expected_counts": workload.expected,
    }
    print(f"# soupkit benchmark  workload={name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    if trace:
        metrics = report_traced(ops, wall_s, record, name, seed, tracer)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        tail = tail_percentile(ops.walls[False])
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs >= 20 ops)"
        print(f"  wall_s        {wall_s:10.4f} s   median of n={len(ops.walls[False])} ops; {tail_text}; "
              f"raw {raw_wall_s:.4f} s")
        print(f"  setup_s       {setup_s:10.4f} s   import {statistics.median(import_samples):.4f} s "
              f"+ build median of {SETUP_REPEATS} {statistics.median(build_samples):.4f} s; raw {raw_setup_s:.4f} s")
        print(f"  peak_rss_mb   {peak_rss_mb:10.2f} MB")
        print(f"  probe_s       {statistics.median(probe.samples):10.4f} s   median of {len(probe.samples)} "
              f"probes; times above are scaled to the reference probe's speed")
    print(f"  failed_ratio  {failed / ops.attempted:10.4f} ratio  ({failed} of {ops.attempted} ops failed)")
    for line in ops.failures[:5]:
        print(f"  FAILED {line}")
    record["metrics"] = metrics
    record_path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted, "failed": failed, "metrics": metrics}))
    return 0


def report_traced(ops: Ops, wall_s: float, record: dict, name: str, seed: int, tracer) -> dict:
    """Per-layer metrics (medians over traced ops), printed and returned."""
    import numpy as np
    from spans import LAYERS, OTHER

    units = per_layer_units()
    traced_wall = statistics.median(ops.walls[True])
    values = {k: float(np.median([v[k] for v in ops.layer_samples])) if ops.layer_samples else 0.0
              for k in units if k != "trace_overhead_ratio"}
    values["trace_overhead_ratio"] = traced_wall / wall_s
    n_traced = max(len(ops.layer_samples), 1)
    record["self_s_per_op_all_spans"] = {k: v / n_traced for k, v in sorted(ops.self_s_totals.items())}
    spans_path = OUT / f"spans-{name}-seed{seed}.npz"
    tracer.save(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(f"traced ops {len(ops.walls[True])}, untraced ops {len(ops.walls[False])}; "
          f"wall_s traced {traced_wall:.4f} s, untraced {wall_s:.4f} s, "
          f"trace_overhead_ratio {values['trace_overhead_ratio']:.3f}")
    print("layer shares of traced op wall time:")
    for layer in sorted((*LAYERS, OTHER), key=lambda l: -values[f"{l}.share"]):
        print(f"  {layer + '.share':<20} {values[f'{layer}.share']:8.3f} ratio")
    print("top self times per traced op:")
    for fn, secs in sorted(record["self_s_per_op_all_spans"].items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {fn + '.self_s':<40} {secs:10.5f} s")
    print("counts per traced op:")
    for k in (*LAYER_COUNTERS, "nn.evaluate.calls", "store.load_checkpoint.calls"):
        print(f"  {k:<40} {values[k]:>14.6g} {units[k]}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "soupkit" / "__init__.py").is_file():
        print(f"error: no soupkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import soupkit

    if Path(soupkit.__file__).resolve().parent != (SRC / "soupkit").resolve():
        print(f"error: imported soupkit from {soupkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
