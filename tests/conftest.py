"""Shared fixtures."""

import errno
import os
from pathlib import Path

import pytest
from hypothesis import settings

from soupkit import nn
from soupkit.experiment import default_experiment_config

# `--hypothesis-profile=ci`, as the CI's tier-1 step runs: every run draws the
# same examples, so a property that fails there fails the same way locally.
settings.register_profile("ci", derandomize=True, deadline=None)

# The kernels the byte pins are recorded on, by name: `nn._kernel_fingerprint()`
# under numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on an AVX-512 host, as it
# runs, and in child processes run with `OPENBLAS_CORETYPE=Haswell` and
# `NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR` (the AVX2 loops of
# many CI runners).
PINS_KERNELS = {
    "SkylakeX": "exp 0c29e9604fc7, matmul 9db788dcb67a, openblas SkylakeX",
    "Haswell": "exp 215d1885aff5, matmul 457f333a4c79, openblas Haswell",
}


@pytest.fixture(scope="session")
def pinned():
    """`pinned(table)`: a byte pin's digests on this host's kernel, from a table
    keyed by the names of `PINS_KERNELS`. On a host that runs none of them
    the test fails, naming this host's fingerprint and the recorded ones."""
    host = nn._kernel_fingerprint()
    names = [name for name, fingerprint in PINS_KERNELS.items() if fingerprint == host]

    def lookup(table: dict):
        if not names:
            recorded = "; ".join(f"{name} [{fingerprint}]" for name, fingerprint in PINS_KERNELS.items())
            pytest.fail(f"byte pins are recorded on kernels {recorded}; this host runs [{host}]")
        return table[names[0]]

    return lookup


@pytest.fixture
def full_disk(monkeypatch):
    """`full_disk(name)`: from then on, every file soupkit creates for writing
    whose name starts with `name` (a temp file beside it included) takes half
    of the first write, then fails the way a full disk does."""
    names, doomed = [], set()
    real_open, real_write = os.open, os.write

    def open_(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if flags & (os.O_WRONLY | os.O_RDWR) and os.path.basename(path).startswith(tuple(names)):
            doomed.add(fd)
        return fd

    def write(fd, data):
        if fd not in doomed:
            return real_write(fd, data)
        doomed.discard(fd)
        real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("soupkit.data.os.open", open_)
    monkeypatch.setattr("soupkit.data.os.write", write)
    return names.append


@pytest.fixture
def split_checks(monkeypatch):
    """The features of every split that `nn._check_fit` checks from then on,
    one entry per check."""
    checks = []
    real = nn._check_fit

    def spy(arch, features, labels):
        checks.append(features)
        real(arch, features, labels)

    monkeypatch.setattr(nn, "_check_fit", spy)
    return checks


@pytest.fixture
def undefined_auc_config():
    """`undefined_auc_config(form)`: the default rough recipe as a config dict,
    scored by ROC-AUC on a 30-row balanced task whose 0.9/0.05/0.05 split
    leaves one val row, so one class. `form` picks what scores val under that
    metric: "soups" (uniform and greedy), "analysis" (the LMC sweep of the
    grid's two best) or "neither"."""

    def config(form: str) -> dict:
        d = default_experiment_config("e", "rough", 0).to_dict()
        d.update(metric="roc_auc_ovr", split_ratios=[0.9, 0.05, 0.05])
        d["task"].update(n_samples=30, imbalance_ratio=1.0)
        if form != "soups":
            d["soups"] = []
        if form != "analysis":
            d["analysis"] = None
        return d

    return config


@pytest.fixture
def add_debris():
    """`add_debris(root, manifest)`: fill a store root with every kind of
    entry that is not a checkpoint, under `grid-` and `fission-` names alike,
    `manifest` (a checkpoint's manifest bytes) copied to where a careless
    listing would find it. Returns the names it made."""

    def add(root: Path, manifest: bytes) -> list[str]:
        made = []
        for prefix in ("grid", "fission"):
            (root / f"{prefix}-debris").mkdir()
            (root / f"{prefix}-debris" / "weights.bin").write_bytes(b"\x00" * 16)
            (root / f"{prefix}-dirmanifest" / "manifest.json").mkdir(parents=True)
            (root / f"{prefix}-fifo").mkdir()
            os.mkfifo(root / f"{prefix}-fifo" / "manifest.json")
            (root / f"{prefix}-plainfile").write_bytes(manifest)
            (root / f"{prefix}-tofile").symlink_to(root / f"{prefix}-plainfile")
            (root / f"{prefix}-dangling").symlink_to(root / "nowhere")
            (root / f"{prefix}-loop").symlink_to(root / f"{prefix}-loop")
            (root / f".{prefix}-hidden").mkdir()
            (root / f".{prefix}-hidden" / "manifest.json").write_bytes(manifest)
            made += [f"{prefix}-{kind}" for kind in ("debris", "dirmanifest", "fifo", "plainfile", "tofile",
                                                     "dangling", "loop")] + [f".{prefix}-hidden"]
        for reserved in ("experiments", "datasets"):
            (root / reserved).mkdir(exist_ok=True)
            (root / reserved / "manifest.json").write_bytes(manifest)
        return made

    return add
