"""Environment record written into every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


def _blas() -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name"), "version": info.get("version"),
           "configuration": info.get("openblas configuration")}
    # The thread count the loaded OpenBLAS will use, asked from the library itself.
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    for lib_path in sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(lib_path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out["threads"] = getter()
                break
    out["thread_env"] = {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code when git does not."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(src),
    }
