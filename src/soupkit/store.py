"""Filesystem checkpoint store.

Each checkpoint gets its own directory under the store root holding
`weights.bin` (raw little-endian float64) and `manifest.json` (schema,
architecture, config, lineage, metrics, checksum). The manifest is written
last via temp-file-plus-rename, so a crash mid-save can never leave a
manifest that points at absent or partial weights: either the manifest is
complete and the weights it describes are in place, or the directory is
recognizable debris and ignored.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import LabeledDataset, TaskBundle, TaskSpec, _atomic_write, _csv_bytes, load_csv, save_csv
from .nn import ArchSpec, ParamVector
from .pipeline import Checkpoint, HyperConfig, Lineage
from .soup import SoupResult

SCHEMA_VERSION = 1
_RESERVED_DIRS = ("experiments", "datasets")


def _plain_name(name: str, reserved: tuple[str, ...] = ()) -> bool:
    """The store's one naming rule: one directory entry (non-empty, no `/`, no leading `.`), not `reserved`."""
    return bool(name) and "/" not in name and not name.startswith(".") and name not in reserved


class StoreError(Exception):
    """Store-level failure: missing ids, collisions, bad schema."""


class ChecksumError(StoreError):
    """Stored weights do not match the checksum in their manifest."""


def _json(raw: bytes, what: str, error: type[Exception] = StoreError):
    """`raw` decoded, or a one-line `error` naming `what` if it is not valid JSON (or not UTF-8)."""
    try:
        return json.loads(raw)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{what} is not valid JSON") from None


def _task_spec(raw: bytes, what: str, error: type[Exception] = StoreError) -> TaskSpec:
    """The one task-spec decoder: `raw` as a `TaskSpec`, or a one-line `error` naming `what`."""
    decoded = _json(raw, what, error)
    try:
        return TaskSpec.from_dict(decoded)
    except ValueError as exc:  # not an object, a bad key or a bad value
        raise error(f"{what}: {exc}") from None


def _schema_checked(raw: bytes, checkpoint_id: str) -> dict:
    """The one manifest decoder: an object of this schema whose `lineage` is an object and whose
    `epochs_consumed` is a number (by exact type, so not a bool), or a one-line `StoreError`."""
    manifest = _json(raw, f"manifest of {checkpoint_id}")
    if not isinstance(manifest, dict):
        raise StoreError(f"manifest of {checkpoint_id} is not a JSON object")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise StoreError(f"unsupported manifest schema {manifest.get('schema_version')} (expected {SCHEMA_VERSION})")
    if not isinstance(manifest.get("lineage"), dict):
        raise StoreError(f"manifest of {checkpoint_id} has a lineage that is not an object")
    if type(manifest.get("epochs_consumed")) not in (int, float):
        raise StoreError(f"manifest of {checkpoint_id} has an epochs_consumed that is not a number")
    return manifest


def _read_regular(path: str) -> bytes | None:
    """A regular file's bytes from one open, one fstat and one read of its size (the store replaces files by
    rename, never in place), or None where none is: absent, a directory, a FIFO (opened non-blocking), a bad symlink."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            return None
        raise
    try:
        info = os.fstat(fd)
        return os.read(fd, info.st_size) if stat.S_ISREG(info.st_mode) else None
    finally:
        os.close(fd)


def _checksum(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def encode_weights(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def decode_weights(raw: bytes) -> np.ndarray:
    if len(raw) % 8 != 0:
        raise StoreError(f"weight payload of {len(raw)} bytes is not a whole number of float64s")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


@dataclass
class Store:
    root: Path

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)  # created by the first save: a store no save has written to reads as empty

    # -- checkpoints ------------------------------------------------------

    @staticmethod
    def _checked(name: str, what: str = "checkpoint id", reserved: tuple[str, ...] = _RESERVED_DIRS) -> str:
        if not _plain_name(name, reserved):
            raise StoreError(f"invalid {what} {name!r}")
        return name

    def _file(self, checkpoint_id: str, name: str) -> str:
        """A checkpoint's file as a string path, with no `Path` built; ids become paths only here and in `_checked`."""
        return f"{self.root}/{self._checked(checkpoint_id)}/{name}"

    def exists(self, checkpoint_id: str) -> bool:
        return os.path.isfile(self._file(checkpoint_id, "manifest.json"))

    def save_checkpoint(self, ck: Checkpoint) -> str:
        """Write weights first, then the manifest atomically.

        A taken id whose stored weights are byte-identical writes nothing;
        other weights under it are refused.
        """
        d = self.root / self._checked(ck.id)
        raw = encode_weights(ck.params.values)
        digest = _checksum(raw)
        try:  # a fresh id costs one mkdir: the store is looked at only on a collision
            d.mkdir(parents=True)
        except FileExistsError:
            if (stored := _read_regular(f"{d}/manifest.json")) is not None:
                if _schema_checked(stored, ck.id).get("weights_checksum") != digest:
                    raise StoreError(f"checkpoint id {ck.id} already exists") from None
                return ck.id
            # A directory without a manifest is debris of a crashed save or the
            # work of a concurrent writer: the renames below replace its weights,
            # and deleting its files could pull a temp file from under that writer.
        _atomic_write(d / "weights.bin", raw)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "id": ck.id,
            "arch": ck.arch.to_dict(),
            "config": ck.config.to_dict() if ck.config else None,
            "lineage": ck.lineage.to_dict(),
            "val_metrics": ck.val_metrics,
            "epochs_consumed": ck.epochs_consumed,
            "trained_on": ck.trained_on,
            "weights_file": "weights.bin",
            "weights_checksum": digest,
        }
        _atomic_write(d / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode("ascii"))
        return ck.id

    def read_manifest(self, checkpoint_id: str) -> dict:
        """A checkpoint's manifest, schema-checked, without reading its weights."""
        if (raw := _read_regular(self._file(checkpoint_id, "manifest.json"))) is None:
            raise StoreError(f"no checkpoint {checkpoint_id} in {self.root}")
        return _schema_checked(raw, checkpoint_id)

    def load_checkpoint(self, checkpoint_id: str) -> Checkpoint:
        manifest = self.read_manifest(checkpoint_id)
        # The directory is the checkpoint: a manifest naming another id or weights file is refused, not followed.
        for key, want in (("id", checkpoint_id), ("weights_file", "weights.bin")):
            if manifest.get(key) != want:
                raise StoreError(f"manifest of {checkpoint_id} names {key} {manifest.get(key)!r}, not {want!r}")
        if (raw := _read_regular(self._file(checkpoint_id, "weights.bin"))) is None:
            raise StoreError(f"checkpoint {checkpoint_id} has no weights.bin in {self.root}")
        if _checksum(raw) != manifest["weights_checksum"]:
            raise ChecksumError(f"checksum mismatch for {checkpoint_id}")
        arch = ArchSpec.from_dict(manifest["arch"])
        values = decode_weights(raw)
        if values.size != arch.param_count:
            raise StoreError(
                f"{checkpoint_id}: {values.size} stored parameters but architecture needs {arch.param_count}"
            )
        config = HyperConfig.from_dict(manifest["config"]) if manifest["config"] else None
        return Checkpoint(
            id=checkpoint_id,
            arch=arch,
            params=ParamVector(values, arch.signature),
            config=config,
            lineage=Lineage.from_dict(manifest["lineage"]),
            val_metrics=dict(manifest["val_metrics"]),
            epochs_consumed=float(manifest["epochs_consumed"]),
            trained_on=manifest.get("trained_on", ""),
        )

    def _names(self, prefix: str = "") -> list[str]:
        try:
            with os.scandir(self.root) as entries:
                return sorted(e.name for e in entries
                              if e.name.startswith(prefix) and _plain_name(e.name, _RESERVED_DIRS))
        except FileNotFoundError:  # no save has made the root yet
            return []

    def list_checkpoints(self) -> list[str]:
        # A regular manifest.json implies a directory; DirEntry.is_dir raises on a symlink loop.
        return [name for name in self._names() if os.path.isfile(f"{self.root}/{name}/manifest.json")]

    def manifests(self, prefix: str = "") -> Iterator[tuple[str, dict]]:
        """`(id, manifest)` of the checkpoints whose ids start with `prefix`, in `list_checkpoints`
        order: one directory pass, each manifest opened once with no stat before it."""
        for name in self._names(prefix):  # debris, and a checkpoint removed since the pass, read as absent
            if (raw := _read_regular(f"{self.root}/{name}/manifest.json")) is not None:
                yield name, _schema_checked(raw, name)

    def save_soup(self, soup: SoupResult, arch: ArchSpec, metric: str) -> str:
        """Persist a soup as a stage=soup checkpoint plus an audit sidecar. The id does not name
        the metric: a second record whose audit differs is refused, an identical one writes nothing."""
        audit = json.dumps(soup.audit_dict(), indent=2, sort_keys=True).encode("ascii")
        stored = _read_regular(self._file(soup.id, "audit.json"))
        if stored is not None and stored != audit:
            scored = ", ".join(self.read_manifest(soup.id)["val_metrics"]) or "none"
            raise StoreError(f"soup {soup.id} is already stored under metric {scored} with a different audit")
        ck = Checkpoint(
            id=soup.id, arch=arch, params=soup.params, config=None,
            lineage=Lineage("soup"),
            val_metrics={} if soup.val_score is None else {metric: soup.val_score},
            epochs_consumed=0.0,
        )
        self.save_checkpoint(ck)
        if stored is None:
            _atomic_write(Path(self._file(soup.id, "audit.json")), audit)
        return soup.id

    def load_audit(self, soup_id: str) -> dict:
        if (raw := _read_regular(self._file(soup_id, "audit.json"))) is None:
            raise StoreError(f"no audit record for {soup_id}")
        audit = _json(raw, f"audit record of {soup_id}")
        if not isinstance(audit, dict):
            raise StoreError(f"audit record of {soup_id} is not a JSON object")
        return audit

    # -- datasets ---------------------------------------------------------

    def dataset_dir(self, name: str) -> Path:
        return self.root / "datasets" / self._checked(name, "dataset name", ())

    def save_task_bundle(self, name: str, bundle: TaskBundle, spec: TaskSpec) -> Path:
        """Write the splits, then `task.json`, the dataset's record. A taken name is verified before
        anything is written: another spec or split is refused, and only a missing split is written again."""
        d = self.dataset_dir(name)
        splits = bundle.splits()
        if (stored := _read_regular(f"{d}/task.json")) is not None:
            if _task_spec(stored, f"task.json of dataset {name!r}") != spec:
                raise StoreError(f"dataset {name!r} already exists with a different task spec")
            on_disk = {role: _read_regular(f"{d}/{role}.csv") for role in splits}
            if any(raw not in (None, _csv_bytes(splits[role])) for role, raw in on_disk.items()):
                raise StoreError(f"dataset {name!r} already exists with different splits")
            splits = {role: ds for role, ds in splits.items() if on_disk[role] is None}
        d.mkdir(parents=True, exist_ok=True)
        for role, ds in splits.items():
            save_csv(ds, d / f"{role}.csv")
        if stored is None:
            _atomic_write(d / "task.json", json.dumps(spec.to_dict(), indent=2, sort_keys=True).encode("ascii"))
        return d

    def load_dataset(self, name: str, role: str) -> LabeledDataset:
        """A split of a saved dataset; splits without a `task.json` are debris of a crashed save and read as absent."""
        d = self.dataset_dir(name)
        if (raw := _read_regular(f"{d}/task.json")) is None or not (d / f"{role}.csv").is_file():
            raise StoreError(f"no {role} split for dataset {name!r} in {self.root}")
        spec = _task_spec(raw, f"task.json of dataset {name!r}")
        return load_csv(d / f"{role}.csv", role, spec.task_id, spec.class_count)

    # -- experiments ------------------------------------------------------

    def experiment_dir(self, name: str) -> Path:
        """The experiment's directory path; `run_experiment` creates it with its first write."""
        return self.root / "experiments" / self._checked(name, "experiment name", ())
