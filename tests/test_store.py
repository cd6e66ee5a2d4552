"""Checkpoint store: byte formats, collisions, corruption, crash safety."""

import json
import os
import struct
import sys
import threading

import numpy as np
import pytest

from soupkit.data import TaskSpec, gen_task
from soupkit.nn import ArchSpec, ParamVector, init_params
from soupkit.pipeline import Checkpoint, HyperConfig, Lineage
from soupkit.soup import SoupMethod, SoupResult, uniform_soup
from soupkit.store import ChecksumError, Store, StoreError, decode_weights, encode_weights

ARCH = ArchSpec((4, 5, 3))


def _checkpoint(cid="grid-abc123def456", seed=0, stage="grid"):
    return Checkpoint(
        id=cid,
        arch=ARCH,
        params=init_params(ARCH, seed),
        config=HyperConfig(lr=0.01, seed=seed, epochs=3),
        lineage=Lineage(stage, root_id="pretrained-000000000000"),
        val_metrics={"accuracy": 0.75, "macro_f1": 0.7},
        epochs_consumed=3.0,
        trained_on="rough-0:train",
    )


# ---------------------------------------------------------------------------
# Weight payload format

def test_encode_weights_is_little_endian_float64():
    values = np.array([1.0, 2.5, -3.0])
    assert encode_weights(values) == struct.pack("<3d", 1.0, 2.5, -3.0)


def test_encode_decode_roundtrip_bitwise():
    values = init_params(ARCH, 7).values
    out = decode_weights(encode_weights(values))
    assert out.tobytes() == values.tobytes()


def test_decode_rejects_ragged_payload():
    with pytest.raises(StoreError, match="whole number"):
        decode_weights(b"\x00" * 9)


# ---------------------------------------------------------------------------
# Save / load

def test_checkpoint_roundtrip(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    assert store.save_checkpoint(ck) == ck.id
    back = store.load_checkpoint(ck.id)
    assert back.params.values.tobytes() == ck.params.values.tobytes()
    assert back.arch == ARCH
    assert back.config.lr == 0.01 and back.config.epochs == 3
    assert back.lineage.stage == "grid"
    assert back.lineage.root_id == "pretrained-000000000000"
    assert back.val_metrics == {"accuracy": 0.75, "macro_f1": 0.7}
    assert back.epochs_consumed == 3.0
    assert back.trained_on == "rough-0:train"


def test_roundtrip_without_config(tmp_path):
    store = Store(tmp_path)
    ck = Checkpoint(id="soup-aaaaaaaaaaaa", arch=ARCH, params=init_params(ARCH, 1),
                    config=None, lineage=Lineage("soup"), val_metrics={}, epochs_consumed=0.0)
    store.save_checkpoint(ck)
    assert store.load_checkpoint(ck.id).config is None


def test_exists_and_list(tmp_path):
    store = Store(tmp_path)
    assert not store.exists("grid-abc123def456")
    a = _checkpoint("grid-aa0000000000", seed=0)
    b = _checkpoint("base-bb0000000000", seed=1, stage="base")
    store.save_checkpoint(a)
    store.save_checkpoint(b)
    assert store.exists(a.id) and store.exists(b.id)
    assert store.list_checkpoints() == sorted([a.id, b.id])


def test_load_missing_id(tmp_path):
    with pytest.raises(StoreError, match="no checkpoint"):
        Store(tmp_path).load_checkpoint("grid-ffffffffffff")


def test_invalid_ids_rejected(tmp_path):
    store = Store(tmp_path)
    for bad in ("", "a/b", "experiments", "datasets"):
        with pytest.raises(StoreError):
            store.exists(bad)


def test_reserved_dirs_not_listed(tmp_path):
    store = Store(tmp_path)
    store.experiment_dir("demo")
    (tmp_path / "datasets").mkdir()
    ck = _checkpoint()
    store.save_checkpoint(ck)
    assert store.list_checkpoints() == [ck.id]


# ---------------------------------------------------------------------------
# Collisions

def test_identical_resave_needs_exist_ok(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    with pytest.raises(StoreError, match="already exists"):
        store.save_checkpoint(ck)
    assert store.save_checkpoint(ck, exist_ok=True) == ck.id


def test_colliding_id_with_different_weights_always_raises(tmp_path):
    store = Store(tmp_path)
    store.save_checkpoint(_checkpoint(seed=0))
    other = _checkpoint(seed=1)  # same id, different weights
    with pytest.raises(StoreError, match="already exists"):
        store.save_checkpoint(other, exist_ok=True)


# ---------------------------------------------------------------------------
# Corruption and crash safety

def test_corrupted_weights_detected(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    wpath = tmp_path / ck.id / "weights.bin"
    raw = bytearray(wpath.read_bytes())
    raw[11] ^= 0xFF
    wpath.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        store.load_checkpoint(ck.id)


def test_schema_version_mismatch(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    mpath = tmp_path / ck.id / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["schema_version"] = 999
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="schema"):
        store.load_checkpoint(ck.id)


def test_manifestless_directory_is_debris(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    d = tmp_path / ck.id
    d.mkdir()
    (d / "weights.bin").write_bytes(b"\x00" * 16)
    assert not store.exists(ck.id)
    assert store.list_checkpoints() == []
    # a fresh save over the debris works and replaces the partial payload
    store.save_checkpoint(ck)
    assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()


def test_crash_before_manifest_rename_leaves_no_manifest(tmp_path, monkeypatch):
    store = Store(tmp_path)
    ck = _checkpoint()
    real_replace = os.replace

    def explode_on_manifest(src, dst):
        if str(dst).endswith("manifest.json"):
            raise OSError("simulated crash")
        return real_replace(src, dst)

    monkeypatch.setattr("soupkit.data.os.replace", explode_on_manifest)
    with pytest.raises(OSError, match="simulated crash"):
        store.save_checkpoint(ck)
    assert not store.exists(ck.id)
    assert store.list_checkpoints() == []
    with pytest.raises(StoreError):
        store.load_checkpoint(ck.id)

    monkeypatch.setattr("soupkit.data.os.replace", real_replace)
    store.save_checkpoint(ck)
    assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()


def test_crash_before_weights_rename_leaves_nothing_loadable(tmp_path, monkeypatch):
    store = Store(tmp_path)
    ck = _checkpoint()

    def explode(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr("soupkit.data.os.replace", explode)
    with pytest.raises(OSError):
        store.save_checkpoint(ck)
    assert not store.exists(ck.id)


def test_save_survives_another_writers_temp_directory(tmp_path):
    # the fixed temp name of an older writer, left as a directory
    store = Store(tmp_path)
    ck = _checkpoint()
    (tmp_path / ck.id / "weights.bin.tmp").mkdir(parents=True)
    store.save_checkpoint(ck)
    assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()


def test_concurrent_saves_of_one_checkpoint_all_succeed(tmp_path):
    # Writers race on each id in turn: all of them find no manifest and write
    # the same files into the same directory.
    store = Store(tmp_path)
    checkpoints = [_checkpoint(f"grid-{k:012x}", seed=k) for k in range(30)]
    writers = 4
    barrier = threading.Barrier(writers, timeout=30)
    errors = []

    def save():
        try:
            for ck in checkpoints:
                barrier.wait()
                store.save_checkpoint(ck, exist_ok=True)
        except Exception as exc:
            errors.append(repr(exc))
            barrier.abort()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=save) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for ck in checkpoints:
        assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()
        assert sorted(p.name for p in (tmp_path / ck.id).iterdir()) == ["manifest.json", "weights.bin"]


# ---------------------------------------------------------------------------
# Soups and audits

def test_save_soup_roundtrip(tmp_path):
    store = Store(tmp_path)
    a = _checkpoint("grid-aa0000000000", seed=0)
    b = _checkpoint("grid-bb0000000000", seed=1)
    soup = SoupResult(params=uniform_soup([a.params, b.params]),
                      method=SoupMethod.UNIFORM, members=sorted([a.id, b.id]),
                      val_score=0.8)
    store.save_soup(soup, ARCH, "accuracy")
    back = store.load_checkpoint(soup.id)
    assert back.lineage.stage == "soup"
    assert back.params.values.tobytes() == soup.params.values.tobytes()
    assert back.val_metrics == {"accuracy": 0.8}
    audit = store.load_audit(soup.id)
    assert audit["method"] == SoupMethod.UNIFORM.value
    assert audit["members"] == sorted([a.id, b.id])
    assert audit["val_score"] == 0.8


def test_load_audit_missing(tmp_path):
    store = Store(tmp_path)
    store.save_checkpoint(_checkpoint())
    with pytest.raises(StoreError, match="no audit"):
        store.load_audit(_checkpoint().id)


# ---------------------------------------------------------------------------
# Datasets

def test_task_bundle_roundtrip(tmp_path):
    spec = TaskSpec(kind="rough", seed=5, dims=4, class_count=3, n_samples=120)
    bundle = gen_task(spec)
    store = Store(tmp_path)
    store.save_task_bundle("rough-5", bundle, spec)
    for role, ds in bundle.splits().items():
        back = store.load_dataset("rough-5", role)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == 3
        assert back.task_id == "rough-5"
        assert back.role == role


def test_load_dataset_missing_split(tmp_path):
    with pytest.raises(StoreError, match="no train split"):
        Store(tmp_path).load_dataset("nope", "train")


def test_task_bundle_refuses_a_different_spec_under_a_taken_name(tmp_path):
    store = Store(tmp_path)
    spec = TaskSpec(kind="rough", seed=0, dims=4, class_count=3, n_samples=240)
    store.save_task_bundle("data", gen_task(spec), spec)
    before = {f.name: f.read_bytes() for f in store.dataset_dir("data").iterdir()}
    other = TaskSpec(kind="rough", seed=5, dims=4, class_count=3, n_samples=300)
    with pytest.raises(StoreError, match="different task spec"):
        store.save_task_bundle("data", gen_task(other), other)
    assert {f.name: f.read_bytes() for f in store.dataset_dir("data").iterdir()} == before
    # the same spec again is a re-run, not a conflict
    store.save_task_bundle("data", gen_task(spec), spec)
    assert {f.name: f.read_bytes() for f in store.dataset_dir("data").iterdir()} == before
