"""Checkpoint store: byte formats, collisions, corruption, crash safety."""

import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.data import AugmentLevel, TaskSpec, gen_task
from soupkit.nn import ACTIVATIONS, ArchSpec, MetricKind, ParamVector, init_params
from soupkit.optim import CyclicalSchedule
from soupkit.pipeline import STAGES, Checkpoint, HyperConfig, Lineage
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
    for bad in ("", "a/b", "experiments", "datasets", ".", ".."):
        with pytest.raises(StoreError):
            store.exists(bad)


def test_reads_refuse_invalid_ids_by_the_same_rule(tmp_path):
    store = Store(tmp_path)
    (tmp_path / "experiments" / "manifest.json").parent.mkdir()
    (tmp_path / "experiments" / "manifest.json").write_text("{}")
    for bad in ("", "a/b", "experiments", "datasets", ".", ".."):
        for read in (store.read_manifest, store.load_checkpoint):
            with pytest.raises(StoreError, match=re.escape(f"invalid checkpoint id {bad!r}")):
                read(bad)


def test_reserved_dirs_not_listed(tmp_path):
    store = Store(tmp_path)
    store.experiment_dir("demo")
    (tmp_path / "datasets").mkdir()
    ck = _checkpoint()
    store.save_checkpoint(ck)
    assert store.list_checkpoints() == [ck.id]


def test_only_directories_holding_a_regular_manifest_are_listed(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    manifest = (tmp_path / ck.id / "manifest.json").read_bytes()
    (tmp_path / "grid-plainfile").write_bytes(manifest)
    (tmp_path / "grid-dirmanifest" / "manifest.json").mkdir(parents=True)
    (tmp_path / "grid-debris").mkdir()
    (tmp_path / "grid-debris" / "weights.bin").write_bytes(b"\x00" * 16)
    for reserved in ("experiments", "datasets"):
        (tmp_path / reserved).mkdir()
        (tmp_path / reserved / "manifest.json").write_bytes(manifest)
    (tmp_path / "grid-tofile").symlink_to(tmp_path / "grid-plainfile")
    (tmp_path / "grid-dangling").symlink_to(tmp_path / "nowhere")
    (tmp_path / "grid-loop").symlink_to(tmp_path / "grid-loop")
    (tmp_path / ".grid-hidden").mkdir()
    (tmp_path / ".grid-hidden" / "manifest.json").write_bytes(manifest)
    assert store.list_checkpoints() == [ck.id]


def test_a_symlinked_checkpoint_directory_is_listed_and_loads(tmp_path):
    elsewhere = Store(tmp_path / "elsewhere")
    ck = _checkpoint()
    elsewhere.save_checkpoint(ck)
    store = Store(tmp_path / "store")
    store.root.mkdir()
    (store.root / ck.id).symlink_to(elsewhere.root / ck.id)
    assert store.list_checkpoints() == [ck.id]
    assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()


def test_list_order_is_that_of_the_sorted_root(tmp_path):
    store = Store(tmp_path)
    ids = ["grid-b", "Grid-a", "grid-a.1", "grid-a_1", "grid-a-10", "grid-a-2", "grid-é", "fission-z", "base-0"]
    for k, cid in enumerate(ids):
        store.save_checkpoint(_checkpoint(cid, seed=k))
    assert store.list_checkpoints() == [p.name for p in sorted(tmp_path.iterdir())]


@pytest.mark.parametrize("read", ["read_manifest", "load_checkpoint"])
def test_reading_what_is_not_a_checkpoint_names_the_missing_id(tmp_path, read):
    store = Store(tmp_path)
    (tmp_path / "grid-dirmanifest" / "manifest.json").mkdir(parents=True)
    (tmp_path / "grid-plainfile").write_text("{}")
    (tmp_path / "grid-debris").mkdir()
    (tmp_path / "grid-fifo").mkdir()
    os.mkfifo(tmp_path / "grid-fifo" / "manifest.json")
    (tmp_path / "grid-dangling").symlink_to(tmp_path / "nowhere")
    (tmp_path / "grid-loop").symlink_to(tmp_path / "grid-loop")
    for cid in ("grid-dirmanifest", "grid-plainfile", "grid-debris", "grid-absent", "grid-fifo", "grid-dangling",
                "grid-loop"):
        with pytest.raises(StoreError, match=re.escape(f"no checkpoint {cid} in {tmp_path}")):
            _soon(lambda: getattr(store, read)(cid))


# ---------------------------------------------------------------------------
# One directory pass: `manifests`

def _lineage_store(root):
    """Bases, their snapshots, and checkpoints of other stages whose ids sort
    among the snapshots' (`fission`, `fission-c0`, `fission_grid`)."""
    store = Store(root)
    cks = [_checkpoint("base-a", seed=0, stage="base"), _checkpoint("base-b", seed=1, stage="base")]
    for k, (cid, base, cycle) in enumerate([("fission-a1", "base-a", 1), ("fission-a2", "base-a", 2),
                                            ("fission-b1", "base-b", 1)]):
        lineage = Lineage("fission", base_id=base, cycle_index=cycle)
        cks.append(replace(_checkpoint(cid, seed=2 + k, stage="fission"), lineage=lineage))
    for k, cid in enumerate(["fission", "fission-c0", "fission_grid", "fissio-n", "grid-x"]):
        cks.append(_checkpoint(cid, seed=5 + k))
    for ck in cks:
        store.save_checkpoint(ck)
    return store, sorted(ck.id for ck in cks)


def _soon(fn, seconds=30.0):
    """`fn()`, failing rather than hanging when it blocks (as opening a FIFO
    for reading would); what `fn` raises is raised here."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:  # handed to the caller's thread
            out.append((False, exc))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert out, f"{fn} did not return within {seconds} s"
    ok, value = out[0]
    if not ok:
        raise value
    return value


def test_manifests_yield_what_list_checkpoints_lists_in_its_order(tmp_path, add_debris):
    store, ids = _lineage_store(tmp_path)
    add_debris(tmp_path, (tmp_path / "base-a" / "manifest.json").read_bytes())
    assert store.list_checkpoints() == ids
    every = _soon(lambda: list(store.manifests()))
    assert [cid for cid, _ in every] == ids
    assert every == [(cid, store.read_manifest(cid)) for cid in ids]
    for prefix in ("fission-", "fission", "base-", "grid-", "none-"):
        got = _soon(lambda: [cid for cid, _ in store.manifests(prefix)])
        assert got == [cid for cid in ids if cid.startswith(prefix)], prefix


def test_snapshot_discovery_by_manifests_matches_list_then_read(tmp_path, add_debris):
    store, ids = _lineage_store(tmp_path)
    add_debris(tmp_path, (tmp_path / "fission-a1" / "manifest.json").read_bytes())
    for bases in ({"base-a"}, {"base-b"}, {"base-a", "base-b"}, set()):
        listed = [cid for cid in store.list_checkpoints()
                  if cid.startswith("fission-") and store.read_manifest(cid)["lineage"]["base_id"] in bases]
        found = [cid for cid, m in store.manifests("fission-") if m["lineage"]["base_id"] in bases]
        assert found == listed, bases


def test_manifests_raise_on_a_manifest_of_another_schema(tmp_path):
    store, _ = _lineage_store(tmp_path)
    path = tmp_path / "fission-a2" / "manifest.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), schema_version=99)))
    with pytest.raises(StoreError, match=re.escape("unsupported manifest schema 99 (expected 1)")):
        list(store.manifests("fission-"))
    assert [cid for cid, _ in store.manifests("base-")] == ["base-a", "base-b"]


@pytest.mark.parametrize("removed", ["manifest", "checkpoint"])
def test_a_checkpoint_removed_after_the_directory_pass_is_skipped(tmp_path, removed):
    store, ids = _lineage_store(tmp_path)
    gone = "fission-b1"
    it = store.manifests()
    assert next(it)[0] == ids[0]  # the pass is done: every name is listed
    if removed == "manifest":
        (tmp_path / gone / "manifest.json").unlink()
    else:
        shutil.rmtree(tmp_path / gone)
    assert [cid for cid, _ in it] == [cid for cid in ids[1:] if cid != gone]


# ---------------------------------------------------------------------------
# Round-trip property

_NAMES = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,15}", fullmatch=True).filter(
    lambda s: s not in ("experiments", "datasets"))
_DEBRIS = ("empty", "weights", "manifest-dir", "temp-manifest", "file")


def _make_debris(path, kind):
    if kind == "file":
        path.write_text("{}")
        return
    path.mkdir()
    if kind == "weights":
        (path / "weights.bin").write_bytes(b"\x00" * 16)
    elif kind == "manifest-dir":
        (path / "manifest.json").mkdir()
    elif kind == "temp-manifest":
        (path / "manifest.json.0123abcd.tmp").write_text("{}")


@st.composite
def _random_checkpoint(draw, cid):
    arch = ArchSpec(tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))),
                    draw(st.sampled_from(ACTIVATIONS)))
    values = draw(st.lists(st.floats(width=64), min_size=arch.param_count, max_size=arch.param_count))
    cyclical = draw(st.none() | st.builds(CyclicalSchedule, cycle_steps=st.integers(1, 50).map(lambda n: 2 * n),
                                          alpha1=st.floats(0.5, 1.0), alpha2=st.floats(1e-6, 0.5)))
    config = draw(st.none() | st.builds(
        HyperConfig, lr=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32), augment=st.sampled_from(AugmentLevel),
        epochs=st.integers(0, 100), warmup_epochs=st.integers(0, 10), batch_size=st.integers(1, 512),
        schedule=st.just("cosine" if cyclical is None else "cyclical"), cyclical=st.just(cyclical),
        weight_decay=st.floats(0.0, 1.0)))
    lineage = draw(st.builds(Lineage, stage=st.sampled_from(STAGES), base_id=st.none() | _NAMES,
                             cycle_index=st.none() | st.integers(0, 1000), root_id=st.none() | _NAMES))
    return Checkpoint(
        id=cid, arch=arch, params=ParamVector(np.array(values, dtype=np.float64), arch.signature),
        config=config, lineage=lineage,
        val_metrics=draw(st.dictionaries(st.sampled_from([m.value for m in MetricKind]), st.floats(allow_nan=False))),
        epochs_consumed=draw(st.floats(0.0, 1e6)), trained_on=draw(st.text(max_size=12)),
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data(), names=st.lists(_NAMES, max_size=8, unique=True))
def test_random_checkpoints_among_debris_round_trip(data, names):
    n_saved = data.draw(st.integers(0, len(names)), label="n_saved")
    ids, debris = names[:n_saved], names[n_saved:]
    saved = [data.draw(_random_checkpoint(cid), label=cid) for cid in ids]
    with tempfile.TemporaryDirectory() as root:
        for name in debris:
            _make_debris(Path(root) / name, data.draw(st.sampled_from(_DEBRIS), label=name))
        store = Store(root)
        for ck in saved:
            store.save_checkpoint(ck)
        assert store.list_checkpoints() == sorted(ids)
        for ck in saved:
            back = store.load_checkpoint(ck.id)
            assert back.params.values.tobytes() == ck.params.values.tobytes()
            assert (back.id, back.arch, back.config, back.lineage) == (ck.id, ck.arch, ck.config, ck.lineage)
            assert (back.val_metrics, back.epochs_consumed, back.trained_on) == (
                ck.val_metrics, ck.epochs_consumed, ck.trained_on)


# ---------------------------------------------------------------------------
# Collisions

def _files(directory):
    """Each file's bytes and inode: an atomic rewrite always gives a new inode."""
    return {p.name: (p.read_bytes(), p.stat().st_ino) for p in directory.iterdir()}


def test_an_identical_resave_writes_nothing(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    files = _files(tmp_path / ck.id)
    assert store.save_checkpoint(ck) == ck.id
    assert _files(tmp_path / ck.id) == files


def test_colliding_id_with_different_weights_always_raises(tmp_path):
    store = Store(tmp_path)
    store.save_checkpoint(_checkpoint(seed=0))
    other = _checkpoint(seed=1)  # same id, different weights
    with pytest.raises(StoreError, match="already exists"):
        store.save_checkpoint(other)


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


def test_weights_that_do_not_fit_the_architecture_are_refused(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    raw = encode_weights(np.zeros(ARCH.param_count + 1))
    (tmp_path / ck.id / "weights.bin").write_bytes(raw)
    mpath = tmp_path / ck.id / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["weights_checksum"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=f"{ck.id}: {ARCH.param_count + 1} stored parameters "
                                         f"but architecture needs {ARCH.param_count}"):
        store.load_checkpoint(ck.id)


def test_missing_weights_are_a_store_error_naming_the_checkpoint(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    (tmp_path / ck.id / "weights.bin").unlink()
    with pytest.raises(StoreError) as exc:
        store.load_checkpoint(ck.id)
    assert str(exc.value) == f"checkpoint {ck.id} has no weights.bin in {tmp_path}"


def test_a_fifo_in_place_of_the_weights_is_a_store_error_not_a_hang(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    (tmp_path / ck.id / "weights.bin").unlink()
    os.mkfifo(tmp_path / ck.id / "weights.bin")
    # In a child process: a load that opens the FIFO for reading blocks until killed.
    code = ("import sys\nfrom soupkit.store import Store, StoreError\n"
            "try:\n    Store(sys.argv[1]).load_checkpoint(sys.argv[2])\n"
            "except StoreError as exc:\n    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), ck.id],
                          capture_output=True, text=True, env=env, timeout=60)
    want = f"checkpoint {ck.id} has no weights.bin in {tmp_path}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_a_collision_check_reads_a_fifo_manifest_as_debris(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    (tmp_path / ck.id).mkdir()
    os.mkfifo(tmp_path / ck.id / "manifest.json")
    assert _soon(lambda: store.save_checkpoint(ck)) == ck.id
    assert store.load_checkpoint(ck.id).params.values.tobytes() == ck.params.values.tobytes()


def test_a_manifest_that_points_at_another_checkpoints_weights_is_refused(tmp_path):
    store = Store(tmp_path)
    ck, other = _checkpoint(), _checkpoint("grid-other000000", seed=1)
    store.save_checkpoint(ck)
    store.save_checkpoint(other)
    mpath = tmp_path / ck.id / "manifest.json"
    manifest = json.loads(mpath.read_text())
    other_manifest = json.loads((tmp_path / other.id / "manifest.json").read_text())
    manifest.update(weights_file=f"../{other.id}/weights.bin", weights_checksum=other_manifest["weights_checksum"])
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(StoreError) as exc:
        store.load_checkpoint(ck.id)
    assert str(exc.value) == f"manifest of {ck.id} names weights_file '../{other.id}/weights.bin', not 'weights.bin'"


def test_a_copied_checkpoint_directory_is_refused_under_its_new_name(tmp_path):
    store = Store(tmp_path)
    ck = _checkpoint()
    store.save_checkpoint(ck)
    shutil.copytree(tmp_path / ck.id, tmp_path / "grid-copy")
    assert store.load_checkpoint(ck.id).id == ck.id
    with pytest.raises(StoreError) as exc:
        store.load_checkpoint("grid-copy")
    assert str(exc.value) == f"manifest of grid-copy names id '{ck.id}', not 'grid-copy'"


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
                store.save_checkpoint(ck)
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


def _uniform(val_score):
    a = _checkpoint("grid-aa0000000000", seed=0)
    b = _checkpoint("grid-bb0000000000", seed=1)
    return SoupResult(params=uniform_soup([a.params, b.params]), method=SoupMethod.UNIFORM,
                      members=sorted([a.id, b.id]), val_score=val_score)


@pytest.mark.parametrize("raw, problem", [
    (b'{"method": ', "valid JSON"),
    (b"[1]", "a JSON object"),
    (b'"x"', "a JSON object"),
], ids=["truncated", "a-list", "a-string"])
def test_an_audit_that_is_not_json_is_refused_naming_the_soup(tmp_path, raw, problem):
    store = Store(tmp_path)
    soup = _uniform(0.8)
    store.save_soup(soup, ARCH, "accuracy")
    (tmp_path / soup.id / "audit.json").write_bytes(raw)
    with pytest.raises(StoreError, match="^" + re.escape(f"audit record of {soup.id} is not {problem}") + "$"):
        store.load_audit(soup.id)


@pytest.mark.parametrize("first, second, stored", [(0.8, 0.9, "accuracy"), (None, 0.9, "none")])
def test_a_second_soup_record_with_a_different_audit_is_refused(tmp_path, first, second, stored):
    store = Store(tmp_path)
    soup = _uniform(first)
    store.save_soup(soup, ARCH, "accuracy")
    files = _files(tmp_path / soup.id)
    with pytest.raises(StoreError, match=re.escape(
            f"soup {soup.id} is already stored under metric {stored} with a different audit")):
        store.save_soup(_uniform(second), ARCH, "roc_auc_ovr")
    # an identical record writes nothing
    assert store.save_soup(_uniform(first), ARCH, "accuracy") == soup.id
    assert _files(tmp_path / soup.id) == files


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


def test_a_store_no_save_has_written_to_reads_as_empty_and_is_not_created(tmp_path):
    store = Store(tmp_path / "absent" / "store")
    assert store.list_checkpoints() == [] and list(store.manifests()) == []
    with pytest.raises(StoreError, match=re.escape(f"no checkpoint grid-x in {store.root}")):
        store.load_checkpoint("grid-x")
    with pytest.raises(StoreError, match="no val split"):
        store.load_dataset("x", "val")
    assert store.experiment_dir("e") == store.root / "experiments" / "e"
    assert list(tmp_path.iterdir()) == []


def test_a_dataset_without_its_task_json_reads_as_absent(tmp_path):
    spec = TaskSpec(kind="rough", seed=0, dims=4, class_count=3, n_samples=120)
    store = Store(tmp_path)
    store.save_task_bundle("x", gen_task(spec), spec)
    assert store.load_dataset("x", "val").task_id == spec.task_id
    (store.dataset_dir("x") / "task.json").unlink()
    with pytest.raises(StoreError, match=re.escape(f"no val split for dataset 'x' in {tmp_path}")):
        store.load_dataset("x", "val")


@pytest.mark.parametrize("read", [
    lambda store, spec: store.load_dataset("x", "val"),
    lambda store, spec: store.save_task_bundle("x", gen_task(spec), spec),
], ids=["load_dataset", "save_task_bundle"])
@pytest.mark.parametrize("raw, problem", [
    (b'{"kind": "rough", ', " is not valid JSON"),
    (b"\xff{}", " is not valid JSON"),
    (b"[1]", ": TaskSpec: expected an object, got [1]"),
    (b"{}", ": TaskSpec: missing key 'kind'; missing key 'seed'"),
], ids=["truncated", "not-utf8", "not-an-object", "empty-object"])
def test_a_task_json_that_is_not_json_is_refused_naming_the_dataset(tmp_path, read, raw, problem):
    spec = TaskSpec(kind="rough", seed=0, dims=4, class_count=3, n_samples=120)
    store = Store(tmp_path)
    d = store.save_task_bundle("x", gen_task(spec), spec)
    (d / "task.json").write_bytes(raw)
    files = _files(d)
    with pytest.raises(StoreError, match="^" + re.escape("task.json of dataset 'x'" + problem)):
        read(store, spec)
    assert _files(d) == files


def test_a_taken_dataset_name_is_verified_not_rewritten(tmp_path):
    spec = TaskSpec(kind="rough", seed=0, dims=4, class_count=3, n_samples=120)
    store = Store(tmp_path)
    d = store.save_task_bundle("x", gen_task(spec), spec)
    files = _files(d)
    assert store.save_task_bundle("x", gen_task(spec), spec) == d
    assert _files(d) == files
    # the same spec split by other ratios, as a config's defaults split it
    with pytest.raises(StoreError, match=re.escape("dataset 'x' already exists with different splits")):
        store.save_task_bundle("x", gen_task(spec, (0.85, 0.05, 0.10)), spec)
    assert _files(d) == files
    (d / "val.csv").unlink()
    with pytest.raises(StoreError, match="different splits"):  # refused before the missing split is written
        store.save_task_bundle("x", gen_task(spec, (0.85, 0.05, 0.10)), spec)
    assert not (d / "val.csv").exists()
    store.save_task_bundle("x", gen_task(spec), spec)  # a missing split is written again, and nothing else
    rewritten = _files(d)
    assert rewritten.pop("val.csv")[0] == files.pop("val.csv")[0]
    assert rewritten == files


def test_dataset_and_experiment_names_stay_inside_the_store(tmp_path):
    store = Store(tmp_path / "store")
    spec = TaskSpec(kind="rough", seed=0, dims=4, class_count=3, n_samples=120)
    for bad in ("", "a/b", ".", "..", ".hidden"):
        with pytest.raises(StoreError, match=re.escape(f"invalid dataset name {bad!r}")):
            store.load_dataset(bad, "train")
        with pytest.raises(StoreError, match=re.escape(f"invalid dataset name {bad!r}")):
            store.save_task_bundle(bad, gen_task(spec), spec)
        with pytest.raises(StoreError, match=re.escape(f"invalid experiment name {bad!r}")):
            store.experiment_dir(bad)
    assert list(tmp_path.iterdir()) == []


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
