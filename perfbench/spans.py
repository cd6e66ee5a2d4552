"""Span tracing of soupkit from outside the package.

`Tracer.install` swaps every public module-level function of the soupkit
layers, and the public methods of `Store`, for a wrapper that records one
span per call: name, start, end, parent span and op id. The package code is
not edited; because its modules import each other's functions by name, every
module attribute that refers to a wrapped function is replaced, so calls
between layers are seen too. `uninstall` puts the originals back, which keeps
untraced ops free of any wrapper cost.

Spans live in flat arrays while the run lasts and are written out once at
the end (`save`).
"""

from __future__ import annotations

import importlib
import inspect
import types
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("data", "nn", "optim", "pipeline", "soup", "analysis", "store", "experiment", "cli")
# Time inside an op that no soupkit span covers (the benchmark's own call site).
OTHER = "other"


def span_name(layer: str, fn_name: str) -> str:
    if layer == "cli" and fn_name.startswith("cmd_"):
        fn_name = fn_name[len("cmd_"):]
    return f"{layer}.{fn_name}"


def _public_functions(namespace: dict, module_name: str) -> dict[str, types.FunctionType]:
    return {
        name: obj for name, obj in namespace.items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module_name
    }


class Tracer:
    """Records spans for calls into soupkit while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        # Values noted from a call's arguments or result, keyed by span index.
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._op = [-1]
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build_swaps()

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        nid = self._name_id(name)
        names, parents, ops, starts, ends = self.name_idx, self.parent, self.op, self.start, self.end
        stack, op_box, notes = self._stack, self._op, self.notes

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op_box[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def _build_swaps(self) -> None:
        notes = _NOTES
        wrappers: dict[int, Callable] = {}
        for layer, module in self.modules.items():
            for fn_name, fn in _public_functions(vars(module), module.__name__).items():
                name = span_name(layer, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn, notes.get(name)))
        # Every module that holds a reference to a wrapped function gets the
        # wrapper, so `from .nn import evaluate` call sites are traced too.
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swaps.append((module, attr, value, hit[1]))
        store_cls = self.modules["store"].Store
        for fn_name, fn in _public_functions(vars(store_cls), self.modules["store"].__name__).items():
            name = span_name("store", fn_name)
            self._swaps.append((store_cls, fn_name, fn, self._wrap(name, fn, notes.get(name))))

    def install(self, op_id: int) -> None:
        self._op[0] = op_id
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        self._op[0] = -1

    # -- summaries ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name_idx), "parent": np.array(self.parent),
                "op": np.array(self.op), "start": np.array(self.start), "end": np.array(self.end)}

    def op_spans(self, op_id: int) -> "OpSpans":
        a = self.arrays()
        return OpSpans(self, a, np.flatnonzero(a["op"] == op_id))

    def save(self, path: Path) -> None:
        """Write every span (one row per call) and the table of span names."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class OpSpans:
    """The spans of one op, with self times and per-name totals."""

    def __init__(self, tracer: Tracer, a: dict[str, np.ndarray], idx: np.ndarray) -> None:
        self.tracer = tracer
        self.idx = idx
        self.names = tracer.names
        name, parent = a["name"][idx], a["parent"][idx]
        dur = a["end"][idx] - a["start"][idx]
        # An op's spans are appended one after another (single thread), so
        # they are contiguous and nested; the part of a span its children
        # cover is the sum of their durations.
        lo = int(idx[0]) if idx.size else 0
        assert idx.size == 0 or int(idx[-1]) - lo + 1 == idx.size
        child_pos = np.where(parent >= lo, parent - lo, -1).astype(np.int64)
        has_parent = child_pos >= 0
        covered = np.bincount(child_pos[has_parent], weights=dur[has_parent], minlength=idx.size)
        self.name = name
        self.parent_pos = child_pos
        self.dur = dur
        self.self_s = dur - covered
        self.top_level_s = float(dur[~has_parent].sum())
        k = len(self.names)
        self.calls = np.bincount(name, minlength=k)
        self.self_by_name = np.bincount(name, weights=self.self_s, minlength=k)

    def calls_of(self, name: str) -> int:
        i = self.tracer._name_ids.get(name)
        return 0 if i is None else int(self.calls[i])

    def self_of(self, name: str) -> float:
        i = self.tracer._name_ids.get(name)
        return 0.0 if i is None else float(self.self_by_name[i])

    def total_of(self, name: str) -> float:
        """Inclusive time of every span of that name."""
        i = self.tracer._name_ids.get(name)
        return 0.0 if i is None else float(self.dur[self.name == i].sum())

    def notes_of(self, name: str) -> list[tuple[int, object]]:
        """(position, note) of every span of that name in this op."""
        i = self.tracer._name_ids.get(name)
        if i is None:
            return []
        return [(p, self.tracer.notes.get(int(self.idx[p]))) for p in np.flatnonzero(self.name == i)]

    def ancestor_named(self, pos: int, name: str) -> int:
        """Position of the closest enclosing span called `name`, or -1."""
        target = self.tracer._name_ids.get(name)
        p = self.parent_pos[pos]
        while p >= 0:
            if self.name[p] == target:
                return int(p)
            p = self.parent_pos[p]
        return -1

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, total in enumerate(self.self_by_name):
            out[self.names[i].split(".", 1)[0]] += float(total)
        return out


# What to note from a call, by span name: small values read off the
# arguments or result, turned into counts after the op.
_NOTES: dict[str, Callable] = {
    "store.load_checkpoint": lambda args, kwargs, result: (str(args[0].root), result.id),
    "data.load_csv": lambda args, kwargs, result: str(args[0]),
    "cli.soup": lambda args, kwargs, result: args[0].method,
    "analysis.landscape_grid": lambda args, kwargs, result: int(result.values.size),
    "soup.greedy_soup": lambda args, kwargs, result: (
        len(result.audit) - 1, sum(1 for a in result.audit[1:] if a.accepted)),
}
