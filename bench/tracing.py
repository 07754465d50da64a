"""Spans around every call into logent's layers, recorded from outside.

Tracer.install() puts a wrapper on each public function of each layer module at
every module attribute that binds it (logent.fuzz.verify_entropy_bound
and logent.channels.verify_entropy_bound get the same wrapper), and
each public method of a layer class. Dataclasses whose __post_init__
validates their fields get their __init__ wrapped, under the class's own
name, so channels.CouplingModel is the unitarity check. Private helpers
are not wrapped: their time is self time of the public caller.

A wrapper named in PROBES also adds to a counter read off the call's
arguments: serialization.bytes_read is the size of every file the
library asks load_json to read.

Spans live in parallel typed arrays until the run ends. uninstall() puts
the originals back; nothing is wrapped unless install() is called, so an
untraced run imports logent unmodified.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array

import numpy as np

from layers import LAYERS


def _file_size(path, *args, **kwargs) -> int:
    return os.path.getsize(path)


# Span name -> (counter, function of the call's arguments added to it).
PROBES = {"serialization.load_json": ("serialization.bytes_read", _file_size)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name of each wrapper, indexed by name id
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, op = (self.span_name, self.start, self.end,
                                             self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter
        counter, probe = PROBES.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                counts[counter] = counts.get(counter, 0) + probe(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        """Wrap every public function and method of the layer modules."""
        owners = {f"logent.{layer}": layer for layer in LAYERS}
        wrappers: dict[object, object] = {}
        classes: set[type] = set()
        for binder in map(importlib.import_module, ["logent", *owners]):
            for attr, obj in list(vars(binder).items()):
                layer = owners.get(getattr(obj, "__module__", None))
                if attr.startswith("_") or layer is None:
                    continue
                if isinstance(obj, type):
                    if obj not in classes and not issubclass(obj, BaseException):
                        classes.add(obj)
                        self._plan_class(obj, layer)
                elif callable(obj):
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__qualname__}")
                    self._patches.append((binder, attr, obj, wrappers[obj]))

    def _plan_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or not callable(member) or isinstance(member, type):
                continue
            wrapper = self.wrap(member, f"{layer}.{cls.__qualname__}.{attr}")
            self._patches.append((cls, attr, member, wrapper))
        if "__post_init__" in vars(cls):
            init = vars(cls)["__init__"]
            self._patches.append((cls, "__init__", init,
                                  self.wrap(init, f"{layer}.{cls.__qualname__}")))

    def arrays(self) -> dict:
        """The spans as numpy arrays: name id, start, end, parent index, op id."""
        return {"name": np.array(self.span_name), "start": np.array(self.start),
                "end": np.array(self.end), "parent": np.array(self.parent),
                "op": np.array(self.op)}

    def save(self, path: str, spans: dict) -> None:
        """Write the span name table and the spans as .npz."""
        np.savez(path, names=np.array(json.dumps(self.names)), **spans)


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Children of one span run one after another inside it, so their
    durations never overlap and can simply be summed.
    """
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def layer_metrics(names: list[str], spans: dict, op_wall: float, n_ops: int,
                  functions) -> dict:
    """Per-op calls and self time of each function, and each layer's share.

    op_wall is the summed wall time of the traced ops; the time not
    covered by any top-level span is reported as bench.self_share, the
    benchmark's own residual, so all the shares add up to one.
    """
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(spans["name"], minlength=len(names))
    self_s = np.bincount(spans["name"], weights=own, minlength=len(names))
    by_name = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(names)}
    out = {}
    for fn in functions:
        c, s = by_name.get(fn, (0, 0.0))
        out[f"{fn}.calls"] = c / n_ops
        out[f"{fn}.self_s"] = s / n_ops
    for layer in LAYERS:
        total = sum(s for n, (_, s) in by_name.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = total / op_wall
    out["bench.self_share"] = 1.0 - float(np.sum(own)) / op_wall
    return out


def inclusive(names: list[str], spans: dict, name: str) -> tuple[int, float]:
    """Number of spans with this name and their summed duration."""
    if name not in names:
        return 0, 0.0
    hit = spans["name"] == names.index(name)
    return int(np.sum(hit)), float(np.sum(spans["end"][hit] - spans["start"][hit]))
