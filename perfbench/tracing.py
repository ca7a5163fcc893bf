"""Thread-aware spans around the package's public functions and methods.

The tracer wraps, from outside, every public function and every public
method (plus ``__init__``/``__post_init__``) defined in the layer modules,
and rebinds every module attribute that referred to an original function.
A span is (name, start, end, parent, op label); spans live in per-thread
arrays until the run ends. A span opened on a pool thread with nothing open
on that thread gets as parent the innermost span open on the driving thread,
which is the ``run_trials`` call that submitted it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("rng", "model", "tester", "harness", "adversarial", "distances", "violation")

# Per-draw leaves, called up to a million times in one trial: a span each
# would cost more than the work it times. Their time stays in the caller.
SKIP = frozenset({
    "rng.RandomStream.randrange",
    "model.FiniteDistribution.index_from_uniform",
})

# Private functions whose spans the per-layer metrics need.
EXTRA = {"harness": ("_run_one",)}

_FIELDS = 5  # name id, start ns, end ns, parent ref, label id
_REF_SHIFT = 40  # parent ref = buffer id << 40 | span index


class _Buffer:
    __slots__ = ("ref", "spans", "stack", "amounts", "thread")

    def __init__(self, ident: int, thread: str):
        self.ref = ident << _REF_SHIFT
        self.spans = array("q")
        self.stack: list[int] = []
        self.amounts: dict = {}
        self.thread = thread


class Tracer:
    """Installs wrappers, records spans, and restores the package on exit."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.labels: list[str] = [""]
        self.label = 0
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._main: _Buffer | None = None
        self._restore: list[tuple] = []

    # -- recording --

    def set_label(self, label: str) -> None:
        if label not in self.labels:
            self.labels.append(label)
        self.label = self.labels.index(label)

    def _buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers), threading.current_thread().name)
            self._buffers.append(buf)
        self._tls.buf = buf
        return buf

    def _wrap(self, name: str, fn, amount=None, rename=None):
        nid = len(self.names)
        self.names.append(name)
        if rename is not None:
            alt = len(self.names)
            self.names.append(rename[0])
            pick = rename[1]
        tls = self._tls
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(tls, "buf", None) or tracer._buffer()
            spans, stack = buf.spans, buf.stack
            if stack:
                parent = buf.ref | stack[-1]
            else:
                main = tracer._main
                parent = main.ref | main.stack[-1] if main.stack else -1
            pos = len(spans)
            sid = alt if rename is not None and pick(args) else nid
            spans.extend((sid, 0, 0, parent, tracer.label))
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[pos + 2] = clock()
                spans[pos + 1] = start
                stack.pop()
            if amount is not None:
                key = (sid, spans[pos + 4])
                buf.amounts[key] = buf.amounts.get(key, 0) + amount(args, result)
            return result

        return wrapper

    # -- install / remove --

    def install(self, hooks: dict) -> None:
        """Wrap every target; hooks maps a span name to (amount, rename)."""
        self._main = self._buffer()
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type) and not attr.startswith("_"):
                    self._wrap_class(layer, obj, hooks)
                elif callable(obj) and (not attr.startswith("_")
                                        or attr in EXTRA.get(layer, ())):
                    name = f"{layer}.{attr}"
                    if name in SKIP:
                        continue
                    originals[id(obj)] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        # rebind every module-level reference to a wrapped function
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            amount, rename = hooks.get(name, (None, None))
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(name, obj.__func__, amount, rename))
            elif callable(obj):
                new = self._wrap(name, obj, amount, rename)
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, new)

    def remove(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results --

    def table(self) -> dict:
        """All spans as numpy columns with global parent indices, durations
        and self times (duration minus the union of its children)."""
        chunks = [np.frombuffer(b.spans, dtype=np.int64).reshape(-1, _FIELDS)
                  for b in self._buffers]
        offsets = np.cumsum([0] + [len(c) for c in chunks])
        thread = np.concatenate([np.full(len(c), i) for i, c in enumerate(chunks)])
        data = np.concatenate(chunks) if chunks else np.zeros((0, _FIELDS), np.int64)
        name, start, end, ref, label = data.T
        parent = np.full(len(data), -1, dtype=np.int64)
        has = ref >= 0
        parent[has] = offsets[ref[has] >> _REF_SHIFT] + (ref[has] & ((1 << _REF_SHIFT) - 1)) // _FIELDS
        dur = end - start
        self_ns = dur.copy()
        same = has & (thread[np.maximum(parent, 0)] == thread)
        np.subtract.at(self_ns, parent[same], dur[same])
        cross = np.flatnonzero(has & ~same)
        for p in np.unique(parent[cross]):
            kids = cross[parent[cross] == p]
            self_ns[p] -= _union_length(start[kids], end[kids], start[p], end[p])
        amounts = {}
        for b in self._buffers:
            for (sid, lab), v in b.amounts.items():
                key = (self.names[sid], self.labels[lab])
                amounts[key] = amounts.get(key, 0) + v
        return {"name": name, "start": start, "end": end, "parent": parent,
                "label": label, "thread": thread, "dur": dur, "self": self_ns,
                "names": list(self.names), "labels": list(self.labels),
                "threads": [b.thread for b in self._buffers], "amounts": amounts}


def _union_length(starts, ends, lo, hi) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(zip(np.maximum(starts, lo), np.minimum(ends, hi))):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return int(total)
