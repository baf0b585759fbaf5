"""In-memory span tracer that wraps the public callables of the qwalk modules.

Tracing is applied from outside the program: ``Tracer.instrument`` swaps
every public function and public method (plus ``__init__``) defined in a
qwalk module for a timing wrapper, in the defining module and in every
module that imported the name directly (``qwalk.experiments.run_walk``,
``qwalk.run_experiment``, ...).  The generator returned by
``qwalk.rng.stream`` is handed back behind a proxy that times and counts
its draws.  Leaving the context restores the original objects, so
untraced calls run the program exactly as shipped.

A span is (name, parent, start, end, count); spans live in flat arrays
until the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import time
from array import array

MODULES = ("rng", "graph", "walks", "trees", "certify", "experiments", "cli")


def _size_of(size) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


# Objects whose buffers are large enough that freeing them is real work:
# a ``__del__`` span frees their attributes inside their own layer instead
# of in whichever caller drops the last reference.
RELEASED = {"walks.ListModel"}
_MISSING = object()

# Work counted on the span of a call, from its arguments and result.
COUNTERS = {
    "walks.run_walk": lambda args, kwargs, result: result.steps,
    "trees.random_homomorphism": lambda args, kwargs, result: result.tree.size,
    "certify.discrepancy_sampled":
        lambda args, kwargs, result: kwargs.get("trials", args[2] if len(args) > 2 else 0),
}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []
        self.list_words = 0  # words drawn from per-vertex list streams
        self._list_domain = None  # the program's DOMAIN_LIST, read when instrumenting

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self.count.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, parent: int, start: float, end: float,
            count: float = 0.0) -> int:
        """Append a finished span directly (for hand-built span sets)."""
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.count.append(count)
        return sid

    # -- instrumentation -------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        proxied = name == "rng.stream"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer.count[sid] = counter(args, kwargs, result)
                if proxied:
                    result = DrawCounter(result, tracer, args[1] == tracer._list_domain)
                return result
            finally:
                tracer.close(sid)

        return traced

    @contextlib.contextmanager
    def instrument(self, package):
        """Wrap the public callables of ``package``'s modules while inside."""
        # importlib, not getattr: ``qwalk.certify`` is shadowed by the function
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        self._list_domain = modules[MODULES.index("rng")].DOMAIN_LIST
        undo = []
        wrapped = {}  # id(original function) -> wrapper

        def swap(owner, attr, new):
            undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, new)

        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                    swap(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__init__":
                            continue
                        label = f"{short}.{attr}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            swap(obj, meth, type(raw)(self._wrap(raw.__func__, label)))
                        elif inspect.isfunction(raw):
                            swap(obj, meth, self._wrap(raw, label))
                    if f"{short}.{attr}" in RELEASED and "__del__" not in vars(obj):
                        swap(obj, "__del__", self._wrap(_release, f"{short}.{attr}.__del__"))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and mod.__dict__[attr] is not wrapped[id(obj)]:
                    swap(mod, attr, wrapped[id(obj)])
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                if old is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    # -- analysis ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Problems that make the span set unusable; empty when well formed.

        Every span is closed, its parent precedes it and encloses it, and
        siblings do not overlap.
        """
        problems = []
        last_child_end: dict[int, float] = {}
        for i in range(len(self.name)):
            s, e, p = self.start[i], self.end[i], self.parent[i]
            label = f"span {i} ({self.names[self.name[i]]})"
            if math.isnan(e) or e < s:
                problems.append(f"{label} is not closed")
                continue
            if p >= i or p < -1:
                problems.append(f"{label} has parent {p}, which does not precede it")
                continue
            if p >= 0 and (s < self.start[p] or e > self.end[p]):
                problems.append(f"{label} leaks out of its parent span {p}")
            if s < last_child_end.get(p, -math.inf):
                problems.append(f"{label} overlaps an earlier sibling")
            last_child_end[p] = e
        return problems

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        selft = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                selft[p] -= own[i]
        return selft

    def summary(self) -> dict:
        """Per span name: calls, inclusive time of outermost spans, self time, count."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}
               for n in self.names}
        selft = self.self_times()
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selft[i]
            row["count"] += self.count[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:  # recursion or re-entry counts once, at the outermost span
                row["total_s"] += self.end[i] - self.start[i]
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "spans": [list(r) for r in zip(self.name, self.parent, self.start,
                                                     self.end, self.count)]}, fh)


def _release(obj) -> None:
    vars(obj).clear()


class DrawCounter:
    """Proxy for a numpy Generator that times and counts the words drawn."""

    __slots__ = ("_gen", "_tracer", "_list", "_nid")

    def __init__(self, gen, tracer: Tracer, list_stream: bool):
        self._gen = gen
        self._tracer = tracer
        self._list = list_stream
        self._nid = tracer.name_id("rng.draw")

    def _draw(self, method, size, args, kwargs):
        tracer = self._tracer
        sid = tracer.open(self._nid)
        try:
            return method(*args, size=size, **kwargs)
        finally:
            tracer.close(sid)
            n = _size_of(size)
            tracer.count[sid] = n
            if self._list:
                tracer.list_words += n

    def random(self, size=None, **kwargs):
        return self._draw(self._gen.random, size, (), kwargs)

    def integers(self, low, high=None, size=None, **kwargs):
        return self._draw(self._gen.integers, size, (low, high), kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)
