"""In-memory span tracer that times the envy_census layers from outside.

`Tracer.installed()` replaces every traced public function of the layer
modules (model, census, fairness, combinatorics, cli) with a timing wrapper,
in every namespace that holds it, and restores the originals on exit. Calls
between layers resolve through those namespaces at call time, so
`census_report -> ef1_bundle_mask` and `Valuation -> check_monotone` are
caught without touching the package source.

A span is (name, start_ns, end_ns, parent, attr); `parent` is the index of
the enclosing span or -1. Self time is a span's duration minus the part of
its interval covered by its child spans.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
import weakref
from pathlib import Path

LAYERS = ("model", "census", "fairness", "combinatorics", "cli")

# Constant-time bit helpers and per-number parsers run thousands of times per
# operation; a span around each would cost more than the work it times.
UNTRACED = frozenset(
    {
        "model.full_bundle",
        "model.complement",
        "model.bundle_size",
        "model.bundle_of",
        "model.iter_items",
        "model.as_fraction",
        "combinatorics.hamming_distance",
        "combinatorics.binom",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.attr: list = []
        self._stack: list[int] = []
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = 0
        # Argument facts recorded per span, keyed by span name.
        self._attr_fns = {
            "census.ef1_bundle_mask": self._valuation_attr,
            "census.efx_bundle_mask": self._valuation_attr,
            "model.load_instance": lambda path: os.path.getsize(path),
            "combinatorics.system_distance": lambda a, b: len(a) * len(b),
        }

    def _valuation_attr(self, v):
        """(m, serial): the serial tells valuations apart even after an id
        is reused by a later object."""
        serial = self._serials.get(v)
        if serial is None:
            serial = self._serials[v] = self._next_serial
            self._next_serial += 1
        return (v.m, serial)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attr) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attr.append(attr)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attr=None):
        idx = self._open(name, attr)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        attr_fn = self._attr_fns.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, attr_fn(*args, **kwargs) if attr_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Trace the layer modules of `package` for the duration of the block."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        patched = []
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])
                    patched.append((namespace, attr, obj))
        try:
            yield
        finally:
            for namespace, attr, obj in patched:
                setattr(namespace, attr, obj)

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def duration_ns(self, i: int) -> int:
        return self.end[i] - self.start[i]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.start]
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_ns(self, kids: list[list[int]]) -> list[int]:
        """Duration minus the union of the child intervals, per span."""
        out = []
        for i, ks in enumerate(kids):
            covered = 0
            cur_s = cur_e = None
            for k in sorted(ks, key=self.start.__getitem__):
                s, e = max(self.start[k], self.start[i]), min(self.end[k], self.end[i])
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append(self.duration_ns(i) - covered)
        return out

    def nesting_violations(self, self_times: list[int]) -> int:
        """Spans that are unclosed, or whose self time or duration exceeds
        the duration of their parent span."""
        bad = 0
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i] or self_times[i] < 0:
                bad += 1
            elif p >= 0 and (
                self_times[i] > self.duration_ns(p) or self.duration_ns(i) > self.duration_ns(p)
            ):
                bad += 1
        return bad

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False

    def write(self, path: Path) -> None:
        """Spans as compact rows: [name index, parent, start_ns, end_ns, attr]."""
        index: dict[str, int] = {}
        rows = []
        t0 = self.start[0] if self.start else 0
        for i, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            attr = self.attr[i]
            rows.append([k, self.parent[i], self.start[i] - t0, self.end[i] - t0,
                         list(attr) if isinstance(attr, tuple) else attr])
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": list(index), "spans": rows}, f, separators=(",", ":"))
