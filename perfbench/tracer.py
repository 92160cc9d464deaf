"""Outside-in tracing: the benchmark replaces public functions of the netfloc
modules with wrappers that record spans (or only count calls), and puts the
originals back afterwards.  Nothing inside the package is changed.

A span is (name, start, end, parent span, event index).  Spans live in flat
arrays while the run goes on and are written out when it ends.  Self time is
a span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Spans and call counts for wrapped functions; records only while
    ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("i")
        self.event: array = array("i")
        self.counts: dict[str, list[int]] = {}
        self.event_index = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer, stack = self, self._stack
        name_of, start, end, parent, event = (
            self.name_of, self.start, self.end, self.parent, self.event)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            event.append(tracer.event_index)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, count_only: bool = False) -> None:
        """Wrap ``cls.attr`` (plain function or classmethod) in place."""
        make = self._count_wrapper if count_only else self._span_wrapper
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(name, raw.__func__)))
        else:
            self._set(cls, attr, make(name, raw))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere the package re-exports
        it, so callers that imported it by name see the wrapper too."""
        fn = getattr(module, attr)
        wrapper = self._span_wrapper(name, fn)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != package or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call p50 in
        microseconds."""
        # Copies, not views: a live view would stop the arrays from growing.
        name_of = np.array(self.name_of, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        out = {}
        for nid, name in enumerate(self.names):
            mine = name_of == nid
            durs = np.sort(dur[mine])
            out[name] = {
                "calls": int(durs.size),
                "s": int(durs.sum()) / 1e9,
                "self_s": int((durs.sum() - child[mine].sum())) / 1e9,
                "us_p50": float(durs[durs.size // 2]) / 1e3 if durs.size else 0.0,
            }
        return out

    def count(self, name: str) -> int:
        return self.counts[name][0]

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start_ns,end_ns,parent,event."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,event\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_of[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.event[i]}\n")
