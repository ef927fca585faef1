"""In-process span tracer for the traced benchmark run.

``install`` replaces every public function of the wadm modules, at every
module binding that refers to it (``isocrystal.mat_rank`` is the same
object as ``exact.rank``), with a wrapper that records one span per call:
name, start, end, parent span and whether it raised.  Each span's self
time is its duration minus the union of its children's intervals; the
union matters only for ``cli check``, whose thread pool runs children of
``cli.main`` side by side.

Aggregates (calls, total, self time, errors per function; calls and total
per parent -> child edge) are exact.  Raw spans are kept in memory up to a
cap and written out with the aggregates when the process ends.

``merge`` adds aggregate rows; run.py uses it too, to merge the children's.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types

MODULES = ("exact", "rootdata", "satake", "isocrystal", "weildeligne", "checker",
           "instances", "cli")
CACHED = ("all_roots", "positive_roots", "half_sum_positive_roots", "weyl_elements",
          "_hull_points")
SPANS_KEPT = 200_000  # raw spans written per traced run, over all its processes


def merge(acc: dict, rows: dict) -> None:
    """Add every row of ``rows`` elementwise into the row of ``acc`` with
    the same key."""
    for key, row in rows.items():
        total = acc.setdefault(key, [0] * len(row))
        for i, v in enumerate(row):
            total[i] += v


def covered(intervals, start, end) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, keep: int = SPANS_KEPT):
        self.clock = clock
        self.keep = keep
        self.enabled = True
        self.trace_id = 0
        self.spans = []  # (trace, id, parent, name, start, end, error)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []  # per-thread (funcs, edges) aggregates
        self._main = self._state()[0]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            self._threads.append(state[1:])
        return state

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, funcs, edges = tracer._state()
            # A pool thread's first span belongs to whatever the main thread runs.
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            frame = (next(tracer._ids), name, tracer.clock(), [])
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                stack.pop()
                tracer._close(frame, parent, failed, funcs, edges)

        return traced

    def _close(self, frame, parent, failed, funcs, edges) -> None:
        span_id, name, start, children = frame
        end = self.clock()
        duration = end - start
        row = funcs.get(name)
        if row is None:
            row = funcs[name] = [0, 0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered(children, start, end)
        row[3] += failed
        key = (parent[1] if parent else "", name)
        edge = edges.get(key)
        if edge is None:
            edge = edges[key] = [0, 0]
        edge[0] += 1
        edge[1] += duration
        if parent is not None:
            parent[3].append((start, end))
        if len(self.spans) < self.keep:
            self.spans.append((self.trace_id, span_id, parent[0] if parent else 0, name,
                               start, end, failed))
        else:
            self.dropped += 1

    def aggregates(self):
        funcs, edges = {}, {}
        for f, e in self._threads:
            merge(funcs, f)
            merge(edges, {"|".join(key): row for key, row in e.items()})
        return funcs, edges

    def dump(self, path, cache=None, extra=None) -> None:
        funcs, edges = self.aggregates()
        doc = {"funcs": funcs, "edges": edges, "cache": cache or {}, "spans": self.spans,
               "dropped": self.dropped}
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _public(obj) -> bool:
    """A public wadm function, plain or lru-cached (classes excluded)."""
    is_func = isinstance(obj, types.FunctionType) or (callable(obj) and hasattr(obj, "cache_info"))
    return (is_func and getattr(obj, "__module__", "").startswith("wadm.")
            and not obj.__name__.startswith("_"))


def install(tracer: Tracer, package) -> None:
    """Wrap every public wadm function at every module binding; one wrapper
    per function object, named <defining module>.<function>."""
    import importlib

    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    wrapped = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not _public(obj):
                continue
            if id(obj) not in wrapped:
                name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                wrapped[id(obj)] = tracer.wrap(name, obj)
            setattr(mod, attr, wrapped[id(obj)])


def cache_counts(package) -> dict:
    """hits and misses of the lru-cached root-data functions (read from the
    original cache objects, which the wrappers keep as ``__wrapped__``)."""
    out = {}
    for name in CACHED:
        fn = getattr(package.rootdata, name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out
