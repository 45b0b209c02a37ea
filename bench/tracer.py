"""Timing calls into a package from outside, by rebinding module attributes.

A target names a function by the module attribute that holds it, such as
``composition.compose_sets``.  The tracer wraps that function object at every
attribute of the package's modules that is bound to it, because a caller
looks a function up in its own module (``treesearch`` calls the name
``compose_sets`` it imported).  A target that no longer exists raises
``TraceError`` when the tracer is built: a layer that is gone must not read
as zero.  A target that exists but is never called is a real zero.

Modes:

span    a span per call: name, start, end, parent span and request id;
hot     per-request totals only (calls, time, self time), for functions
        called tens of thousands of times per request;
iter    the function returns an iterator; time spent producing items and
        the item count are totalled as for ``hot``;
count   a call count, no timing.

Self time is a call's duration minus the time its traced children cover.
A parent's child time covers each traced call from wrapper entry to exit,
so the tracer's own bookkeeping never counts as anyone's self time; it shows
only in the traced run's total.  Spans and per-request totals stay in memory
until ``dump``.  ``keep`` lists the targets whose arguments, results and
caller name are stored for one request, as three parallel lists, so that
counts needing hashing or geometry are computed after the request.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, HOT, ITER, COUNT = "span", "hot", "iter", "count"


class TraceError(RuntimeError):
    """A traced name is missing or not callable."""


class Tracer:
    def __init__(self, package: str, targets, keep=()):
        self.keep_names = frozenset(keep)
        self.spans: list = []
        self.requests: list = []
        self.request = None
        self.stack: list = []
        self.totals: dict[str, list] = {}
        self.kept: dict[str, list] = {}
        self._patches = []
        found = []
        for qualname, mode in targets:
            modname, _, attr = qualname.rpartition(".")
            try:
                fn = getattr(importlib.import_module(f"{package}.{modname}"), attr)
            except (ImportError, AttributeError):
                raise TraceError(f"{package}.{qualname} no longer exists") from None
            if not callable(fn):
                raise TraceError(f"{package}.{qualname} is not callable")
            found.append((fn, self._wrap(qualname, mode, fn)))
        loaded = [
            m for name, m in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for fn, wrapper in found:
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn, wrapper))

    # -- per request ------------------------------------------------------

    def begin(self, request_id) -> None:
        self.request = request_id
        self.totals = {}
        self.kept = {name: ([], [], []) for name in self.keep_names}
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def end(self) -> tuple[dict, dict]:
        """Unbind the wrappers; return this request's totals and kept calls."""
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)
        totals, kept = self.totals, self.kept
        self.requests.append({"request": self.request, "totals": totals})
        self.request, self.kept = None, {}
        return totals, kept

    def dump(self, path: str, **header) -> None:
        doc = dict(header, spans=self.spans, requests=self.requests)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, mode: str, fn):
        tracer = self
        clock = time.perf_counter

        if mode == COUNT:
            def counted(*args, **kwargs):
                tot = tracer.totals.get(name)
                if tot is None:
                    tot = tracer.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                return fn(*args, **kwargs)
            return counted

        if mode == ITER:
            def iterated(*args, **kwargs):
                return tracer._timed_items(name, fn(*args, **kwargs))
            return iterated

        record = mode == SPAN
        keep = name in self.keep_names

        def timed(*args, **kwargs):
            entry = clock()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span = len(tracer.spans) if record else parent_span
            if record:
                tracer.spans.append(None)
            frame = [0.0, span, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tot = tracer.totals.get(name)
                if tot is None:
                    tot = tracer.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += end - start
                tot[2] += end - start - frame[0]
                if record:
                    tracer.spans[span] = (name, start, end, parent_span, tracer.request)
            if keep:
                kept = tracer.kept[name]
                kept[0].append(args)
                kept[1].append(result)
                kept[2].append(parent[2] if parent else None)
            if parent:
                # The whole wrapped call, bookkeeping included, is the
                # parent's child time, so tracing does not inflate self time.
                parent[0] += clock() - entry
            return result

        return timed

    def _timed_items(self, name: str, items):
        clock = time.perf_counter
        stack = self.stack
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        it = iter(items)
        while True:
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                item = tot
            dur = clock() - start
            tot[1] += dur
            tot[2] += dur
            if stack:
                stack[-1][0] += dur
            if item is tot:
                return
            tot[0] += 1
            yield item
