"""Spans recorded around the benchmark's calls into memcav's layers.

A span is one call the benchmark makes into a layer's public function:
its name (``<module>.<function>``), start and end in ns, the span that
encloses it, the workload iteration it belongs to, whether it is a probe,
and how many items it handled (events, bins, grid points, rows).  Spans
stay in memory and are written out once, when the run ends.

The untraced end-to-end loop uses ``NoTrace``, whose ``call`` only calls
the function, so both loops run the same workload code.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from pathlib import Path


class NoTrace:
    """Tracing off: call straight through."""

    enabled = False

    def call(self, name, items, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def iteration(self, i):
        return contextlib.nullcontext()


class Tracer:
    """Tracing on: one span per call, kept in memory."""

    enabled = True

    def __init__(self, counters=()):
        self.counters = list(counters)   # CallCounters installed during traced iterations
        # [name, start_ns, end_ns, parent_index, iteration, probe, items]
        self.spans: list[list] = []
        self._parent = -1
        self._iteration = -1
        self.probing = False

    def call(self, name, items, fn, *args, **kwargs):
        """Call fn inside a span; items is a count or a function of the result."""
        index = len(self.spans)
        span = [name, 0, 0, self._parent, self._iteration, self.probing, 0]
        self.spans.append(span)
        self._parent = index
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._parent = span[3]
        span[6] = items(result) if callable(items) else items
        return result

    @contextlib.contextmanager
    def iteration(self, i):
        self._iteration = i
        index = len(self.spans)
        span = ["iteration", 0, 0, self._parent, i, False, 1]
        self.spans.append(span)
        self._parent = index
        for counter in self.counters:
            counter.install()
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._parent = span[3]
            for counter in self.counters:
                counter.remove()

    def self_times(self):
        """Per span: duration minus the part its child spans cover, in ns."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self, probe: bool):
        """name -> [calls, self_ns, items] over workload spans or over probe spans."""
        out: dict[str, list] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s[5] != probe or s[0] == "iteration":
                continue
            row = out.setdefault(s[0], [0, 0, 0])
            row[0] += 1
            row[1] += own
            row[2] += s[6]
        return out

    def write(self, path: Path) -> None:
        """Columnar JSON: names are indexed once, times are ns from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[1] for s in self.spans), default=0)
        doc = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "iteration", "probe", "items"],
            "spans": [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4], int(s[5]), s[6]]
                      for s in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


class CallCounter:
    """Counts calls to a module's public functions, from any caller, while installed.

    Works because memcav's layers call each other through module
    attributes (``qnd.jump_budget(p)``), which ``install`` swaps for
    counting wrappers and ``remove`` restores.
    """

    def __init__(self, module):
        self.module = module
        self.calls = 0
        self.originals = {
            name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")
        }
        self.wrapped = {name: self._wrap(fn) for name, fn in self.originals.items()}

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for name, fn in self.wrapped.items():
            setattr(self.module, name, fn)

    def remove(self) -> None:
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)
