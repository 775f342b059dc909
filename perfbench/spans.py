"""In-memory spans recorded around calls into the program's layers.

Spans are kept in a list while the traced pass runs and written out once at
the end.  Nothing here reaches into the program: layers are timed from
outside, by wrapping the public functions and methods the benchmark calls
(or the program calls on its behalf) for the duration of one traced pass.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

NO_PARENT = -1
PERCENTILE_TAIL = 10
"""A percentile is flagged when fewer samples than this lie beyond it."""


class SpanRecorder:
    """Spans as ``[name, start, end, parent, cycles]``; ``parent`` indexes
    the enclosing span (``NO_PARENT`` for none).  ``cycles`` is the simulated
    cost an allocator call returned, 0 for every other span."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        record = [name, perf_counter(), 0.0, parent, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    # -- wrappers -------------------------------------------------------------
    def timed_call(self, fn, record_of):
        """``fn`` wrapped so each call becomes a leaf span named after the
        ``CallRecord.path`` it returned.  ``record_of`` picks the record out
        of ``fn``'s result (``malloc`` returns ``(ptr, record)``)."""
        spans, stack = self.spans, self._stack

        def call(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            record = record_of(out)
            spans.append(["alloc." + record.path.value, t0, t1, stack[-1], record.cycles])
            return out

        return call

    def timed_leaf(self, fn, name: str):
        """``fn`` wrapped so each call becomes a leaf span ``name``."""
        spans, stack = self.spans, self._stack

        def call(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            spans.append([name, t0, perf_counter(), stack[-1] if stack else NO_PARENT, 0])
            return out

        return call

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent", "sim_cycles"],
                 "spans": self.spans},
                fh,
            )


class NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


@contextmanager
def patched(owner, attr: str, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` for the ``with`` block.
    ``owner`` is a class, a module or an instance (whose own attribute then
    shadows the class method until the block ends)."""
    own = vars(owner)
    had_own = attr in own
    original = own[attr] if had_own else getattr(owner, attr)
    setattr(owner, attr, wrap(getattr(owner, attr)))
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, minus the time covered by each span's children."""
    children = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - children[index]
    return dict(out)


def total_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return dict(out)


def samples_beyond(n: int, q: float) -> int:
    """Samples lying beyond the nearest-rank q-quantile of ``n`` samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def nearest_rank(sorted_values, q: float):
    """The q-quantile as the ceil(q*n)-th smallest value (0 for no data),
    and how many samples lie beyond it."""
    n = len(sorted_values)
    if not n:
        return 0.0, 0
    beyond = samples_beyond(n, q)
    return sorted_values[n - beyond - 1], beyond


def alloc_path_stats(spans, paths) -> dict[str, dict]:
    """Per allocator path: calls, host seconds, host-time p50/p99 (us) and
    exact simulated cycles."""
    durations: dict[str, list[float]] = {p: [] for p in paths}
    cycles = dict.fromkeys(paths, 0)
    for name, start, end, _, sim in spans:
        if name.startswith("alloc."):
            path = name[6:]
            durations[path].append(end - start)
            cycles[path] += sim
    out = {}
    for path in paths:
        values = sorted(durations[path])
        out[path] = {
            "calls": len(values),
            "s": sum(values),
            "us_p50": nearest_rank(values, 0.50)[0] * 1e6,
            "us_p99": nearest_rank(values, 0.99)[0] * 1e6,
            "sim_cycles": cycles[path],
        }
    return out
