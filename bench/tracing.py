"""Spans and exact counters recorded from the benchmark's side of each
layer boundary.

A span is (name, start, end, parent, request id).  Spans live in memory
for one pass; self time is a span's duration minus the part of it that
its child spans cover.  With tracing off, `span` returns a shared no-op
context manager, so untraced passes pay one attribute lookup per call.
"""

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    rid: int         # request id, -1 outside any request


class Tracer:
    """Collects spans (when enabled) and exact counts (always)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.rid = -1

    def span(self, name):
        if not self.enabled:
            return _NULL
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.rid))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name, n=1):
        self.counts[name] += n


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals (children of one parent never overlap in a
    single-threaded run, so the union is their sum clipped to the
    parent)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            covered[s.parent] += min(s.end, p.end) - max(s.start, p.start)
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def busy_by_name(spans):
    """Total self time per span name."""
    out = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s.name] += t
    return out
