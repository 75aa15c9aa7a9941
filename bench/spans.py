"""In-memory spans and the self-time and overlap arithmetic over them.

A span records a name, a start, an end and the span that caused it. Spans
opened on a thread with nothing open (a worker of the sweep's thread pool)
are parented to the innermost span open on the client thread at that moment,
so a sweep's worker-thread `verify` spans become children of the `sweep`
span. Self time is a span's duration minus the union of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: "Span | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; create it on the client thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._client_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client else None
        span = Span(name, time.perf_counter(), parent=parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    children = children_of(spans)
    return {
        id(span): span.duration - union_length(
            [(c.start, c.end) for c in children[id(span)]], span.start, span.end)
        for span in spans
    }


def overlap(parents: list[Span], child_name: str, spans: list[Span]) -> float:
    """Sum of the named children's durations over the sum of the parents'.

    Above 1 when children ran concurrently; 0 when there are no parents."""
    children = children_of(spans)
    busy = sum(p.duration for p in parents)
    inner = sum(c.duration for p in parents for c in children[id(p)] if c.name == child_name)
    return inner / busy if busy > 0 else 0.0
