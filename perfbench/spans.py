"""In-memory spans, self time, tail percentiles and operation accounting.

Pure Python with no dependency on the package under test, so the
arithmetic here is checked by ``test_perfbench.py`` in isolation.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

MIN_BEYOND = 10  # a tail percentile needs at least this many samples past it


class Span:
    """One timed call: name, start, end, parent span id and run id, plus
    counts recorded where the work happened."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, span_id, name, start, parent, run_id):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
            "attrs": self.attrs,
        }


class Recorder:
    """A stack of open spans for one single-threaded run.

    Closing a span also closes any span opened inside it that is still
    open (an exception skipped its close), at the same instant.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        if span.end is not None:
            return
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not open")

    @contextmanager
    def span(self, name: str):
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def innermost(self, name: str) -> Span | None:
        """The most recently opened span of this name that is still open."""
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class SpanIndex:
    """Parent/child lookups and self time over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the durations of its children.  Children of one
        span on the single-threaded stack never overlap."""
        return span.duration - sum(k.duration for k in self.children.get(span.span_id, []))

    def descendants(self, span: Span):
        stack = list(self.children.get(span.span_id, []))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children.get(node.span_id, []))

    def per_ancestor(self, ancestor: str, name: str, self_only: bool = False) -> list[float]:
        """For every span called ``ancestor``, the summed (self) time of
        its descendants called ``name``; one value per ancestor span."""
        values = []
        for top in self.named(ancestor):
            values.append(sum(
                self.self_time(d) if self_only else d.duration
                for d in self.descendants(top)
                if d.name == name
            ))
        return values


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail_percentile(values, pct: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank percentile, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def highest_reportable_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int | None:
    """The highest whole percentile with ``min_beyond`` samples past it."""
    for pct in range(99, 49, -1):
        if n - max(1, math.ceil(pct / 100.0 * n)) >= min_beyond:
            return pct
    return None


class Ledger:
    """Operations attempted and completed, by kind.

    An operation is planned before it starts and completed only after it
    returned and passed its checks; whatever was planned and never
    completed counts as failed, so an exception that ends a run fails
    every operation it did not complete.
    """

    def __init__(self):
        self.attempted: Counter = Counter()
        self.completed: Counter = Counter()
        self.problems: list[str] = []

    def plan(self, kind: str, n: int) -> None:
        self.attempted[kind] += n

    def complete(self, kind: str, n: int) -> None:
        self.completed[kind] += n
        if self.completed[kind] > self.attempted[kind]:
            raise ValueError(f"more {kind} completed than attempted")

    def problem(self, message: str) -> None:
        self.problems.append(message)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.attempted[k] - self.completed[k] for k in self.attempted)

    @property
    def failed_frac(self) -> float:
        total = self.total_attempted
        return self.total_failed / total if total else 0.0

    @property
    def correct(self) -> bool:
        return self.total_attempted > 0 and self.total_failed == 0 and not self.problems

    def summary(self) -> dict:
        return {
            kind: {"attempted": self.attempted[kind], "failed": self.attempted[kind] - self.completed[kind]}
            for kind in sorted(self.attempted)
        }
