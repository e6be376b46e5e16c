"""In-memory spans and counters recorded around calls into fibmachine.

A span has a name, a start, an end and the span that was open when it began.
Spans stay in memory until the run ends; `aggregate` folds them into calls,
total time and self time per name, where self time is a span's duration minus
the time its direct children cover.  Everything is single-threaded, so the
open-span stack is the parent chain.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # (name, parent index or -1, start, end); end is None while open
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; the span closes on raise too."""
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def aggregate(self) -> dict[str, dict[str, float]]:
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), covered in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return table

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr._stack[-1], perf_counter(), None])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][3] = perf_counter()
        tr._stack.pop()


class NullTracer:
    """Same interface with no recording, for the untraced passes."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1) -> None:
        pass


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()
