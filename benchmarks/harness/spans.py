"""Spans recorded by the harness around its calls into each layer.

The product has no span API yet (ROADMAP, observability item), so every
span here is taken from outside: the harness wraps the public call it
makes.  A span is ``(name, start, end, parent, trace id)``; spans of one
build, one round or one request share a trace id.  Spans stay in memory
and are written once, at exit.  ``timed`` always measures -- the
end-to-end numbers need the durations too -- and *records* only when
tracing is on, so the untraced run pays for a clock read, not a list.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "index")

    def __init__(self, name: str, parent: Optional[int], trace_id: str):
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.trace_id = trace_id
        self.index: Optional[int] = None   # position once recorded

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def timed(self, name: str, trace_id: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, trace_id)
        if self.enabled:
            if not trace_id and parent is not None:
                span.trace_id = self.spans[parent].trace_id
            span.index = len(self.spans)
            self.spans.append(span)
            self._stack.append(span.index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def add(
        self, name: str, start: float, end: float, trace_id: str,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """Record a span measured elsewhere (a request's due -> done,
        or a child process's step) -- no-op when tracing is off."""
        if not self.enabled:
            return None
        span = Span(name, parent, trace_id)
        span.start, span.end = start, end
        span.index = len(self.spans)
        self.spans.append(span)
        return span.index

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        totals: Dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            totals[span.name] = (
                totals.get(span.name, 0.0)
                + max(0.0, span.seconds - child_time)
            )
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "trace": span.trace_id,
                }) + "\n")
