"""In-memory span recorder that wraps package functions from outside.

A wrapper is installed at the module attribute where the caller looks the
function up (``octoplan.bench.build_tree``, ``octoplan.planner.jps_plan``,
...), records one span per call and is removed again by ``restore``. Spans
carry a name, start, end, the index of the enclosing span and optional work
counters. Nothing is written until the run ends.

Counters are computed after the wrapped call returns. That bookkeeping is
recorded as a child span of the caller, so it never counts as any layer's
self time; it still shows in the traced run's wall time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from refclock import now

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes, records spans while they are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.calls: dict[str, int] = {}

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a recording wrapper.

        count(result, args, kwargs) returns a dict of work counters for
        the call, or None.
        """
        original = getattr(module, attr)
        tracer = self
        key = f"{module.__name__}.{attr}"
        self.calls[key] = 0

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            parent = tracer._open[-1] if tracer._open else None
            index = len(tracer.spans)
            span = Span(name, parent)
            tracer.spans.append(span)
            tracer._open.append(index)
            span.start = now()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.end = now()
                span.error = True
                tracer._open.pop()
                raise
            span.end = now()
            tracer._open.pop()
            if count is not None:
                book = Span(BOOKKEEPING, parent, start=now())
                span.counters = count(result, args, kwargs) or {}
                book.end = now()
                tracer.spans.append(book)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        """Put every original function back, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Calls run on one thread, so children never overlap and their
        durations add up.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]
