"""In-memory span recording for the traced benchmark run.

A span covers one call: a pass over the workload, one item, or one call
into a layer's public function. Spans are kept in a list and written out
once, when the run ends. Spans are recorded by the benchmark around its
own calls; nothing inside the package is patched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Records nothing and calls straight through; used when not tracing."""

    @contextmanager
    def span(self, name, item=None):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records nested spans; the parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name, item=None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        record = Span(len(self.spans), name, self._clock(), 0.0, parent, item)
        self.spans.append(record)
        self._open.append(record.span_id)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self._clock()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span run one after another (the benchmark is a single
    thread), so their covered time is the sum of their durations.
    """
    own = {s.span_id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_self_seconds(spans) -> dict:
    """Layer name (the part before the first dot) -> summed self time."""
    own = self_times(spans)
    totals: dict = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.span_id]
    return totals


def to_json(spans) -> list:
    return [
        {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "item": s.item}
        for s in spans
    ]
