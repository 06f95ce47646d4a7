"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and operation id.  Spans
stay in a list until the run ends and are then written out in one go.  A
span's self time is its duration minus the part of that interval its
children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    wrapped: bool = False  # work the untraced call performs too

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, wrapped: bool = False) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), 0.0, parent, self.op, wrapped)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., T], *args, wrapped: bool = False, **kwargs) -> T:
        with self.span(name, wrapped):
            return fn(*args, **kwargs)

    def op_spans(self, op: int) -> list[Span]:
        """One operation's spans, with parents re-indexed into the returned list."""
        picked = [i for i, s in enumerate(self.spans) if s.op == op]
        local = {g: k for k, g in enumerate(picked)}
        out = []
        for g in picked:
            s = self.spans[g]
            parent = local.get(s.parent) if s.parent is not None else None
            out.append(Span(s.name, s.start, s.end, parent, s.op, s.wrapped))
        return out

    def dump(self, path: Path, meta: dict) -> None:
        rows = [asdict(s) for s in self.spans]
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n", encoding="utf-8")


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span, its duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent never makes a self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(i, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out.append(s.duration - covered(clipped))
    return out


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def coverage(spans: Sequence[Span]) -> float:
    """Share of the root span's time that its child spans cover."""
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    if len(roots) != 1:
        raise ValueError("an operation's spans need exactly one root")
    root = spans[roots[0]]
    if root.duration <= 0:
        return 0.0
    return 1.0 - self_times(spans)[roots[0]] / root.duration
