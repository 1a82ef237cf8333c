"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    input_id: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the span open when another opens is its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, input_id: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, input_id, parent, perf_counter()))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def dump(self, path) -> None:
        rows = [dict(asdict(s), id=i) for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
