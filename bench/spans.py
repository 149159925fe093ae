"""In-memory span recorder and self-time arithmetic for the traced run.

A span is (name, start, end, parent, run_id), where ``parent`` is the
index of the enclosing span in the same recorder or ``None``.  Spans are
kept in a list while the program runs and written out once at the end.
A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class SpanRecorder:
    """Wraps callables so each call records one span; also holds counters.

    Single-threaded: the enclosing span is the top of a call stack.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Optional[Span]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording a span per call.

        ``on_return(recorder, args, kwargs, result)`` runs after the span
        closes, inside the caller's span, to update counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.run_id)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller, under the current parent."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.run_id))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON; call once no span is open."""
        payload = {
            "run_id": self.run_id,
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load(path: Path) -> tuple[list[Span], dict[str, float]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span(*row) for row in payload["spans"]], payload["counters"]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and total self time."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
    return dict(out)
