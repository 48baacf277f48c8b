"""Span recorder for the benchmark's traced run (standard library only).

Spans are kept in memory and written once, when the traced job ends. Each
records its name, start, end, parent and the process's RSS high-water mark
at its end; self time is computed afterwards from the spans.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "rss_hwm_kb": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()
            record["rss_hwm_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def wrap(self, fn: Callable, name: str, eager: bool = False) -> Callable:
        """``fn`` inside a span; ``eager`` drains a returned iterator inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                return iter(list(result)) if eager else result

        return traced

    def dump(self, path: str, **extra: object) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, **extra}, f)


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, last RSS high-water (KiB).

    Self time is a span's duration less its children's; spans of one thread
    never overlap, so the children's durations do not double count.
    """
    in_children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            in_children[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        total = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_hwm_kb": 0})
        row["calls"] += 1
        row["total_s"] += total
        row["self_s"] += total - in_children[i]
        row["rss_hwm_kb"] = s["rss_hwm_kb"]
    return out


def coverage(spans: list[dict], root: int = 0) -> float:
    """Share of the root span's wall time spent inside its named child spans."""
    wall = spans[root]["end"] - spans[root]["start"]
    inside = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    return inside / wall if wall > 0 else 0.0
