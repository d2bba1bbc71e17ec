"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's entry point: its name (``layer:entry``),
host start and end in ``perf_counter_ns`` units, and the index of the span
that was open when it started (``-1`` for a root).  The program is single
threaded, so spans nest strictly and a stack is enough to find parents.
Spans stay in memory until :meth:`SpanRecorder.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Tuple

_now_ns = time.perf_counter_ns


class SpanRecorder:
    """Records nested spans into parallel lists (cheap to append)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(_now_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = _now_ns()
                stack.pop()

        return traced

    def spans(self) -> List[Tuple[str, int, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def dump(self, path: str) -> None:
        """Write every span as JSON: a name table plus
        ``[name_index, start_ns, end_ns, parent]`` rows."""
        table: Dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans():
            rows.append([table.setdefault(name, len(table)), start, end,
                         parent])
        with open(path, "w") as out:
            json.dump({"names": list(table), "spans": rows}, out,
                      separators=(",", ":"))


def self_times(spans: List[Tuple[str, int, int, int]]) -> List[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread, strict nesting), so
    subtracting their durations removes exactly the time they cover.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for duration, (_name, _start, _end, parent) in zip(list(own), spans):
        if parent >= 0:
            own[parent] -= duration
    return own


def summarize(spans: List[Tuple[str, int, int, int]]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += own / 1e9
    return out


def covered_ns(spans: List[Tuple[str, int, int, int]], start: int,
               end: int) -> int:
    """Host time inside ``[start, end]`` covered by root spans."""
    total = 0
    for _name, s, e, parent in spans:
        if parent < 0 and e > start and s < end:
            total += min(e, end) - max(s, start)
    return total
