"""Small pure helpers: percentiles, HH onset matching, metric names."""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name)) and len(name) <= 64


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_samples(count: int, q: float) -> int:
    """Samples strictly beyond the ``q``-th percentile of ``count``."""
    return math.floor(count * (100.0 - q) / 100.0 + 1e-9)


def percentile_supported(count: int, q: float) -> bool:
    """The ``q``-th percentile may be reported only when at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    return tail_samples(count, q) >= MIN_TAIL_SAMPLES


@dataclass(frozen=True)
class Onset:
    """A port turning heavy at a churn draw."""

    time: float
    switch: int
    port: int
    #: The port already carried the HH seed's rate-limit rule.
    mitigated: bool
    #: The next churn draw: the onset must be reported before it.
    deadline: float


@dataclass
class OnsetMatch:
    latencies: List[float]
    missed: List[Onset]
    mitigated: int


def match_onsets(onsets: Iterable[Onset],
                 detections: Iterable[Tuple[float, int, int]]
                 ) -> OnsetMatch:
    """Pair each HH onset with the first report of its (switch, port).

    ``detections`` are harvester ``(time, switch, port)`` reports.  The
    latency is the time from the onset to the first report at or after
    it; an onset with no report by its deadline is missed.  Onsets on
    mitigated ports are counted but not matched: the rate limit keeps
    the port below the threshold, so no report is due.
    """
    by_key: Dict[Tuple[int, int], List[float]] = {}
    for time, switch, port in detections:
        by_key.setdefault((switch, port), []).append(time)
    for times in by_key.values():
        times.sort()
    result = OnsetMatch(latencies=[], missed=[], mitigated=0)
    for onset in onsets:
        if onset.mitigated:
            result.mitigated += 1
            continue
        times = by_key.get((onset.switch, onset.port), [])
        i = bisect.bisect_left(times, onset.time)
        if i < len(times) and times[i] <= onset.deadline:
            result.latencies.append(times[i] - onset.time)
        else:
            result.missed.append(onset)
    return result
