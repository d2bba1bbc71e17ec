"""Tests for the benchmark's own helpers (no simulator needed).

Run:  python3 -m pytest perfbench/tests -q
"""

import json
import statistics
from pathlib import Path

import pytest

import run
from spans import SpanRecorder, covered_ns, self_times, summarize
from stats import (
    Onset,
    match_onsets,
    percentile,
    percentile_supported,
    tail_samples,
    valid_metric_name,
)

# -- self time -------------------------------------------------------------

NESTED = [
    ("a:root", 0, 100, -1),
    ("b:child", 10, 40, 0),
    ("c:grandchild", 20, 30, 1),
    ("b:child", 50, 90, 0),
    ("a:root", 200, 250, -1),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == [30, 20, 10, 40, 50]


def test_summary_totals_per_span_name():
    summary = summarize(NESTED)
    assert summary["b:child"]["calls"] == 2
    assert summary["b:child"]["total_s"] == pytest.approx(70e-9)
    assert summary["b:child"]["self_s"] == pytest.approx(60e-9)
    assert summary["a:root"]["self_s"] == pytest.approx(80e-9)
    # Self times partition the root spans exactly.
    assert sum(entry["self_s"] for entry in summary.values()) == \
        pytest.approx(150e-9)


def test_covered_counts_root_spans_clipped_to_the_phase():
    assert covered_ns(NESTED, 0, 300) == 150
    assert covered_ns(NESTED, 90, 220) == 30


def test_recorder_nests_real_calls():
    rec = SpanRecorder()
    inner = rec.wrap("x:inner", lambda: None)
    outer = rec.wrap("y:outer", lambda: [inner(), inner()])
    outer()
    spans = rec.spans()
    assert [(name, parent) for name, _s, _e, parent in spans] == [
        ("y:outer", -1), ("x:inner", 0), ("x:inner", 0)]
    own = self_times(spans)
    assert sum(own) == spans[0][2] - spans[0][1]
    assert all(value >= 0 for value in own)


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.wrap("x:boom", boom)()
    rec.wrap("x:after", lambda: None)()
    assert [parent for *_rest, parent in rec.spans()] == [-1, -1]
    assert rec.ends[0] >= rec.starts[0]


# -- percentiles -----------------------------------------------------------

@pytest.mark.parametrize("count,q,ok", [
    (100, 90, True), (99, 90, False), (20, 50, True), (19, 50, False),
    (1000, 99, True), (999, 99, False)])
def test_percentile_needs_ten_samples_beyond_it(count, q, ok):
    assert percentile_supported(count, q) is ok


def test_tail_samples_counts_samples_beyond():
    assert tail_samples(100, 90) == 10
    assert tail_samples(155, 90) == 15


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 90) == pytest.approx(cuts[8])
    assert percentile(values, 50) == statistics.median(values)
    assert percentile([4.0], 90) == 4.0


# -- HH onsets vs detections -----------------------------------------------

def test_onset_matches_first_report_at_or_after_it():
    onsets = [Onset(1.0, 3, 7, False, 2.0)]
    detections = [(0.5, 3, 7), (1.25, 3, 7), (1.5, 3, 7), (1.1, 4, 7)]
    match = match_onsets(onsets, detections)
    assert match.latencies == [pytest.approx(0.25)]
    assert match.missed == [] and match.mitigated == 0


def test_report_after_deadline_or_elsewhere_is_missed():
    late = Onset(1.0, 3, 7, False, 2.0)
    other_port = Onset(1.0, 3, 8, False, 2.0)
    match = match_onsets([late, other_port], [(2.5, 3, 7), (1.2, 4, 8)])
    assert match.latencies == []
    assert match.missed == [late, other_port]


def test_mitigated_onsets_are_excluded():
    onsets = [Onset(1.0, 3, 7, True, 2.0), Onset(1.0, 3, 9, False, 2.0)]
    match = match_onsets(onsets, [(1.1, 3, 9)])
    assert match.mitigated == 1
    assert match.latencies == [pytest.approx(0.1)]
    assert match.missed == []


# -- metric names ----------------------------------------------------------

@pytest.mark.parametrize("name,ok", [
    ("setup_s", True), ("soil.poll_cache_hit_ratio", True),
    ("op-p90", True), ("a b", False), ("mu%", False), ("", False),
    ("x" * 65, False)])
def test_metric_name_pattern(name, ok):
    assert valid_metric_name(name) is ok


def test_reported_names_are_valid_and_match_benchmark_json():
    spec = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m for m, _unit in run.END_TO_END + run.PER_LAYER]
    assert all(valid_metric_name(m) for m in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)
