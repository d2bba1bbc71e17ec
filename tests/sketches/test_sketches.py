"""Sketch tests: accuracy guarantees as property tests + Almanac bridge."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FarmError
from repro.sketches import (
    CountMinSketch,
    HyperLogLog,
    SlidingWindowCounter,
    install_sketch_builtins,
)


class TestCountMin:
    def test_never_underestimates(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        truth = {}
        for index in range(500):
            key = f"flow{index % 50}"
            sketch.update(key, index % 7 + 1)
            truth[key] = truth.get(key, 0) + index % 7 + 1
        for key, count in truth.items():
            assert sketch.query(key) >= count

    def test_error_bound_mostly_holds(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        truth = {}
        for index in range(2000):
            key = index % 100
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        bound = sketch.error_bound()
        violations = sum(1 for key, count in truth.items()
                         if sketch.query(key) > count + bound)
        assert violations <= max(1, int(0.05 * len(truth)))

    def test_heavy_keys_no_false_negatives(self):
        sketch = CountMinSketch(epsilon=0.001, delta=0.01)
        for _ in range(1000):
            sketch.update("elephant", 10)
        for index in range(100):
            sketch.update(f"mouse{index}", 1)
        heavy = sketch.heavy_keys(["elephant"] +
                                  [f"mouse{i}" for i in range(100)],
                                  threshold=5000)
        assert "elephant" in heavy

    def test_merge(self):
        a = CountMinSketch(epsilon=0.01, delta=0.01, seed=3)
        b = CountMinSketch(epsilon=0.01, delta=0.01, seed=3)
        a.update("x", 5)
        b.update("x", 7)
        a.merge(b)
        assert a.query("x") >= 12
        assert a.total == 12

    def test_merge_shape_mismatch_rejected(self):
        a = CountMinSketch(epsilon=0.01)
        b = CountMinSketch(epsilon=0.1)
        with pytest.raises(FarmError):
            a.merge(b)

    def test_clear_and_memory(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        sketch.update("x", 3)
        sketch.clear()
        assert sketch.query("x") == 0
        assert sketch.memory_cells == sketch.width * sketch.depth

    def test_negative_update_rejected(self):
        with pytest.raises(FarmError):
            CountMinSketch().update("x", -1)

    def test_bad_parameters(self):
        with pytest.raises(FarmError):
            CountMinSketch(epsilon=0)
        with pytest.raises(FarmError):
            CountMinSketch(delta=1.5)

    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.integers(1, 100)), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_one_sided_error_property(self, updates):
        sketch = CountMinSketch(epsilon=0.05, delta=0.05)
        truth = {}
        for key, amount in updates:
            sketch.update(key, amount)
            truth[key] = truth.get(key, 0) + amount
        for key, count in truth.items():
            estimate = sketch.query(key)
            assert estimate >= count
            assert estimate <= sketch.total


class TestHyperLogLog:
    def test_estimate_within_error(self):
        hll = HyperLogLog(precision=12)
        true_count = 10_000
        for index in range(true_count):
            hll.add(("src", index))
        error = abs(hll.count() - true_count) / true_count
        assert error < 4 * hll.standard_error()

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=10)
        for _ in range(1000):
            hll.add("same-value")
        assert hll.count() == pytest.approx(1.0, abs=0.5)

    def test_small_range_linear_counting(self):
        hll = HyperLogLog(precision=10)
        for index in range(20):
            hll.add(index)
        assert abs(hll.count() - 20) <= 2

    def test_merge_is_union(self):
        a = HyperLogLog(precision=12)
        b = HyperLogLog(precision=12)
        for index in range(3000):
            a.add(("a", index))
        for index in range(3000):
            b.add(("b", index))
        a.merge(b)
        assert a.count() == pytest.approx(6000, rel=0.1)

    def test_merge_precision_mismatch_rejected(self):
        with pytest.raises(FarmError):
            HyperLogLog(10).merge(HyperLogLog(12))

    def test_clear(self):
        hll = HyperLogLog(precision=8)
        hll.add("x")
        hll.clear()
        assert hll.count() == 0.0

    def test_bad_precision(self):
        with pytest.raises(FarmError):
            HyperLogLog(precision=2)

    def test_memory_is_register_count(self):
        assert HyperLogLog(precision=10).memory_bytes == 1024

    def test_estimate_independent_of_hash_seed(self):
        """String and tuple hashing is salted per process; the estimate
        must not be."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "from repro.sketches import HyperLogLog\n"
            "hll = HyperLogLog(precision=12)\n"
            "for index in range(10_000):\n"
            "    hll.add(('src', index))\n"
            "    hll.add(f'host-{index % 5000}')\n"
            "print(repr(hll.count()))\n")
        counts = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(src)}
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            counts.append(out.stdout.strip())
        assert counts[0] == counts[1]
        assert abs(float(counts[0]) - 15_000) / 15_000 < 0.07


class TestSlidingWindow:
    def test_window_expiry(self):
        counter = SlidingWindowCounter(window_s=1.0, num_buckets=10)
        counter.add(100, now=0.0)
        assert counter.total(now=0.5) == 100
        assert counter.total(now=2.0) == 0

    def test_rate(self):
        counter = SlidingWindowCounter(window_s=2.0, num_buckets=10)
        counter.add(100, now=0.0)
        counter.add(100, now=1.0)
        assert counter.rate(now=1.5) == pytest.approx(100.0)

    def test_bucket_merge_within_bucket(self):
        counter = SlidingWindowCounter(window_s=1.0, num_buckets=10)
        counter.add(5, now=0.01)
        counter.add(5, now=0.02)
        assert counter.total(now=0.05) == 10
        assert counter.memory_cells == 10

    def test_time_must_be_non_decreasing(self):
        counter = SlidingWindowCounter(window_s=1.0)
        counter.add(1, now=5.0)
        with pytest.raises(FarmError):
            counter.add(1, now=1.0)

    def test_bad_parameters(self):
        with pytest.raises(FarmError):
            SlidingWindowCounter(window_s=0)
        with pytest.raises(FarmError):
            SlidingWindowCounter(window_s=1.0, num_buckets=0)

    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(1, 10)),
                    max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_total_never_exceeds_all_time_sum(self, events):
        counter = SlidingWindowCounter(window_s=5.0, num_buckets=10)
        events = sorted(events)
        total = 0
        for now, value in events:
            counter.add(value, now=now)
            total += value
        final = events[-1][0] if events else 0.0
        assert counter.total(now=final) <= total + 1e-9


class TestAlmanacIntegration:
    def test_sketch_seed_end_to_end(self):
        """A Count-Min HH seed detects an elephant flow via probing."""
        from repro.core.comm import ControlBus
        from repro.core.soil import Soil
        from repro.almanac.parser import parse
        from repro.almanac.xmlcodec import encode_program
        from repro.net.addresses import parse_ip
        from repro.net.packet import PROTO_TCP, Flow, FlowKey
        from repro.sim.engine import Simulator
        from repro.switchsim.chassis import Switch
        from repro.switchsim.stratum import driver_for

        source = """
machine SketchHH {
  place all;
  probe pkts = Probe { .ival = 0.01, .what = port ANY };
  external long threshold;
  list cms;
  list reported;
  state watching {
    when (enter) do { cms = cmSketch(0.01, 0.01); }
    when (pkts as samples) do {
      int i = 0;
      while (i < size(samples)) {
        packet p = get(samples, i);
        cmUpdate(cms, p.src_ip, p.size);
        if (cmQuery(cms, p.src_ip) >= threshold
            and not contains(reported, p.src_ip)) then {
          append(reported, p.src_ip);
          send ipstr(p.src_ip) to harvester;
        }
        i = i + 1;
      }
    }
  }
}
"""
        sim = Simulator()
        switch = Switch(sim, 1)
        bus = ControlBus(sim)
        soil = Soil(sim, switch, driver_for(switch), bus)
        install_sketch_builtins(soil)
        received = []
        bus.register("harvester/t",
                     lambda m: received.append(m.payload["value"]))
        elephant = FlowKey(parse_ip("10.9.9.9"), parse_ip("10.1.0.1"),
                           1, 80, PROTO_TCP)
        switch.asic.attach_flow(Flow(elephant, 1e8, packet_size=1400), 0, 1)
        mouse = FlowKey(parse_ip("10.3.3.3"), parse_ip("10.1.0.1"),
                        2, 80, PROTO_TCP)
        switch.asic.attach_flow(Flow(mouse, 1e3, packet_size=100), 0, 2)
        program = parse(source)
        soil.deploy(seed_id="s", task_id="t",
                    program_xml=encode_program(program),
                    machine_name="SketchHH",
                    externals={"threshold": 5000},
                    allocation={"vCPU": 0.1, "RAM": 16, "TCAM": 2,
                                "PCIe": 100})
        sim.run(until=0.5)
        assert "10.9.9.9" in received
        assert "10.3.3.3" not in received

    def test_typechecker_accepts_sketch_builtins(self):
        from repro.almanac.parser import parse
        from repro.almanac.typecheck import check_program
        program = parse("""
machine S { place all;
  list h;
  state s { when (enter) do { h = hllSketch(10); hllAdd(h, 1); } } }""")
        assert check_program(program) == []
