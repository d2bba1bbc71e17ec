"""The three benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs (timed as
``setup_s`` by the runner) and an ``execute(state, validate, cold_only)``
that runs the timed phases, or only the first, and returns a :class:`Rep`:

* ``cold_s``  — the phase users pay once per run before results flow:
  deploy until every seed runs, or the cold full placement solve;
* ``run_s``   — the steady phase: simulate the fixed horizon, or apply and
  re-solve the whole delta sequence;
* ``ops``     — per-operation host times inside one of those phases, for
  the latency percentiles.

Sim outputs that must not change with tracing or hash seeds go into
``fingerprint``; everything in it is compared exactly.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from stats import Onset, match_onsets, percentile, percentile_supported

from repro.almanac.parser import parse
from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.almanac.xmlcodec import encode_program
from repro.core.comm import ControlBus
from repro.core.deployment import FarmDeployment
from repro.core.soil import Soil
from repro.net.topology import spine_leaf
from repro.obs.metrics import MetricsRegistry
from repro.net.traffic import (
    HeavyHitterWorkload,
    PortScanWorkload,
    SynFloodWorkload,
)
from repro.placement.heuristic import solve_heuristic
from repro.placement.incremental import (
    ChurnDelta,
    apply_delta,
    solve_incremental,
)
from repro.placement.instances import generate_problem
from repro.placement.model import PollDemand, SeedSpec, TaskSpec, \
    validate_solution
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for
from repro.switchsim.tcam import RuleAction
from repro.tasks import (
    make_entropy_task,
    make_heavy_hitter_task,
    make_port_scan_task,
    make_syn_flood_task,
    make_traffic_change_task,
)

_clock = time.perf_counter


@dataclass
class Rep:
    """One repetition of a workload."""

    cold_s: float = 0.0
    run_s: float = 0.0
    ops: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output checks that failed (empty when the outputs are correct).
    errors: List[str] = field(default_factory=list)
    #: Sim outputs and layer counts; identical run to run.
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    #: Host-time phase boundaries (perf_counter_ns) for the trace.
    phases: List[Tuple[str, int, int]] = field(default_factory=list)


def _registry_counts(registry) -> Dict[str, float]:
    """Layer counts read from the public metrics registry."""
    total = registry.sum_values
    polls = total("farm_soil_polls_total")
    hits = total("farm_soil_poll_cache_hits_total")
    events = total("farm_soil_events_total")
    return {
        "soil.deploys": total("farm_soil_deploys_total"),
        "soil.events": events,
        "soil.polls": polls,
        "soil.poll_cache_hit_ratio": hits / (hits + polls)
        if hits + polls else 0.0,
        "soil.batched_polls": total("farm_soil_batched_polls_total"),
        "almanac.vector_share": total("farm_soil_vectorized_events_total")
        / events if events else 0.0,
        "bus.messages": total("farm_bus_messages_total"),
        "bus.bytes": total("farm_bus_bytes_total"),
        "bus.dead_letters": total("farm_reliable_dead_letters_total"),
        "switchsim.tcam_rules": total("farm_tcam_rules"),
        "switchsim.pcie_bytes": total("farm_pcie_bytes_total"),
        "soil.seed_crashes": total("farm_soil_seed_crashes_total"),
    }


def _mean_cpu_pct(switches) -> float:
    loads = [switch.cpu.mean_load_percent() for switch in switches]
    return statistics.fmean(loads)


def _phase(rep: Rep, name: str, start_ns: int) -> None:
    rep.phases.append((name, start_ns, time.perf_counter_ns()))


# ---------------------------------------------------------------------------
# fleet_portfolio: the user path end to end
# ---------------------------------------------------------------------------

def _rate_limited_ports(asic) -> set:
    ports = set()
    for rule in asic.tcam.rules():
        if rule.action is RuleAction.RATE_LIMIT:
            ports.update(rule.pattern.switch_ports() or ())
    return ports


class _RecordedHeavyHitters(HeavyHitterWorkload):
    """HH traffic that logs every churn draw and the ports it turned
    heavy, with whether each already carried a rate-limit rule."""

    def __init__(self, switch: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.switch = switch
        self.draws: List[Tuple[float, List[Tuple[int, bool]]]] = []

    def _reshuffle(self) -> None:
        before = self.true_heavy_ports()
        super()._reshuffle()
        limited = _rate_limited_ports(self._sink)
        self.draws.append((self._sim.now, [
            (port, port in limited)
            for port in sorted(self.true_heavy_ports() - before)]))

    def onsets(self, after: float) -> List[Onset]:
        """Onsets at draws from ``after`` on that have a next draw."""
        out = []
        for (time_, ports), (deadline, _next) in zip(self.draws,
                                                     self.draws[1:]):
            if time_ < after:
                continue
            for port, mitigated in ports:
                out.append(Onset(time_, self.switch, port, mitigated,
                                 deadline))
        return out


class FleetPortfolio:
    """Five tasks on a 2 x 16 spine-leaf fabric with HH churn everywhere
    and SYN-flood and port-scan traffic on a few leaves."""

    name = "fleet_portfolio"
    SPINES, LEAVES = 2, 16
    HH_PORTS, HH_RATIO, HH_RATE_BPS = 16, 0.125, 100e6
    #: Not a multiple of the 10 ms HH poll period, so onsets fall at
    #: every phase of the poll cycle.
    CHURN_S = 0.0973
    ATTACKED_LEAVES = 2
    SCRAPE_S = 1.0
    HORIZON_S = 1.0
    SLICE_S = 0.01

    def setup(self, seed: int):
        rng = random.Random(seed)
        farm = FarmDeployment(topology=spine_leaf(self.SPINES, self.LEAVES,
                                                  2))
        farm.enable_scarecrow(interval_s=self.SCRAPE_S)
        tasks = [
            make_heavy_hitter_task(threshold=10e6, accuracy_ms=10),
            make_syn_flood_task(syn_threshold=30),
            make_port_scan_task(port_threshold=15),
            make_traffic_change_task(interval_s=0.1),
            make_entropy_task(interval_s=0.02, window_s=0.5),
        ]
        leaves = list(farm.topology.leaf_ids)
        traffic = []
        for leaf in leaves:
            traffic.append(farm.start_workload(_RecordedHeavyHitters(
                leaf, num_ports=self.HH_PORTS, hh_ratio=self.HH_RATIO,
                hh_rate_bps=self.HH_RATE_BPS, churn_interval=self.CHURN_S,
                seed=rng.randrange(2 ** 31)), leaf))
        attacked = rng.sample(leaves, 2 * self.ATTACKED_LEAVES)
        for leaf in attacked[:self.ATTACKED_LEAVES]:
            farm.start_workload(SynFloodWorkload(
                syn_rate_pps=20000, num_sources=64,
                seed=rng.randrange(2 ** 31)), leaf)
        for leaf in attacked[self.ATTACKED_LEAVES:]:
            farm.start_workload(PortScanWorkload(
                num_ports_scanned=40, seed=rng.randrange(2 ** 31)), leaf)
        return farm, tasks, traffic

    def execute(self, state, validate: bool, cold_only: bool) -> Rep:
        farm, tasks, traffic = state
        rep = Rep()
        start = time.perf_counter_ns()
        t0 = _clock()
        for task in tasks:
            farm.submit(task)
        farm.settle()
        rep.cold_s = _clock() - t0
        _phase(rep, "cold", start)

        solution = farm.seeder.last_solution
        placed = solution.placement
        running = sum(1 for seed_id, switch in placed.items()
                      if seed_id in farm.soil(switch).deployments)
        if running != len(placed):
            rep.errors.append(f"{len(placed) - running} of {len(placed)} "
                              f"placed seeds are not running")
        if validate:
            violations = validate_solution(farm.seeder.build_problem(),
                                           solution)
            if violations:
                rep.errors.append(f"portfolio placement: {violations[:3]}")
        if cold_only:
            return rep

        begin = farm.sim.now
        start = time.perf_counter_ns()
        steps = round(self.HORIZON_S / self.SLICE_S)
        for k in range(1, steps + 1):
            t0 = _clock()
            farm.run(until=begin + k * self.SLICE_S)
            rep.ops.append(_clock() - t0)
        rep.run_s = sum(rep.ops)
        _phase(rep, "run", start)

        onsets = [o for wl in traffic for o in wl.onsets(after=begin)]
        match = match_onsets(onsets, tasks[0].harvester.detections)
        counts = _registry_counts(farm.metrics)
        crashes = int(counts.pop("soil.seed_crashes"))
        dead = int(counts["bus.dead_letters"])
        rep.attempted = len(placed) + len(onsets) - match.mitigated
        rep.failed = (len(placed) - running) + dead + crashes \
            + len(match.missed)
        latencies_ms = [1000.0 * x for x in match.latencies]
        if not percentile_supported(len(latencies_ms), 90):
            rep.errors.append(f"detect p90: only {len(latencies_ms)} "
                              f"detected onsets")
        rep.fingerprint = {
            "mu": solution.objective,
            "placed_seeds": len(placed),
            "hh_onsets": len(onsets),
            "hh_mitigated": match.mitigated,
            "hh_missed": len(match.missed),
            "detect_p50_ms": percentile(latencies_ms, 50)
            if latencies_ms else 0.0,
            "detect_p90_ms": percentile(latencies_ms, 90)
            if latencies_ms else 0.0,
            "detect_samples": len(latencies_ms),
            "switch_cpu_pct": _mean_cpu_pct(farm.fleet),
            "sim.events": farm.sim.events_processed,
            "obs.scrapes": farm.metrics.sum_values(
                "scarecrow_scrapes_total"),
            **counts,
        }
        return rep


# ---------------------------------------------------------------------------
# dense_deploy: the dispatch_100k / Fig. 6 shape
# ---------------------------------------------------------------------------

#: An affine poll seed: after n polls, ``acc == n * (n + 1)``.
DENSE_SOURCE = """
machine Dense {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  long acc = 0;
  state run {
    when (pollStats as stats) do {
      polls = polls + 1;
      acc = acc + 2 * polls;
    }
  }
}
"""


class DenseDeploy:
    """100 identical affine poll seeds on each of 100 bare switches,
    deployed straight onto the soils, then a fixed number of poll
    rounds.  The inputs do not depend on the seed."""

    name = "dense_deploy"
    SWITCHES, SEEDS_PER_SWITCH = 100, 100
    POLL_S, ROUNDS = 0.01, 10
    ALLOCATION = {"vCPU": 0.1, "RAM": 64, "TCAM": 8, "PCIe": 100}

    def setup(self, seed: int):
        sim = Simulator()
        # One registry for the switches and the bus, as FarmDeployment
        # wires it, so the switch counters are readable in one place.
        registry = MetricsRegistry(clock=lambda: sim.now)
        bus = ControlBus(sim, registry=registry)
        soils = []
        for index in range(self.SWITCHES):
            switch = Switch(sim, index, registry=registry)
            soils.append(Soil(sim, switch, driver_for(switch), bus))
        return sim, bus, soils

    def execute(self, state, validate: bool, cold_only: bool) -> Rep:
        sim, bus, soils = state
        rep = Rep()
        start = time.perf_counter_ns()
        t0 = _clock()
        xml = encode_program(parse(DENSE_SOURCE))
        for s, soil in enumerate(soils):
            t1 = _clock()
            for i in range(self.SEEDS_PER_SWITCH):
                soil.deploy(seed_id=f"d{s}_{i}", task_id="dense",
                            program_xml=xml, machine_name="Dense",
                            allocation=self.ALLOCATION)
            rep.ops.append(_clock() - t1)
        rep.cold_s = _clock() - t0
        _phase(rep, "cold", start)
        if cold_only:
            return rep

        start = time.perf_counter_ns()
        t0 = _clock()
        # Half a period past the last round: every handler has landed.
        sim.run(until=(self.ROUNDS + 0.5) * self.POLL_S)
        rep.run_s = _clock() - t0
        _phase(rep, "run", start)

        deploys = self.SWITCHES * self.SEEDS_PER_SWITCH
        not_running = 0
        wrong = 0
        acc_total = 0
        for soil in soils:
            for s in range(self.SEEDS_PER_SWITCH):
                deployment = soil.deployments.get(
                    f"d{soil.switch.switch_id}_{s}")
                if deployment is None:
                    not_running += 1
                    continue
                scope = deployment.instance.machine_scope.vars
                polls, acc = scope["polls"], scope["acc"]
                acc_total += acc
                if polls != self.ROUNDS or acc != polls * (polls + 1):
                    wrong += 1
        if not_running:
            rep.errors.append(f"{not_running} of {deploys} deployed seeds "
                              f"are not running")
        if wrong:
            rep.errors.append(f"{wrong} seeds have polls != {self.ROUNDS} "
                              f"or acc != polls * (polls + 1)")
        rep.attempted = deploys
        rep.failed = not_running
        counts = _registry_counts(bus.metrics)
        counts.pop("soil.seed_crashes")
        rep.fingerprint = {
            "acc_total": acc_total,
            "switch_cpu_pct": _mean_cpu_pct(s.switch for s in soils),
            "sim.events": sim.events_processed,
            **counts,
        }
        return rep


# ---------------------------------------------------------------------------
# place_churn: one placement layer, cold and warm
# ---------------------------------------------------------------------------

def _probe_task(switches: List[int], anchor: int, task_id: str) -> TaskSpec:
    """A four-seed task with small floors near ``switches[anchor]``."""
    seeds = []
    for i in range(4):
        candidates = tuple(sorted(
            switches[(anchor + i + k) % len(switches)] for k in range(3)))
        piece = UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -0.1),
                         LinPoly({"RAM": 1.0}, -32.0)),
            utility=ConcaveUtility.constant(5.0))
        seeds.append(SeedSpec(
            seed_id=f"{task_id}/s{i}", task_id=task_id,
            candidates=candidates, utility=PiecewiseUtility([piece])))
    return TaskSpec(task_id=task_id, seeds=seeds)


#: Delta kinds, equally many of each in a sequence.
DELTA_KINDS = ("shrink", "grow", "poll-bump", "task-add", "remove-seed")


def churn_delta(rng: random.Random, kind: str, problem, incumbent,
                step: int) -> ChurnDelta:
    """One single-switch delta of ``kind``; the mix is made of deltas the
    incremental path absorbs, so the warm path is what gets timed."""
    switches = sorted(problem.available)
    if kind == "grow":
        n = rng.choice(switches)
        return ChurnDelta(capacity_changes={
            n: {"vCPU": problem.available[n]["vCPU"] * 1.25}})
    if kind == "shrink":
        # Reclaim up to 10% of a switch's vCPU, never below what its
        # residents hold: an evicting shrink escalates to a full solve,
        # which is the cold solve's cost, not the warm path's.
        n = rng.choice(switches)
        held = sum(incumbent.allocations[seed_id].get("vCPU", 0.0)
                   for seed_id, switch in incumbent.placement.items()
                   if switch == n)
        return ChurnDelta(capacity_changes={
            n: {"vCPU": max(problem.available[n]["vCPU"] * 0.9, held)}})
    if kind == "task-add":
        return ChurnDelta(added_tasks=(_probe_task(
            switches, rng.randrange(len(switches)), f"probe#{step}"),))
    if kind == "remove-seed":
        return ChurnDelta(removed_seeds=(
            rng.choice(sorted(incumbent.placement)),))
    polled = sorted((s for s in problem.all_seeds() if s.poll_demands),
                    key=lambda s: s.seed_id)
    seed = rng.choice(polled)
    return ChurnDelta(poll_changes={seed.seed_id: tuple(
        PollDemand(subject=d.subject,
                   inv_interval=LinPoly(dict(d.inv_interval.coeffs),
                                        d.inv_interval.const + 2.0),
                   weight=d.weight)
        for d in seed.poll_demands)})


class PlaceChurn:
    """Cold solve of a 1000-seed / 150-switch instance (capacity x2, as in
    ``run_churn_benchmark``), then a seeded sequence of single-switch
    deltas, each applied and re-solved incrementally."""

    name = "place_churn"
    SEEDS, SWITCHES, TASKS = 1000, 150, 10
    CAPACITY_SCALE = 2.0
    DELTAS = 100

    def setup(self, seed: int):
        problem = generate_problem(self.SEEDS, self.SWITCHES,
                                   num_tasks=self.TASKS, seed=seed)
        for caps in problem.available.values():
            for resource in caps:
                caps[resource] *= self.CAPACITY_SCALE
        return problem, seed

    def execute(self, state, validate: bool, cold_only: bool) -> Rep:
        problem, seed = state
        rep = Rep()
        start = time.perf_counter_ns()
        t0 = _clock()
        incumbent = solve_heuristic(problem)
        rep.cold_s = _clock() - t0
        _phase(rep, "cold", start)
        if validate:
            violations = validate_solution(problem, incumbent)
            if violations:
                rep.failed += 1
                rep.errors.append(f"cold solve: {violations[:3]}")
        if cold_only:
            return rep
        mu = incumbent.objective

        rng = random.Random(seed)
        kinds = [kind for kind in DELTA_KINDS
                 for _ in range(self.DELTAS // len(DELTA_KINDS))]
        rng.shuffle(kinds)
        trail = []
        incremental = 0
        dirty = []
        start = time.perf_counter_ns()
        for step, kind in enumerate(kinds):
            delta = churn_delta(rng, kind, problem, incumbent, step)
            t0 = _clock()
            problem = apply_delta(problem, delta, incumbent=incumbent)
            t1 = _clock()
            try:
                solution = solve_incremental(problem, incumbent,
                                             delta=delta)
            except Exception as exc:  # counted as a failed operation
                rep.failed += 1
                rep.errors.append(f"delta {step} ({kind}) raised {exc!r}")
                continue
            t2 = _clock()
            rep.ops.append(t2 - t1)
            rep.run_s += t2 - t0
            if validate:
                violations = validate_solution(problem, solution)
                if violations:
                    rep.failed += 1
                    rep.errors.append(f"delta {step} ({kind}): "
                                      f"{violations[:3]}")
            incremental += bool(solution.info.get("incremental"))
            dirty.append(int(solution.info.get("dirty_seeds", 0)))
            trail.append((kind, round(solution.objective, 9),
                          len(solution.placement)))
            incumbent = solution
        _phase(rep, "run", start)
        rep.attempted = 1 + self.DELTAS
        rep.fingerprint = {
            "mu": mu,
            "mu_after_churn": incumbent.objective,
            "placed_after_churn": len(incumbent.placement),
            "placement.incremental_share": incremental / self.DELTAS,
            "placement.dirty_seeds_mean": statistics.fmean(dirty),
            "trail": _digest(trail),
        }
        return rep


def _digest(trail) -> str:
    """A stable digest of a per-step record (independent of the hash
    seed, unlike ``hash``)."""
    return hashlib.sha256(repr(trail).encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (FleetPortfolio(), DenseDeploy(),
                                 PlaceChurn())}
