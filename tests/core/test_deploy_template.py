"""Deploy templates: per-program analysis shared across seeds.

The soil builds a program's constant environment and poll-variable
analyses once and hands every later seed a copy, and it encodes each poll
filter's subjects once per soil.  These tests check that a seed deployed
through the shared state is indistinguishable from one deployed cold, that
per-seed mutations stay per seed, and that the sharing allocates less.
"""

import gc

import pytest

import repro.core.soil as soil_mod
from repro.almanac.parser import parse
from repro.almanac.xmlcodec import encode_program
from repro.core.comm import ControlBus
from repro.core.soil import Soil
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for

TEMPLATED = """
machine Tmpl {
  place all;
  external long dport = 80;
  external float period = 0.02;
  poll stats = Poll { .ival = 10 / res().PCIe, .what = port ANY };
  poll flows = Poll { .ival = period, .what = dstPort dport };
  time tick = 0.05;
  long n = 0;
  state run {
    when (stats as s) do { n = n + 1; }
    when (flows as f) do { n = n + 2; }
    when (tick) do { n = n + 3; }
  }
}
"""

#: The benchmark's affine poll seed: after n polls, ``acc == n * (n + 1)``.
DENSE = """
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

ALLOCATION = {"vCPU": 0.1, "RAM": 64, "TCAM": 8, "PCIe": 100}

TEMPLATED_XML = encode_program(parse(TEMPLATED))


@pytest.fixture(autouse=True)
def cold_cache():
    soil_mod._COMPILE_CACHE.clear()
    yield
    soil_mod._COMPILE_CACHE.clear()


def make_soils(count):
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    bus = ControlBus(sim, registry=registry)
    soils = []
    for index in range(count):
        switch = Switch(sim, index, registry=registry)
        soils.append(Soil(sim, switch, driver_for(switch), bus))
    return soils


def deploy(soil, seed_id, externals=None, pcie=100.0, xml=TEMPLATED_XML,
           machine="Tmpl"):
    return soil.deploy(seed_id=seed_id, task_id="t", program_xml=xml,
                       machine_name=machine, externals=externals,
                       allocation={**ALLOCATION, "PCIe": pcie})


def template_for(soil, externals=None, xml=TEMPLATED_XML, machine="Tmpl"):
    return soil_mod._compiled_for(xml, machine, externals,
                                  soil.resource_types)[1]


def seed_plan(i):
    # Two externals sets and five allocations: several templates, several
    # intervals, several poll groups.
    externals = {"dport": 80 + i % 2, "period": 0.02}
    return f"s{i}", externals, 50.0 + 10 * (i % 5)


def describe(soil, deployment):
    plans = {
        name: (plan.kind, plan.interval, plan.subjects, plan.ports,
               plan.rule_patterns, plan.info)
        for name, plan in deployment.poll_plans.items()}
    groups = {}
    for name in deployment.poll_plans:
        group = soil._memberships.get((deployment.seed_id, name))
        groups[name] = None if group is None else list(group.members)
    return (dict(deployment.poll_vars), plans,
            dict(deployment.instance.machine_scope.vars), groups)


class TestTemplateDifferential:
    def test_shared_template_matches_cold_deploys(self):
        (shared,) = make_soils(1)
        shared_views = []
        for i in range(50):
            seed_id, externals, pcie = seed_plan(i)
            deploy(shared, seed_id, externals, pcie)
        for i in range(50):
            seed_id, _externals, _pcie = seed_plan(i)
            shared_views.append(describe(shared, shared.deployments[seed_id]))

        (cold,) = make_soils(1)
        for i in range(50):
            seed_id, externals, pcie = seed_plan(i)
            soil_mod._COMPILE_CACHE.clear()
            deploy(cold, seed_id, externals, pcie)
        cold_views = [describe(cold, cold.deployments[seed_plan(i)[0]])
                      for i in range(50)]

        assert shared_views == cold_views
        assert len(shared._poll_groups) == len(cold._poll_groups)

    def test_seeds_share_one_subject_set_per_filter(self):
        (soil,) = make_soils(1)
        a = deploy(soil, "a")
        b = deploy(soil, "b", pcie=40.0)
        for name in ("stats", "flows"):
            assert a.poll_plans[name].subjects is b.poll_plans[name].subjects
        assert a.poll_plans["tick"].subjects is None

    def test_interval_change_stays_with_its_seed(self):
        (soil,) = make_soils(1)
        seeds = [deploy(soil, f"s{i}") for i in range(3)]
        template = template_for(soil)
        before = [(dict(d.poll_vars), d.poll_plans["stats"].interval)
                  for d in seeds]
        soil.set_trigger_interval(seeds[0], "stats", 0.5)
        assert seeds[0].poll_plans["stats"].interval == 0.5
        assert seeds[0].poll_vars["stats"] is not template.poll_vars["stats"]
        for deployment, (poll_vars, interval) in zip(seeds[1:], before[1:]):
            assert deployment.poll_vars == poll_vars
            assert deployment.poll_vars["stats"] \
                is template.poll_vars["stats"]
            assert deployment.poll_plans["stats"].interval == interval
        # The template itself is untouched, so the next seed starts fresh.
        late = deploy(soil, "late")
        assert late.poll_vars["stats"] is template.poll_vars["stats"]
        assert late.poll_plans["stats"].interval == pytest.approx(0.1)

    def test_different_externals_get_different_templates(self):
        (soil,) = make_soils(1)
        a = deploy(soil, "a", {"dport": 80})
        b = deploy(soil, "b", {"dport": 443})
        c = deploy(soil, "c", {"dport": 80})
        assert template_for(soil, {"dport": 80}) \
            is not template_for(soil, {"dport": 443})
        assert a.poll_vars["flows"].what != b.poll_vars["flows"].what
        assert a.poll_vars["flows"] is c.poll_vars["flows"]
        _compiled, templates = soil_mod._COMPILE_CACHE[
            (TEMPLATED_XML, "Tmpl")]
        assert len(templates) == 2

    def test_equal_but_differently_typed_externals_do_not_share(self):
        (soil,) = make_soils(1)
        deploy(soil, "a", {"period": 1})
        deploy(soil, "b", {"period": 1.0})
        assert template_for(soil, {"period": 1}) \
            is not template_for(soil, {"period": 1.0})

    def test_unhashable_externals_build_but_do_not_store(self):
        source = """
machine Tagged {
  place all;
  external list tags;
  poll p = Poll { .ival = 0.01, .what = port ANY };
  state s { when (p as x) do { } }
}
"""
        xml = encode_program(parse(source))
        (soil,) = make_soils(1)
        a = deploy(soil, "a", {"tags": [1, 2]}, xml=xml, machine="Tagged")
        b = deploy(soil, "b", {"tags": [1, 2]}, xml=xml, machine="Tagged")
        assert a.poll_vars == b.poll_vars
        _compiled, templates = soil_mod._COMPILE_CACHE[(xml, "Tagged")]
        assert templates == {}

    def test_clearing_compile_cache_drops_template(self):
        (soil,) = make_soils(1)
        deploy(soil, "a")
        first = template_for(soil)
        assert template_for(soil) is first
        soil_mod._COMPILE_CACHE.clear()
        deploy(soil, "b")
        second = template_for(soil)
        assert second is not first
        assert second.poll_vars == first.poll_vars


class TestDeployAllocations:
    def test_retained_objects_per_seed(self):
        """Deploying a seed retains at most 40 GC-tracked objects once
        the program's template and the soil's subject sets exist (it was
        ~72 when every seed rebuilt them and its own builtins table)."""
        soils = make_soils(10)
        xml = encode_program(parse(DENSE))
        deploy(soils[0], "warm", xml=xml, machine="Dense")
        gc.collect()
        before = len(gc.get_objects())
        for s, soil in enumerate(soils):
            for i in range(100):
                deploy(soil, f"d{s}_{i}", xml=xml, machine="Dense")
        gc.collect()
        per_seed = (len(gc.get_objects()) - before) / 1000
        assert per_seed <= 40, f"{per_seed:.1f} objects retained per seed"

    def test_instances_share_builtin_functions(self):
        (soil,) = make_soils(1)
        a = deploy(soil, "a").instance
        b = deploy(soil, "b").instance
        for name in ("min", "max", "size", "mapInc", "makeRule"):
            assert a.builtins[name] is b.builtins[name]
        # Host builtins stay per instance: they close over the seed.
        assert a.builtins["res"] is not b.builtins["res"]
        a.builtins["min"] = max
        assert b.builtins["min"] is not max
