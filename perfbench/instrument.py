"""Wrap the layers' public entry points with spans (traced run only).

Nothing here changes what a call does: each wrapper calls the original
exactly once with the same arguments.  Scheduled callbacks are timed
through the kernel's dispatch hook (``Simulator.set_profiler``) and
charged to the layer that owns the callback.  :func:`install` returns an
undo function that restores every original.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

from spans import SpanRecorder

from repro.almanac.interpreter import MachineInstance
from repro.almanac.vector import VectorKernel
from repro.core.comm import ControlBus
from repro.core.seeder import Seeder
from repro.core.soil import Soil
from repro.obs.tsdb import Scraper
from repro.sim.engine import PeriodicTimer, Simulator
from repro.switchsim.cpu import ManagementCpu
from repro.switchsim.stratum import SwitchDriver

#: (class, method, span name).  The span name's prefix is its layer.
METHODS = (
    (Simulator, "run", "sim:Simulator.run"),
    (Seeder, "submit", "seeder:Seeder.submit"),
    (Seeder, "reoptimize", "seeder:Seeder.reoptimize"),
    (Soil, "deploy", "soil:Soil.deploy"),
    (MachineInstance, "__init__", "almanac:MachineInstance"),
    (MachineInstance, "fire_trigger_var", "almanac:handler"),
    (VectorKernel, "fire", "almanac:vector_handler"),
    (SwitchDriver, "read_port_counters", "switchsim:counter_read"),
    (SwitchDriver, "read_rule_counters", "switchsim:counter_read"),
    (SwitchDriver, "sample_packets", "switchsim:sample"),
    (SwitchDriver, "write_table_entry", "switchsim:table_write"),
    (SwitchDriver, "delete_table_entry", "switchsim:table_write"),
    (ManagementCpu, "charge_work", "switchsim:charge_work"),
    (ControlBus, "send", "bus:ControlBus.send"),
    (Scraper, "scrape_once", "obs:scrape"),
)

#: (defining module, function, span name, modules whose references are
#: replaced).  Callers import these by name, so every module-level
#: reference under the given prefixes is swapped, plus the benchmark's.
FUNCTIONS = (
    ("repro.almanac.parser", "parse", "almanac:compile", "repro."),
    ("repro.almanac.compiler", "compile_machine", "almanac:compile",
     "repro."),
    ("repro.almanac.xmlcodec", "encode_program", "almanac:compile",
     "repro."),
    ("repro.almanac.xmlcodec", "decode_program", "almanac:compile",
     "repro."),
    ("repro.almanac.interpreter", "flatten_machine", "almanac:compile",
     "repro."),
    ("repro.placement.heuristic", "solve_heuristic",
     "placement:solve_heuristic", "repro."),
    ("repro.placement.incremental", "solve_incremental",
     "placement:solve_incremental", "repro."),
    ("repro.placement.incremental", "apply_delta",
     "placement:apply_delta", "repro."),
    ("repro.placement.linprog_builder", "linprog", "placement:linprog",
     "repro.placement."),
)

BENCH_MODULES = ("workloads",)

#: Dispatched events are charged by their profiler cost key when they
#: carry one, else by the callback's module.
COST_KEY_LAYERS = {
    "soil": "soil", "traffic": "net", "scarecrow": "obs", "bus": "bus",
    "reliable": "bus", "ft": "seeder", "seeder": "seeder",
}
MODULE_LAYERS = (
    ("repro.core.soil", "soil"), ("repro.core.comm", "bus"),
    ("repro.core.reliable", "bus"), ("repro.core.chaos", "bus"),
    ("repro.core", "seeder"), ("repro.tasks", "seeder"),
    ("repro.sim", "sim"), ("repro.almanac", "almanac"),
    ("repro.switchsim", "switchsim"), ("repro.net", "net"),
    ("repro.obs", "obs"), ("repro.placement", "placement"),
)


def _module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class _Dispatcher:
    """Kernel dispatch hook: one span per fired event."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._calls: Dict[str, Callable] = {}

    def _span_name(self, event) -> str:
        key = event.cost_key
        if key and key[0] in COST_KEY_LAYERS:
            return COST_KEY_LAYERS[key[0]] + ":dispatch"
        callback = event.callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTimer):
            callback = owner.callback
        return _module_layer(getattr(callback, "__module__", "") or "") \
            + ":dispatch"

    def dispatch(self, event) -> None:
        name = self._span_name(event)
        call = self._calls.get(name)
        if call is None:
            call = self._recorder.wrap(name, _invoke)
            self._calls[name] = call
        call(event)


def _invoke(event) -> None:
    event.callback(*event.args)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point; returns the function that undoes it."""
    undo: List[Tuple[object, str, object]] = []
    for cls, method, name in METHODS:
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, recorder.wrap(name, original))

    # Every simulator run goes through the dispatch hook while traced.
    dispatcher = _Dispatcher(recorder)
    traced_run = Simulator.run

    def run(sim, *args, **kwargs):
        sim.set_profiler(dispatcher)
        return traced_run(sim, *args, **kwargs)

    Simulator.run = run

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name.startswith("repro.")
                                     or name in BENCH_MODULES)]
    for home, func, name, prefix in FUNCTIONS:
        original = getattr(sys.modules[home], func)
        wrapped = recorder.wrap(name, original)
        for module in modules:
            if not (module.__name__.startswith(prefix)
                    or module.__name__ in BENCH_MODULES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
