#!/usr/bin/env python3
"""FARM benchmark: end-to-end and per-layer metrics for three workloads.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload fleet_portfolio --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs every workload, each in a fresh process, one after
another.  ``--trace 1`` adds traced repetitions and reports the per-layer
metrics instead of the end-to-end ones.  ``--check-determinism`` reruns the
selected workloads under ``PYTHONHASHSEED`` 0 and 1, traced and untraced,
and fails unless every sim output and layer count is identical.

A run repeats set-up and the timed phases until the measured time reaches
``--seconds`` and reports medians.  Everything runs in one thread; BLAS
threading is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("fleet_portfolio", "dense_deploy", "place_churn")
#: Not used while tuning the benchmark; confirm later claims on it.
HELD_OUT_SEED = 2027
MIN_SETUPS = 30
#: After the full repetitions, cold-phase-only repetitions fill this share
#: of ``--seconds``: a short cold phase gets more samples for its median.
EXTRA_COLD_SHARE = 0.25

#: (name, unit) reported with --trace 0.
END_TO_END = (
    ("setup_s", "s"), ("cold_s", "s"), ("run_s", "s"),
    ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)
#: (name, unit) reported with --trace 1.
PER_LAYER = (
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("almanac.compile_s", "s"), ("almanac.instances", "count"),
    ("almanac.instance_init_s", "s"), ("almanac.handler_calls", "count"),
    ("almanac.handler_s", "s"), ("almanac.vector_share", "ratio"),
    ("soil.deploys", "count"), ("soil.deploy_self_s", "s"),
    ("soil.dispatch_self_s", "s"), ("soil.events", "count"),
    ("soil.polls", "count"), ("soil.poll_cache_hit_ratio", "ratio"),
    ("soil.batched_polls", "count"),
    ("seeder.submit_s", "s"), ("seeder.reoptimize_s", "s"),
    ("bus.messages", "count"), ("bus.bytes", "bytes"),
    ("bus.dead_letters", "count"),
    ("placement.greedy_self_s", "s"), ("placement.lp_calls", "count"),
    ("placement.lp_s", "s"), ("placement.incremental_share", "ratio"),
    ("placement.dirty_seeds_mean", "count"),
    ("switchsim.counter_reads", "count"), ("switchsim.counter_read_s", "s"),
    ("switchsim.packet_samples", "count"), ("switchsim.sample_s", "s"),
    ("switchsim.tcam_rules", "count"), ("switchsim.cpu_charges", "count"),
    ("switchsim.pcie_bytes", "bytes"),
    ("net.traffic_s", "s"),
    ("obs.scrapes", "count"), ("obs.scrape_s", "s"),
    ("mu", "utility"), ("mu_after_churn", "utility"),
    ("detect_p50_ms", "sim-ms"), ("detect_p90_ms", "sim-ms"),
    ("switch_cpu_pct", "sim-%"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_share", "ratio"),
)
#: Per-layer counts made by the span wrappers; compared across hash seeds.
SPAN_COUNTS = ("almanac.instances", "almanac.handler_calls",
               "placement.lp_calls", "switchsim.counter_reads",
               "switchsim.packet_samples", "switchsim.cpu_charges",
               "obs.scrapes")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def calibration_score() -> float:
    """Fixed pure-Python work, best of three, in million iterations per
    second: compares machines and runs, it is not a metric."""
    def work(n=200_000):
        table, acc = {}, 0
        for i in range(n):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        return n

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        n = work()
        best = min(best, time.perf_counter() - start)
    return round(n / best / 1e6, 3)


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "calibration_mips": calibration_score(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

def _cold_caches() -> None:
    """Empty the soil's process-wide compile cache, as a fresh process has
    it: deploy is measured cold because users pay it on every run."""
    import repro.core.soil as soil
    cache = getattr(soil, "_COMPILE_CACHE", None)
    if cache is not None:
        cache.clear()


def _one_rep(workload, seed, validate, recorder=None, cold_only=False):
    import instrument
    _cold_caches()
    gc.collect()
    uninstall = instrument.install(recorder) if recorder is not None \
        else None
    try:
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s = time.perf_counter() - start
        rep = workload.execute(state, validate, cold_only)
    finally:
        if uninstall is not None:
            uninstall()
    del state
    return rep, setup_s


def _layer_metrics(rep, recorder) -> dict:
    from spans import covered_ns, summarize
    spans = recorder.spans()
    summary = summarize(spans)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    unattributed = max(
        1.0 - covered_ns(spans, start, end) / max(end - start, 1)
        for _name, start, end in rep.phases)
    fp = rep.fingerprint
    out = {name: fp.get(name, 0.0) for name, _unit in PER_LAYER}
    out.update({
        "sim.self_s": own("sim:Simulator.run"),
        "almanac.compile_s": own("almanac:compile"),
        "almanac.instances": calls("almanac:MachineInstance"),
        "almanac.instance_init_s": total("almanac:MachineInstance"),
        "almanac.handler_calls": calls("almanac:handler")
        + calls("almanac:vector_handler"),
        "almanac.handler_s": total("almanac:handler")
        + total("almanac:vector_handler"),
        "soil.deploy_self_s": own("soil:Soil.deploy"),
        "soil.dispatch_self_s": own("soil:dispatch"),
        "seeder.submit_s": total("seeder:Seeder.submit"),
        "seeder.reoptimize_s": total("seeder:Seeder.reoptimize"),
        "placement.greedy_self_s": own("placement:solve_heuristic")
        + own("placement:solve_incremental"),
        "placement.lp_calls": calls("placement:linprog"),
        "placement.lp_s": total("placement:linprog"),
        "switchsim.counter_reads": calls("switchsim:counter_read"),
        "switchsim.counter_read_s": total("switchsim:counter_read"),
        "switchsim.packet_samples": calls("switchsim:sample"),
        "switchsim.sample_s": total("switchsim:sample"),
        "switchsim.cpu_charges": calls("switchsim:charge_work"),
        "net.traffic_s": own("net:dispatch"),
        "obs.scrapes": calls("obs:scrape"),
        "obs.scrape_s": total("obs:scrape"),
        "trace.unattributed_share": unattributed,
    })
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload until ``seconds`` of measured time; with
    ``trace`` every other repetition runs with the span wrappers."""
    from spans import SpanRecorder
    from stats import percentile, percentile_supported

    setups, plain, traced, layers, errors = [], [], [], [], []
    last_recorder = None
    measured = 0.0
    while True:
        recorder = SpanRecorder() if trace and len(traced) < len(plain) \
            else None
        rep, setup_s = _one_rep(workload, seed,
                                validate=not plain and not traced,
                                recorder=recorder)
        if recorder is None:
            plain.append(rep)
            setups.append(setup_s)
        else:
            traced.append(rep)
            layers.append(_layer_metrics(rep, recorder))
            last_recorder = recorder
        measured += setup_s + rep.cold_s + rep.run_s
        if measured >= seconds and (not trace or traced):
            break
    colds = [rep.cold_s for rep in plain]
    ops = [x for rep in plain for x in rep.ops]
    spent, budget = 0.0, 0.0 if trace else EXTRA_COLD_SHARE * seconds
    while spent + statistics.median(colds) <= budget:
        rep, setup_s = _one_rep(workload, seed, validate=False,
                                cold_only=True)
        errors.extend(rep.errors)
        colds.append(rep.cold_s)
        ops.extend(rep.ops)
        setups.append(setup_s)
        spent += setup_s + rep.cold_s
    while len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
        del state

    errors += [e for rep in plain + traced for e in rep.errors]
    fingerprint = plain[0].fingerprint
    for rep in plain[1:]:
        if rep.fingerprint != fingerprint:
            errors.append("sim outputs differ between repetitions")
            break
    for rep in traced:
        if rep.fingerprint != fingerprint:
            errors.append("tracing changed the sim outputs")
            break

    for q in (50, 90):
        if not percentile_supported(len(ops), q):
            errors.append(f"op p{q}: only {len(ops)} samples")
    result = {
        "reps": len(plain),
        "traced_reps": len(traced),
        "op_samples": len(ops),
        "fingerprint": fingerprint,
        "errors": errors,
        "rep_times": [[r.cold_s, r.run_s] for r in plain],
        "cold_times": colds,
        "setup_times": setups,
        "attempted": sum(rep.attempted for rep in plain),
        "failed": sum(rep.failed for rep in plain),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(colds),
            "run_s": statistics.median(r.run_s for r in plain),
            "op_p50_ms": 1000.0 * percentile(ops, 50),
            "op_p90_ms": 1000.0 * percentile(ops, 90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if traced:
        per_layer = {name: statistics.median(layer[name] for layer in layers)
                     for name in layers[0]}
        per_layer["trace.overhead_ratio"] = (
            statistics.median(r.cold_s + r.run_s for r in traced)
            / statistics.median(r.cold_s + r.run_s for r in plain))
        result["per_layer"] = per_layer
        result["span_counts"] = {name: layers[0][name]
                                 for name in SPAN_COUNTS}
        OUT.mkdir(exist_ok=True)
        last_recorder.dump(str(OUT / f"spans-{workload.name}-{seed}.json"))
    return result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _report(name, seed, trace, result, meta) -> dict:
    from stats import valid_metric_name
    table = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for metric, unit in table:
        if not valid_metric_name(metric):
            raise ValueError(f"bad metric name {metric!r}")
        metrics[metric] = {"value": values[metric], "unit": unit}
    print(f"# workload {name} seed {seed} trace {trace}: "
          f"{result['reps']} reps, {result['traced_reps']} traced, "
          f"{result['op_samples']} op samples")
    print("# manifest " + json.dumps(meta, sort_keys=True))
    print("# fingerprint " + json.dumps(result["fingerprint"],
                                        sort_keys=True))
    if "span_counts" in result:
        print("# span_counts " + json.dumps(result["span_counts"],
                                            sort_keys=True))
    for metric, entry in metrics.items():
        print(f"#   {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
    for error in result["errors"]:
        print(f"# CHECK FAILED: {error}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, manifest=meta, workload=name, trace=trace)
    with open(OUT / f"result-{name}-{seed}-{trace}.json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True, default=str)
    return {"correct": not result["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def _child(args, workload, extra_env=None, trace=None):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace if trace is None else trace)]
    env = dict(os.environ, **(extra_env or {}))
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        code, lines, stderr = _child(args, name)
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            sys.stderr.write(stderr)
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"# {name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return status


def _tagged(lines, tag):
    for line in lines:
        if line.startswith(f"# {tag} "):
            return json.loads(line[len(tag) + 3:])
    return None


def check_determinism(args) -> int:
    """Sim outputs and layer counts must not depend on the hash seed or
    on tracing."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        runs = {}
        for hash_seed in ("0", "1"):
            for trace in (0, 1):
                code, lines, stderr = _child(
                    args, name, {"PYTHONHASHSEED": hash_seed}, trace=trace)
                if code != 0:
                    sys.stderr.write(stderr)
                    print(f"# {name}: run failed (hash seed {hash_seed}, "
                          f"trace {trace})")
                    status = 1
                runs[hash_seed, trace] = (_tagged(lines, "fingerprint"),
                                          _tagged(lines, "span_counts"))
        fingerprints = {json.dumps(fp, sort_keys=True)
                        for fp, _ in runs.values()}
        span_counts = {json.dumps(runs[h, 1][1], sort_keys=True)
                       for h in ("0", "1")}
        same = len(fingerprints) == 1 and len(span_counts) == 1
        print(f"# {name}: sim outputs and layer counts "
              f"{'identical' if same else 'DIFFER'} across hash seeds 0/1 "
              f"and trace 0/1")
        if not same:
            for key, value in sorted(runs.items()):
                print(f"#   {key}: {json.dumps(value, sort_keys=True)}")
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"error: no source tree at {SRC}\n")
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.check_determinism:
        return check_determinism(args)
    if args.workload == "all":
        return run_all(args)
    import workloads
    meta = manifest(args.seed)
    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    line = _report(args.workload, args.seed, args.trace, result, meta)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
