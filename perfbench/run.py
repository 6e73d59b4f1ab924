"""Benchmark of nodalcalc: one workload, one seed, one result line.

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and fails (exit 2, no result) when that is missing.  The last line of
stdout is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
ones with ``--trace 1``.  The line before it records the run's context
and raw values.  README.md describes the workloads and metrics.

One process, one thread, a closed loop with one caller.  A pass runs
every op of the workload once, starting from empty nodalcalc caches as
a fresh process does; passes repeat until their total time reaches
``--seconds`` (half of it untraced and half traced with ``--trace 1``).

Reported times are scaled to a reference speed.  The machine this was
written on runs everything up to 2x slower for phases of 10-70 s, so
between ops the run times a fixed pure-Python loop (``reference``) and
multiplies each op's latency by REFERENCE_S / (the reference time around
it).  The raw times are on the context line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracles
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 15
# median time of reference() on a 2-vCPU VM with Python 3.11.7 at full speed
REFERENCE_S = 0.0035
REFERENCE_EVERY_S = 0.15
clock = time.perf_counter

_RING = tuple((f"v{i}", 0) for i in range(10))
_CHORDS = (tuple((f"e{i}", (f"v{i}", f"v{(i + 1) % 10}")) for i in range(10))
           + tuple((f"c{i}", (f"v{i}", f"v{(i + 3) % 10}")) for i in range(0, 10, 2)))


def reference() -> float:
    """Best of 3 timings of a fixed, program-independent computation.

    The collector is off meanwhile, so the size of the program's heap
    does not leak into the timing.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = clock()
            sum(1 for _ in oracles.connected_subsets(_RING, _CHORDS))
            oracles.spanning_trees(_RING, _CHORDS)
            sum(Fraction(i, 7) for i in range(200))
            best = min(best, clock() - start)
    finally:
        gc.enable()
    return best


def load_program():
    """Import nodalcalc afresh; return the package, its layers and the API table.

    The API table is the benchmark's own binding of every public callable
    defined in a layer module; the traced run wraps the entries there.
    """
    for name in [n for n in sys.modules if n == "nodalcalc" or n.startswith("nodalcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("nodalcalc")
    modules = {layer: importlib.import_module(f"nodalcalc.{layer}") for layer in spans.LAYERS}
    api = SimpleNamespace()
    for module in modules.values():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                setattr(api, attr, obj)
    return package, modules, api


def clear_caches(modules) -> None:
    for module in modules.values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def one_pass(workload, api, specs, modules):
    """Run every op once; return raw and scaled op latencies, and outcomes.

    The reference is timed at the start, between ops at least every
    REFERENCE_EVERY_S, and at the end.  Each op's latency is scaled by
    the mean of the reference timings just before and just after it.
    """
    clear_caches(modules)
    samples = [(clock(), reference())]
    windows, outcomes = [], []
    for spec in specs:
        t0 = clock()
        try:
            outcome = workload.run(api, spec)
        except Exception as exc:  # a raising op is a failure to count, not a crash
            outcome = exc
        t1 = clock()
        windows.append((t0, t1))
        outcomes.append(outcome)
        if t1 - samples[-1][0] >= REFERENCE_EVERY_S:
            samples.append((clock(), reference()))
    samples.append((clock(), reference()))
    raw, scaled = [], []
    after = 0
    for t0, t1 in windows:
        while samples[after][0] < t1:
            after += 1
        ref = (samples[after - 1][1] + samples[after][1]) / 2
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * REFERENCE_S / ref)
    return raw, scaled, outcomes


def check_pass(workload, api, specs, outcomes) -> list[tuple[str, bool]]:
    failures = []
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, Exception):
            failures.append((f"raised {type(outcome).__name__}: {outcome}", False))
            continue
        verdict = workload.check(api, spec, outcome)
        if verdict is not None:
            failures.append(verdict)
    return failures


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "nodalcalc" / "__init__.py").is_file():
        print(f"error: no nodalcalc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    # set-up: import plus input generation, repeated; the last copy is used.
    # The oracle's answers and the input files are made afterwards, untimed.
    setups, imports, setup_factors = [], [], []
    before = reference()
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the garbage of the one before
        t0 = clock()
        package, modules, api = load_program()
        t1 = clock()
        workload = WORKLOADS[args.workload]()
        specs = workload.generate(random.Random(f"{args.workload}:{args.seed}"))
        setups.append(clock() - t0)
        imports.append(t1 - t0)
        after = reference()
        setup_factors.append(REFERENCE_S / ((before + after) / 2))
        before = after
    workload.prepare(specs, workdir)

    walls, scaled_walls, latencies = [], [], []
    failures: list[tuple[str, bool]] = []
    attempted = 0
    budget = args.seconds / 2 if args.trace else args.seconds
    while sum(walls) < budget:
        raw, scaled, outcomes = one_pass(workload, api, specs, modules)
        walls.append(sum(raw))
        scaled_walls.append(sum(scaled))
        latencies += scaled
        attempted += len(specs)
        failures += check_pass(workload, api, specs, outcomes)

    traced = []  # (scaled wall, raw wall, recorder, exit-2 count) per traced pass
    while args.trace and sum(t[1] for t in traced) < budget:
        rec = spans.Recorder()
        remove = spans.install(rec, modules, {"nodalcalc": vars(package), "bench": vars(api)})
        try:
            raw, scaled, outcomes = one_pass(workload, api, specs, modules)
        finally:
            remove()
        attempted += len(specs)
        failures += check_pass(workload, api, specs, outcomes)
        exit2 = sum(1 for o in outcomes if isinstance(o, tuple) and o[0] == 2)
        traced.append((sum(scaled), sum(raw), rec, exit2))

    failed = len(failures)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(specs),
        "untraced_passes": len(walls),
        "percentile": "nearest rank over every op latency of the untraced passes",
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": Counter(reason for reason, _ in failures).most_common(10),
        "raw": {"setup_s": setups, "setup_import_s": imports,
                "setup_speed_factor": setup_factors,
                "pass_wall_s": walls, "pass_scaled_wall_s": scaled_walls},
    }
    if args.trace:
        wall, raw_wall, rec, exit2 = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
        values = spans.layer_metrics(rec)
        values = {k: v * wall / raw_wall if k.endswith("_s") else v for k, v in values.items()}
        values["cli.exit2"] = exit2
        values["trace.wall_s"] = wall
        values["trace.overhead_ratio"] = wall / statistics.median(scaled_walls)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
        context["raw"]["traced_pass_wall_s"] = [t[1] for t in traced]
        context["raw"]["traced_pass_scaled_wall_s"] = [t[0] for t in traced]
        context["spans_file"] = f"perfbench/out/spans-{args.workload}.jsonl.gz"
        rec.dump(OUT / f"spans-{args.workload}.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                s * f for s, f in zip(setups, setup_factors)), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled_walls), "unit": "s"},
            "throughput_ops_per_s": {"value": len(latencies) / sum(scaled_walls),
                                     "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * nearest_rank(latencies, 50), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * nearest_rank(latencies, 90), "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    correct = all(known for _, known in failures)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
