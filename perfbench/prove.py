"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --seeds 1-10 --out perfbench/out/prove.json
    python3 perfbench/prove.py --seeds 11-20 --compare perfbench/out/prove.json

Runs ``run.py`` once per (seed, workload), for every workload in
BENCHMARK.json and for its ``run_seconds``, one process at a time, with
the workloads interleaved within each seed.  For every end-to-end metric
it prints the median, the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``) and the metric's bound from
BENCHMARK.json; with ``--compare`` also the change of the median against
an earlier result file.  Every raw value is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result and context here")
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        for name in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, "result": result,
                         "context": json.loads(lines[-2])["context"]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    old = {}
    if args.compare:
        for run in json.loads(Path(args.compare).read_text())["runs"]:
            for metric, entry in run["result"]["metrics"].items():
                old.setdefault((run["workload"], metric), []).append(entry["value"])
    summary = []
    for name in workloads:
        mine = [r for r in runs if r["workload"] == name]
        for metric in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in mine]
            row = {"workload": name, "metric": metric, "median": statistics.median(values),
                   "spread": spread(values) if len(values) > 1 else None,
                   "bound": bounds.get(metric)}
            if (name, metric) in old:
                row["change"] = row["median"] / statistics.median(old[name, metric]) - 1
            summary.append(row)
            fields = [f"{name:16} {metric:28} median {row['median']:12.5g}"]
            if row["spread"] is not None:
                fields.append(f"spread {row['spread']:7.4f}")
            if row["bound"] is not None:
                fields.append(f"bound {row['bound']:.2f}")
            if "change" in row:
                fields.append(f"change {row['change']:+.4f}")
            print("  ".join(fields))
    if args.out:
        record = {"seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary}
        Path(args.out).write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
