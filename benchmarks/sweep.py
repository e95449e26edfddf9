"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --seeds 1-10 [--trace 0|1]
                                [--out benchmarks/trajectory/NAME.json]

For every workload of BENCHMARK.json and every seed this runs ``run.py``
once (sequentially, for the ``run_seconds`` that BENCHMARK.json sets) and
prints, for every figure run.py prints, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound.  With --out the summary is written as one point
of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def printed_metrics(lines):
    """Every numeric ``name = value unit`` line run.py prints, including the
    figures beside the listed metrics (e.g. pipeline_tail_pct)."""
    out = {}
    for line in lines:
        name, sep, rest = line.partition(" = ")
        value, _, unit = rest.partition(" ")
        try:
            out[name] = {"value": float(value), "unit": unit}
        except ValueError:
            continue
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = str(spec["run_seconds"])
    report = {"seeds": args.seeds, "seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {}}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs, walls, provenance = [], [], None
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds,
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n"
                                 f"{proc.stderr}\n")
                failed = True
                continue
            provenance = provenance or json.loads(
                next(line for line in lines if line.startswith("provenance "))[11:])
            runs.append({**printed_metrics(lines), **json.loads(lines[-1])["metrics"]})
        if not runs:
            continue
        metrics = {}
        print(f"== {workload}: {len(runs)} runs, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        for name, first in runs[0].items():
            summary = summarise([r[name]["value"] for r in runs])
            summary["unit"] = first["unit"]
            metrics[name] = summary
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       f"bound {bound:<5} {'ok' if summary['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:<26} median {summary['median']:<12.6g} {first['unit']:<6} "
                  f"spread {summary['spread']:7.2%}  {verdict}")
        report["workloads"][workload] = {
            "provenance": {k: v for k, v in provenance.items() if k != "seed"},
            "wall_s": walls, "metrics": metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
