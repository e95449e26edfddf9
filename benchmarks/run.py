"""Benchmark of the bdfadjoint CLI pipeline integrate -> adjoint -> verify
(plus converge).

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (workloads.py; the reasons for each are in BENCHMARK.json)
from source in ``src/``, in this process with BLAS/OpenMP pinned to one
thread (pipeline.py), checks its outputs and prints every metric by name
with its unit.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 measures the end-to-end metrics,
with set-up time from fresh interpreters; --trace 1 measures the per-layer
metrics from a traced run, whose spans go to ``.bench_work/traces/``.
Times are reported at a reference machine speed (see calibrate.py).
Exit code: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# BLAS and OpenMP read these when NumPy loads, so they are set before the
# imports below; the set-up probes inherit them.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import pipeline  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402
from spans import UNITS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170
SETUP_PROBES = {"full": 5, "small": 1}
# What every CLI stage pays before it does any work, then the calibration.
SETUP_PROBE = ("import time\n"
               "start = time.perf_counter()\n"
               "import bdfadjoint.cli as cli\n"
               "cli.build_parser()\n"
               "elapsed = time.perf_counter() - start\n"
               "from calibrate import Calibration\n"
               "calibration = Calibration()\n"
               "for _ in range(5):\n"
               "    calibration.run()\n"
               "print(elapsed, calibration.speed_factor(), cli.__file__)\n")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_tail_s": "s",
    "peak_rss_mb": "MB",
    "grad_err": "rel",
    "weak_err_tf": "l2",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


class OverBudget(BaseException):
    """Raised by SIGALRM at the deadline.  Not an Exception, so that a CLI
    stage running at that moment does not count it as its own failure."""


def over_budget(signum, frame):
    raise OverBudget(f"over the {DEADLINE_S} s budget")


def setup_times(count):
    """(wall, speed factor) of fresh-interpreter imports of bdfadjoint.cli
    plus build_parser()."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        seconds, factor, module = proc.stdout.split(maxsplit=2)
        if SRC.resolve() not in Path(module.strip()).resolve().parents:
            raise BenchError(f"set-up probe imported {module.strip()}, not {SRC}")
        times.append((float(seconds), float(factor)))
    return times


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values)
    rank = len(ordered) - 10          # 1-based rank of the reported sample
    if rank < 1:
        raise BenchError(f"{len(ordered)} passes; the tail needs at least 11")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stage_medians(passes, speed):
    """Median time of each CLI stage, e.g. integrate_s (converge_s only where
    a converge stage runs)."""
    return {f"{stage}_s": (statistics.median(p[stage] for p in passes) * speed, "s")
            for stage in passes[0]}


def end_to_end(result, probes):
    passes = result["passes"]
    speed = result["speed_factor"]
    totals = [sum(p.values()) for p in passes]
    tail_s, pct, count = tail(totals)
    values = {
        "setup_s": statistics.median(wall * factor for wall, factor in probes),
        "pipeline_s": statistics.median(totals) * speed,
        "pipeline_tail_s": tail_s * speed,
        "peak_rss_mb": result["peak_rss_mb"],
        "grad_err": result["grad_err"],
        "weak_err_tf": result["weak_err_tf"],
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    extra = {**stage_medians(passes, speed), "pipeline_tail_pct": (pct, "%"), "passes": (count, "count"),
             "fd_err": (result["fd_err"], "rel"), "speed_factor": (speed, "ratio"),
             "pipeline_wall_s": (statistics.median(totals), "s"),
             "setup_wall_s": (statistics.median(wall for wall, _ in probes), "s")}
    return metrics, extra


def per_layer(result):
    traced = result["layers"].values()
    speed = result["speed_factor"]

    def median_of(name):
        value = statistics.median_low(layer[name] for layer in traced)
        return value * speed if UNITS[name] == "s" else value

    # stage medians come from the untraced passes of the run
    stages = stage_medians(result["passes"], speed)
    metrics = {name: stages[name] for name in ("integrate_s", "adjoint_s", "verify_s")}
    metrics.update((name, (median_of(name), unit))
                   for name, unit in UNITS.items() if name != "analysis.pointwise_s")
    metrics["analysis.verify_peak_mb"] = (max(result["verify_peak_bytes"]) / 2 ** 20, "MB")
    untraced = statistics.median(sum(p.values()) for p in result["passes"])
    traced_s = statistics.median(sum(p.values()) for p in result["traced_passes"])
    metrics["trace.overhead_ratio"] = (traced_s / untraced, "ratio")
    extra = {"analysis.pointwise_s": (median_of("analysis.pointwise_s"), "s"),
             "speed_factor": (speed, "ratio"),
             "traced_passes": (len(result["traced_passes"]), "count"),
             "untraced_passes": (len(result["passes"]), "count")}
    return metrics, extra


def measure(args, trace_file):
    """Warm-up pass, accuracy checks and the timed passes of one workload in
    this process: (gate, result), where result holds what the metrics need."""
    if not (SRC / "bdfadjoint" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'bdfadjoint'}")
    sys.path.insert(0, str(SRC))
    import bdfadjoint
    from bdfadjoint import bdf, cli, problems, serialize

    if SRC.resolve() not in Path(bdfadjoint.__file__).resolve().parents:
        raise BenchError(f"bdfadjoint imported from {bdfadjoint.__file__}, not {SRC}")

    gate, calibration = pipeline.Gate(), Calibration()
    result = {"versions": pipeline.library_versions(), "passes": [], "traced_passes": []}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-seed{args.seed}-",
                                     dir=WORK) as workdir:
        wl = workloads.build(args.workload, args.seed, workdir, args.size)
        if pipeline.run_pass(cli, wl, gate, calibration=calibration) is not None:
            result.update(pipeline.reference_errors(bdf, serialize, problems, wl, gate))
        if gate.failures:
            return gate, result
        reference = pipeline.digests(wl)
        if args.trace == 0:
            result["passes"], _ = pipeline.measure(
                cli, wl, gate, args.seconds, pipeline.MIN_PASSES, reference, calibration)
            # the peak of this process, which ran nothing but this workload
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer = Tracer()
            result["passes"], result["traced_passes"] = pipeline.measure(
                cli, wl, gate, args.seconds, pipeline.MIN_PASSES_TRACED, reference,
                calibration, tracer)
            if not gate.failures:
                pipeline.verify_under_tracemalloc(cli, wl, gate, tracer)
            result["layers"] = tracer.per_pass()
            result["verify_peak_bytes"] = tracer.verify_peak_bytes
            trace_file.parent.mkdir(exist_ok=True)
            tracer.write(trace_file)
    result["speed_factor"] = calibration.speed_factor()
    return gate, result


def run(args):
    trace_file = WORK / "traces" / f"{args.workload}.json"
    gate, result = measure(args, trace_file)
    failures = gate.failures
    summary = {"correct": not failures, "attempted": gate.attempted,
               "failed": len(failures), "metrics": {}}
    if failures:
        for failure in failures:
            sys.stderr.write(f"check failed: {failure}\n")
    elif args.trace == 0:
        metrics, extra = end_to_end(result, setup_times(SETUP_PROBES[args.size]))
    else:
        metrics, extra = per_layer(result)
        extra["trace_file"] = (str(trace_file.relative_to(ROOT)), "path")

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpu": cpu_model(), **result["versions"],
        **PINNED, "load": "closed loop, 1 process, 1 client",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if not failures:
        for name, (value, unit) in {**metrics, **extra}.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name} = {shown} {unit}")
        summary["metrics"] = {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}
    print(f"checks = {summary['attempted']} count")
    print(f"failed_frac = {summary['failed'] / max(summary['attempted'], 1):.6g} ratio")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the bdfadjoint CLI pipeline on one workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="small: reduced inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still stops its set-up probe and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(DEADLINE_S)
    try:
        return run(args)
    except (BenchError, OverBudget) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
