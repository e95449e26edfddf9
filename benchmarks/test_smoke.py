"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload at ``--size small`` in both modes and checks that each
metric BENCHMARK.json names is printed with its unit.  Also checks, on
copies of the checkout, that the command exits 1 when the package writes a
wrong gradient into its adjoint file, and that it refuses to run without
the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "small"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for name in ("benchmarks", "src"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_broken_adjoint_file_fails_the_command(tmp_path):
    # A copy of the package whose adjoint files carry a gradient off by 1e-4:
    # the same problem and tape, so only the checks on the gradient catch it.
    copy_checkout(tmp_path)
    serialize = tmp_path / "src" / "bdfadjoint" / "serialize.py"
    text = serialize.read_text()
    line = '"gradient": adjoints.gradient.tolist(),'
    assert text.count(line) == 1
    serialize.write_text(text.replace(
        line, '"gradient": (adjoints.gradient * (1.0 + 1e-4)).tolist(),'))
    proc = run_benchmark(tmp_path, "catenary-fixed", 0)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}


def test_refuses_to_run_without_package_source(tmp_path):
    copy_checkout(tmp_path)
    shutil.rmtree(tmp_path / "src")
    proc = run_benchmark(tmp_path, "catenary-fixed", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
