"""SHA-256 of every output file and of the stdout of each benchmark workload's
CLI stages, so that a change which should leave outputs unchanged can be
checked against its parent.

    python3 tools/output_digests.py --seed S

For each workload of ``benchmarks/workloads.py`` the inputs for seed S are
built in a temporary directory, and the stages run in this process through
``bdfadjoint.cli.main``, from the ``src/`` next to this script.  One line is
printed per output file and per stage: ``<workload> <name> <sha256>``, where a
stage's line also carries its exit code.  A JSON output is hashed by its
parsed content, re-encoded as ``json.dumps(json.loads(text), sort_keys=True)``,
so that a change to the layout alone compares equal, and once more as bytes,
on a line ``<workload> <name>.bytes <sha256>``, so that a change to the bytes
alone shows; CSV files and stdout are hashed as bytes.  The temporary
directory's path is replaced by ``<workdir>`` in the stdout before hashing,
so the lines of two checkouts can be compared with ``diff``.  Nothing under
``benchmarks/`` is written.  BLAS and OpenMP run on one thread, as in the
benchmark, unless the environment sets a count:
``OPENBLAS_NUM_THREADS=2 python3 tools/output_digests.py --seed S`` shows
which digests depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# The benchmark pins BLAS/OpenMP to one thread; do the same before NumPy loads
# so that the digests are those of a benchmark pass, unless the environment
# sets a count, so that the digests' dependence on it can be shown.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from bdfadjoint import cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(path):
    """[(name, digest)] of one output file: a JSON file's parsed content and
    its bytes, another file's bytes."""
    if not path.is_file():
        return [(path.name, "missing")]
    raw = _sha256(path.read_bytes())
    if path.suffix != ".json":
        return [(path.name, raw)]
    parsed = json.dumps(json.loads(path.read_text()), sort_keys=True).encode()
    return [(path.name, _sha256(parsed)), (f"{path.name}.bytes", raw)]


def workload_digests(name, seed):
    """[(name, digest)] of one workload: each stage's exit code and stdout,
    then each output file."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build(name, seed, tmp)
        for stage, argv in wl.stages:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            stdout = out.getvalue().replace(tmp, "<workdir>")
            lines.append((f"{stage}.stdout(exit {rc})", _sha256(stdout.encode())))
        for path in wl.outputs:
            lines += _file_digests(path)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"bdfadjoint imported from {cli.__file__}, not {ROOT / 'src'}\n")
        return 2
    for name in workloads.NAMES:
        for item, digest in workload_digests(name, args.seed):
            print(f"{name} {item} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
