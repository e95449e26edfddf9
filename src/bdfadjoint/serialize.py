"""JSON/CSV serialization for tapes, adjoint results and verification reports.

All documents are versioned and deterministic: single-line JSON with sorted
keys (a tape's being its header line), and nothing time- or
environment-dependent is written.  A tape has one layout for both drivers:
its nodes, orders, states and Newton iteration counts, with the problem, the
mode and the driver's parameters; what those determine (coefficients, Newton
tolerances, step residuals, error estimates) is derived on use, not written.
A tape file is its header line, space-padded so that the payload after its
newline starts 8-byte aligned: the exact little-endian C-ordered bytes of
the nodes, orders, states and Newton iteration counts, back to back in that
order, each described in the header by {"dtype": "<f8" or "<i8", "shape"}
alone (NumPy's .npy idea for several arrays).  The adjoint document's
multipliers are their bytes in base64, {"dtype", "shape", "base64"}.  Either
way an array is read back as a read-only view of the file's bytes, so NaN
payloads, signed zeros and subnormals round-trip bit for bit.  orjson writes
everything else, and the adjoint CSV, each float as the shortest decimal that
round-trips (the digits of Python's repr, in orjson's notation: 0.00001 for
1e-05, 1e16 for 1e+16).  Identical inputs therefore produce byte-identical
files.  orjson alone reads every document and reproduces the exact binary
floating-point values; it returns an integer beyond 64 bits as the equal
float.  A document orjson refuses (NaN or Infinity tokens, a number beyond
binary64, a lone surrogate) cannot be written by this package, and is
refused with ValueError.  Every writer writes a stand-in beside its output
and replaces the output with it only once it is complete (:func:`staged`),
so that a writer that fails or is killed leaves the output as it was.
"""

from __future__ import annotations

import binascii
import contextlib
import csv
import math
import os
import stat

import numpy as np
import orjson

from .adjoint import DiscreteAdjoints
from .analysis import ConvergenceTable
from .bdf import IntegrationTape, TimeGrid

__all__ = [
    "FORMAT_VERSION",
    "ADJOINT_VERSION",
    "KKT_VERSION",
    "save_tape",
    "load_tape",
    "tape_sha256",
    "save_adjoint_results",
    "load_adjoint_results",
    "write_adjoint_csv",
    "save_kkt_report",
    "write_convergence_csv",
    "staged",
]

FORMAT_VERSION = 4    # tapes: a JSON header line, then the arrays' raw bytes
ADJOINT_VERSION = 3   # adjoint documents, bound to their tape by its digest
KKT_VERSION = 2       # KKT reports, one record per check
TAPE_FORMAT = "bdf-tape"
ADJOINT_FORMAT = "bdf-adjoint"
KKT_FORMAT = "bdf-kkt"


def _contiguous(obj):
    """orjson's fallback: a non-C-contiguous array encodes as its copy."""
    if isinstance(obj, np.ndarray) and not obj.flags.c_contiguous:
        return np.ascontiguousarray(obj)
    raise TypeError(f"type {type(obj).__name__} is not JSON serializable")


@contextlib.contextmanager
def staged(*paths):
    """Stand-ins for the output paths, symlinks followed: each a new file
    in its output's directory, with the mode open(path, "w") leaves the
    output with (an existing file's own, else 0o666 less the umask), or,
    where the output exists and is not a regular file (/dev/null, a FIFO, a
    directory, which opening then refuses), the output itself, written in
    place.  When the body returns, the stand-ins replace their outputs in
    turn; whatever raises removes the stand-ins that are left, so that the
    outputs keep their bytes.  Nothing is synced to disk: the guarantee
    covers a failed or killed writer, not a power loss."""
    parts, pending = [], []
    try:
        for path in map(os.path.realpath, paths):
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                parts.append(path)
                continue
            head, tail = os.path.split(path)
            while True:   # a fresh name, as mkstemp picks one; the kernel applies the umask
                part = os.path.join(head, f".{tail}.{os.urandom(8).hex()}")
                with contextlib.suppress(FileExistsError):
                    os.close(os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    break
            pending.append((part, path))
            if mode is not None:
                os.chmod(part, stat.S_IMODE(mode))
            parts.append(part)
        yield parts
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    finally:
        for part, _ in pending:
            with contextlib.suppress(OSError):   # not to hide what raised
                os.unlink(part)


def _dump(doc, path, payload=()):
    """Write doc as one line of sorted-key JSON, then the arrays of payload
    as their bytes, the line space-padded so that they start 8-byte aligned.
    A value orjson cannot encode (an integer beyond 64 bits) raises
    ValueError before anything is written."""
    try:
        data = orjson.dumps(doc, default=_contiguous, option=orjson.OPT_SORT_KEYS
                            | orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot encode {path}: {exc}") from exc
    pad = b" " * (-(len(data) + 1) % 8) if payload else b""
    with staged(path) as [part], open(part, "wb") as fh:
        fh.writelines([data, pad + b"\n", *payload])


def _load_checked(path, expected_format, version=FORMAT_VERSION, data=None):
    """The document of the file at path, whose JSON is data if the caller
    has read it already, checked for its format and version."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ValueError(f"{path}: not a {expected_format} document")
    if doc.get("version") != version:
        raise ValueError(
            f"{path}: unsupported version {doc.get('version')!r} "
            f"(supported: {version})"
        )
    return doc


def _encoded(values, dtype):
    """values as {"dtype", "shape", "base64"}: the exact bytes of their
    C-ordered array of that dtype, "<f8" or "<i8", in base64."""
    array = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": array.shape,
            "base64": binascii.b2a_base64(array, newline=False).decode("ascii")}


def _array(doc, name, dtype, ndim=1, payload=None):
    """The array of doc[name], a read-only view of the bytes its "base64"
    encodes (see :func:`_encoded`) or, with a payload, of the payload's
    first bytes, as many as its shape needs.  Another dtype, a shape that is
    not ndim non-negative integers, and bytes of another length than the
    shape needs are refused with ValueError."""
    field = doc[name]
    if not isinstance(field, dict) or field.get("dtype") != dtype:
        raise ValueError(f"{name}: not an array of dtype {dtype}")
    shape = field.get("shape")
    if (not isinstance(shape, list) or len(shape) != ndim
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{name}: shape {shape!r} is not {ndim} non-negative integers")
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if payload is None:
        try:
            data = binascii.a2b_base64(field["base64"])
        except binascii.Error as exc:
            raise ValueError(f"{name}: {exc}") from exc
    else:
        data = payload[:size]
    if len(data) != size:
        raise ValueError(f"{name}: {len(data)} bytes do not fill shape {shape}")
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def save_tape(tape: IntegrationTape, path) -> None:
    payload = [np.ascontiguousarray(a, dtype) for a, dtype in (
        (tape.grid.nodes, "<f8"), (tape.grid.orders, "<i8"), (tape.states, "<f8"),
        (tape.newton_iterations, "<i8"))]
    nodes, orders, states, iterations = ({"dtype": a.dtype.str, "shape": a.shape}
                                         for a in payload)
    _dump({
        "format": TAPE_FORMAT,
        "version": FORMAT_VERSION,
        "problem": {"name": tape.problem_name, "params": tape.problem_params},
        "mode": tape.mode,
        "driver_params": tape.driver_params,
        "nodes": nodes, "orders": orders, "states": states,
        "newton": {"iterations": iterations},
    }, path, payload)


def load_tape(path, data=None) -> IntegrationTape:
    """Rebuild the tape of the file at path, whose bytes are data if the
    caller has read them already.  Its arrays are read-only views of those
    bytes, in save_tape's order, which they must fill exactly; the dimension,
    the coefficients and the Newton tolerances are derived, not read, and
    keys the layout does not have are ignored."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    end = data.find(b"\n") + 1 or len(data)   # past the header line
    doc = _load_checked(path, TAPE_FORMAT, FORMAT_VERSION, memoryview(data)[:end])
    if data[end - 1:end] != b"\n":   # after the version: an older tape is one document
        raise ValueError(f"{path}: no header line")
    payload, arrays = memoryview(data)[end:], []
    for field in ((doc, "nodes", "<f8", 1), (doc, "orders", "<i8", 1),
                  (doc, "states", "<f8", 2), (doc["newton"], "iterations", "<i8", 1)):
        arrays.append(_array(*field, payload))
        payload = payload[arrays[-1].nbytes:]
    if len(payload):
        raise ValueError(f"{path}: {len(payload)} payload bytes after the last array")
    nodes, orders, states, iterations = arrays
    # TimeGrid and IntegrationTape check the shapes against each other
    tape = IntegrationTape(
        problem_name=doc["problem"]["name"], problem_params=doc["problem"]["params"],
        mode=doc["mode"], grid=TimeGrid(nodes=nodes, orders=orders), states=states,
        newton_iterations=iterations, driver_params=doc.get("driver_params", {}))
    # derived now, so that a tape whose driver's rule cannot be applied (an
    # unknown mode, an adaptive run without rtol) is refused at load
    tape.newton_tolerances
    return tape


def tape_sha256(data) -> str:
    """Hex SHA-256 of the bytes of a tape file: the digest that binds an
    adjoint document to the one tape it was computed from."""
    import hashlib   # here, so that importing the CLI does not load _hashlib

    return hashlib.sha256(data).hexdigest()


def adjoint_results_to_dict(digest, adjoints: DiscreteAdjoints) -> dict:
    return {
        "format": ADJOINT_FORMAT,
        "version": ADJOINT_VERSION,
        "tape_sha256": digest,
        "lambdas": _encoded(adjoints.lambdas, "<f8"),
        # lists, as before: benchmarks/pipeline.py reads the gradient and the
        # jump sizes with json, and benchmarks/test_smoke.py perturbs this line
        "gradient": adjoints.gradient.tolist(),
        "jumps": {"sizes": adjoints.jump_sizes},
    }


def save_adjoint_results(digest, adjoints, path) -> None:
    """Write the adjoints and weak-adjoint jumps of the tape whose file has
    the SHA-256 `digest` (see :func:`tape_sha256`)."""
    _dump(adjoint_results_to_dict(digest, adjoints), path)


def load_adjoint_results(path) -> dict:
    """Returns {"tape_sha256": str, "lambdas", "gradient", "jump_sizes":
    ndarray} as stored, the multipliers a read-only view; the nodes are the
    tape's, so the caller builds the DiscreteAdjoints."""
    doc = _load_checked(path, ADJOINT_FORMAT, ADJOINT_VERSION)
    return {
        "tape_sha256": doc["tape_sha256"],
        "lambdas": _array(doc, "lambdas", "<f8", ndim=2),
        "gradient": np.array(doc["gradient"], dtype=float),
        "jump_sizes": np.array(doc["jumps"]["sizes"], dtype=float),
    }


def write_adjoint_csv(adjoints, path) -> None:
    """Rows (t_n, lambda_n components, Lambda^h(t_n) components), n = 1..N."""
    d = adjoints.lambdas.shape[1]
    header = (["t"]
              + [f"lambda_{j + 1}" for j in range(d)]
              + [f"Lambda_{j + 1}" for j in range(d)])
    block = np.column_stack([adjoints.nodes[1:], adjoints.lambdas,
                             adjoints.node_values[1:]])
    # each row of the block's JSON [[row],[row]], between its brackets, is a
    # CSV row; \r\n as csv writes
    body = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    rows, start = memoryview(body), 2
    with staged(path) as [part], open(part, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for _ in range(len(block)):
            end = body.find(b"]", start)
            fh.write(rows[start:end])
            fh.write(b"\r\n")
            start = end + 3


def kkt_report_to_dict(checks) -> dict:
    return {
        "format": KKT_FORMAT,
        "version": KKT_VERSION,
        "checks": {check.name: {"value": check.value, "threshold": check.threshold,
                                "passed": check.passed,
                                "worst": {"step": check.step, "t": check.t}}
                   for check in checks},
        "passed": all(check.passed for check in checks),
    }


def save_kkt_report(checks, path) -> None:
    _dump(kkt_report_to_dict(checks), path)


def write_convergence_csv(table: ConvergenceTable, path) -> None:
    """CSV with the parameter column followed by (error, order) column pairs."""
    names = list(table.errors)
    header = [table.parameter]
    for name in names:
        header += [f"error_{name}", f"order_{name}"]
    orders = {name: table.orders(name) for name in names}
    with staged(path) as [part], open(part, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(table.values):
            row = [repr(float(v))]
            for name in names:
                e = table.errors[name][i]
                row.append(repr(float(e)) if np.isfinite(e) else "nan")
                o = orders[name][i]
                row.append(repr(float(o)) if np.isfinite(o) else "")
            writer.writerow(row)
