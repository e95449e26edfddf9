"""JSON/CSV serialization for tapes, adjoint results and verification reports.

All documents are versioned and deterministic: single-line JSON with sorted
keys, and nothing time- or environment-dependent is written.  orjson writes
every JSON document and every adjoint CSV row, each float as the shortest
decimal that round-trips (the digits of Python's repr, in orjson's notation:
0.00001 for 1e-05, 1e16 for 1e+16).  Identical inputs therefore produce
byte-identical files.  orjson also reads every document and reproduces the
exact binary floating-point values; it returns an integer beyond 64 bits as
the equal float.  A document orjson refuses (NaN or Infinity tokens, a number
beyond binary64, a lone surrogate) cannot be written by this package, so only
a hand-edited one reaches the standard json module, which reads it.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import orjson

from .adjoint import DiscreteAdjoints
from .analysis import (COEFFICIENT_TOL, JACOBIAN_TOL, ConvergenceTable,
                       KktResidualReport)
from .bdf import IntegrationTape, TimeGrid

__all__ = [
    "FORMAT_VERSION",
    "ADJOINT_VERSION",
    "save_tape",
    "load_tape",
    "tape_sha256",
    "save_adjoint_results",
    "load_adjoint_results",
    "write_adjoint_csv",
    "save_kkt_report",
    "write_convergence_csv",
]

FORMAT_VERSION = 1    # tapes and KKT reports
ADJOINT_VERSION = 2   # adjoint documents, bound to their tape by its digest
TAPE_FORMAT = "bdf-tape"
ADJOINT_FORMAT = "bdf-adjoint"
KKT_FORMAT = "bdf-kkt"


def _dump(doc, path):
    """Write doc as one line of sorted-key JSON.  A value orjson cannot
    encode (an integer beyond 64 bits) raises ValueError before the file is
    opened."""
    try:
        data = orjson.dumps(
            doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot encode {path}: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(data)


def _load_checked(path, expected_format, version=FORMAT_VERSION):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        # NaN tokens of a hand-edited file: json reads them, verify refuses them
        doc = json.loads(data.decode())
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ValueError(f"{path}: not a {expected_format} document")
    if doc.get("version") != version:
        raise ValueError(
            f"{path}: unsupported version {doc.get('version')!r} "
            f"(supported: {version})"
        )
    return doc


def tape_to_dict(tape: IntegrationTape) -> dict:
    doc = {
        "format": TAPE_FORMAT,
        "version": FORMAT_VERSION,
        "problem": {
            "name": tape.problem_name,
            "params": tape.problem_params,
            "dimension": tape.dimension,
        },
        "mode": tape.mode,
        "driver_params": tape.driver_params,
        "nodes": tape.grid.nodes.tolist(),
        "orders": tape.grid.orders.tolist(),
        "states": tape.states.tolist(),
        "newton": {
            "iterations": tape.newton_iterations.tolist(),
            "residuals": tape.newton_residuals.tolist(),
        },
    }
    if tape.error_estimates is not None:
        doc["error_estimates"] = np.asarray(tape.error_estimates).tolist()
    return doc


def save_tape(tape: IntegrationTape, path) -> None:
    _dump(tape_to_dict(tape), path)


def load_tape(path) -> IntegrationTape:
    """Rebuild a tape from JSON.  The coefficients and the Newton tolerances
    are derived, not read (bit-identical, since the nodes and states
    round-trip exactly); a version-1 file that still carries
    `newton.tolerances` (the earlier layout) loads with them ignored."""
    doc = _load_checked(path, TAPE_FORMAT)
    newton = doc["newton"]
    # TimeGrid and IntegrationTape convert and shape-check the lists
    tape = IntegrationTape(
        problem_name=doc["problem"]["name"],
        problem_params=doc["problem"]["params"],
        dimension=int(doc["problem"]["dimension"]),
        mode=doc["mode"],
        grid=TimeGrid(nodes=doc["nodes"], orders=doc["orders"]),
        states=doc["states"],
        newton_iterations=newton["iterations"],
        newton_residuals=newton["residuals"],
        error_estimates=doc.get("error_estimates"),
        driver_params=doc.get("driver_params", {}),
    )
    # derived now, so that a tape whose driver's rule cannot be applied (an
    # unknown mode, an adaptive run without rtol) is refused at load
    tape.newton_tolerances
    return tape


def tape_sha256(path) -> str:
    """Hex SHA-256 of a tape file's bytes: the digest that binds an adjoint
    document to the one tape it was computed from."""
    import hashlib   # here, so that importing the CLI does not load _hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def adjoint_results_to_dict(digest, adjoints: DiscreteAdjoints, weak) -> dict:
    return {
        "format": ADJOINT_FORMAT,
        "version": ADJOINT_VERSION,
        "tape_sha256": digest,
        "lambdas": adjoints.lambdas.tolist(),
        "gradient": adjoints.gradient.tolist(),
        "jumps": {"sizes": weak.jump_sizes.tolist()},
    }


def save_adjoint_results(digest, adjoints, weak, path) -> None:
    """Write the adjoints and weak adjoint of the tape whose file has the
    SHA-256 `digest` (see :func:`tape_sha256`)."""
    _dump(adjoint_results_to_dict(digest, adjoints, weak), path)


def load_adjoint_results(path) -> dict:
    """Returns {"tape_sha256": str, "adjoints": DiscreteAdjoints,
    "jump_sizes": ndarray} as stored; the grid comes from the tape."""
    doc = _load_checked(path, ADJOINT_FORMAT, ADJOINT_VERSION)
    return {
        "tape_sha256": doc["tape_sha256"],
        "adjoints": DiscreteAdjoints(
            lambdas=np.array(doc["lambdas"], dtype=float),
            gradient=np.array(doc["gradient"], dtype=float),
        ),
        "jump_sizes": np.array(doc["jumps"]["sizes"], dtype=float),
    }


def write_adjoint_csv(tape, adjoints, weak, path) -> None:
    """Rows (t_n, lambda_n components, Lambda^h(t_n) components), n = 1..N."""
    d = tape.dimension
    header = (["t"]
              + [f"lambda_{j + 1}" for j in range(d)]
              + [f"Lambda_{j + 1}" for j in range(d)])
    rows = np.column_stack([tape.grid.nodes[1:], adjoints.lambdas,
                            np.cumsum(weak.jump_sizes, axis=0)]).tolist()
    # a row's JSON array without its brackets is its CSV line; \r\n as csv writes
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(orjson.dumps(row)[1:-1] + b"\r\n" for row in rows)


def kkt_report_to_dict(report: KktResidualReport) -> dict:
    return {
        "format": KKT_FORMAT,
        "version": FORMAT_VERSION,
        "nominal_residual": report.nominal_residual,
        "adjoint_residual": report.adjoint_residual,
        "initial_residual": report.initial_residual,
        "coefficient_defect": report.coefficient_defect,
        "jacobian_defect": report.jacobian_defect,
        "thresholds": {
            "nominal": report.nominal_threshold,
            "adjoint": report.adjoint_threshold,
            "initial": report.initial_threshold,
            "coefficient": COEFFICIENT_TOL,
            "jacobian": JACOBIAN_TOL,
        },
        "worst": {
            "nominal": {"step": report.nominal_worst_step,
                        "t": report.nominal_worst_time},
            "adjoint": {"step": report.adjoint_worst_step,
                        "t": report.adjoint_worst_time},
            "jacobian": {"step": report.jacobian_worst_step,
                         "t": report.jacobian_worst_time},
        },
        "passed": report.passed,
    }


def save_kkt_report(report: KktResidualReport, path) -> None:
    _dump(kkt_report_to_dict(report), path)


def write_convergence_csv(table: ConvergenceTable, path) -> None:
    """CSV with the parameter column followed by (error, order) column pairs."""
    names = list(table.errors)
    header = [table.parameter]
    for name in names:
        header += [f"error_{name}", f"order_{name}"]
    orders = {name: table.orders(name) for name in names}
    with open(path, "w", newline="") as fh:
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
