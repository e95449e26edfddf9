"""Command-line front end: integrate / adjoint / converge / verify.

Exit codes: 0 success, 1 usage or configuration error, 2 solver failure,
3 verification failure.  Options may also be supplied through a plain-text
key=value config file with section headers (--config); command-line flags
win over config values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import pickle
import signal
import sys
import warnings
from pathlib import Path

import numpy as np

from .adjoint import DiscreteAdjoints, adjoint_sweep
from .analysis import (ConvergenceTable, fit_order, forward_checks, pointwise_error,
                       verify_kkt)
from .bdf import (ADAPTIVE_ATOL, MAX_ORDER, SolverError, integrate_adaptive,
                  integrate_nonadaptive)
from .problems import get_problem
from .serialize import (load_adjoint_results, load_tape, save_adjoint_results,
                        save_kkt_report, save_tape, staged, tape_sha256,
                        write_adjoint_csv, write_convergence_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):   # no abbreviations: adjoint's --p is not --problem
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_vector(text):
    return list(map(float, text.replace(",", " ").split()))


def _parse_matrix(text):
    """The `;`-separated rows of text as an array, parsed in one loadtxt
    call; an empty row, which loadtxt would skip, is refused first."""
    rows = text.replace(",", " ").replace("\n", " ").split(";")
    if not all(row.strip() for row in rows):
        raise ValueError("matrix has an empty row")
    return np.loadtxt(rows, ndmin=2, comments=None)


class _Settings:
    """Flag values layered over config-file values (flags win)."""

    def __init__(self, ns):
        self.flags = vars(ns)
        self.cfg = {}
        path = ns.config
        if path is not None:
            if not Path(path).is_file():
                raise _UsageError(f"config file not found: {path}")
            parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
            parser.optionxform = str  # keep key case (A vs a)
            try:
                parser.read(path)
            except configparser.Error as exc:
                raise _UsageError(f"bad config file {path}: {exc}") from exc
            for section in parser.sections():
                for key, value in parser.items(section):
                    self.cfg[key.replace("-", "_")] = value

    def get(self, key, default=None, cast=None):
        value = self.flags.get(key)
        if value is None:
            value = self.cfg.get(key)
            if value is not None and cast is not None:
                try:
                    value = cast(value)
                except ValueError as exc:
                    raise _UsageError(f"config key {key}: {exc}") from exc
        if value is None:
            return default
        return value

    def get_list(self, key, cast=float):
        """Repeatable flag (already a list) or comma/space list in the config."""
        value = self.flags.get(key)
        if value:
            return list(value)
        raw = self.cfg.get(key)
        if raw is None:
            return []
        try:
            return [cast(x) for x in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise _UsageError(f"config key {key}: {exc}") from exc


# Problem parameters by registry name, with the cast of their config-file
# strings; the defaults of the ones not given live in the registry.
_PARAM_CASTS = {
    "catenary": {"p": float, "A": float, "tf": float},
    "linear": {"a": _parse_matrix, "y0": _parse_vector, "t0": float,
               "tf": float, "c": _parse_vector},
}


def _build_problem(settings):
    name = settings.get("problem", default="catenary")
    params = {}
    for key, cast in _PARAM_CASTS.get(name, {}).items():
        value = settings.get(key, cast=cast)
        if value is not None:
            params[key] = value
    try:
        return get_problem(name, **params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _integration_setup(settings):
    """(mode, driver, kwargs) of a single run; the driver checks the values."""
    mode = settings.get("mode", default="nonadaptive")
    if mode not in ("nonadaptive", "adaptive"):
        raise _UsageError(f"mode must be 'nonadaptive' or 'adaptive', got {mode!r}")
    if mode == "nonadaptive":
        order = settings.get("order", cast=int)
        h = settings.get("h", cast=float)
        if order is None or h is None:
            raise _UsageError("nonadaptive mode requires --order and --h")
        return mode, integrate_nonadaptive, {"k": order, "h": h}
    rtol = settings.get("rtol", cast=float)
    atol = settings.get("atol", default=ADAPTIVE_ATOL, cast=float)
    if rtol is None:
        raise _UsageError("adaptive mode requires --rtol")
    return mode, integrate_adaptive, {"rtol": rtol, "atol": atol}


def _outputs(settings, default, inputs=(), csv=False):
    """--out (else default) and, with csv, its .csv sibling, refused before
    anything is read or written if one resolves to the file of --config, of
    a setting named in inputs or of the other output."""
    out = settings.get("out", default=default)
    outputs = [("--out", out)] + [("the CSV", str(Path(out).with_suffix(".csv")))] * csv
    files = {}
    for label, path in [(f"--{key.replace('_', '-')}", settings.get(key))
                        for key in ("config", *inputs) if settings.get(key)] + outputs:
        try:
            real = os.path.realpath(path)
        except ValueError as exc:   # an embedded NUL
            raise _UsageError(f"bad path {path!r}: {exc}") from exc
        if real in files and (label, path) in outputs:
            raise _UsageError(f"{files[real]} would be overwritten by {label} {path}")
        files.setdefault(real, f"{label} {path}")
    return [path for _, path in outputs]


def cmd_integrate(ns) -> int:
    settings = _Settings(ns)
    [out] = _outputs(settings, "tape.json")
    problem, _ = _build_problem(settings)
    mode, driver, kwargs = _integration_setup(settings)
    try:
        tape = driver(problem, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write((save_tape, tape, out))
    orders = tape.grid.orders
    print(f"problem={problem.name} mode={mode} steps N={tape.n_steps} "
          f"nodes={tape.grid.nodes.size}")
    print(f"orders in [{orders.min()}, {orders.max()}]; "
          f"newton iterations total={int(tape.newton_iterations.sum())}")
    print(f"tape written to {out}")
    return EXIT_OK


def _write(*saves):
    """save(*args, part) for each (save, *args, path) of saves, part the
    stand-in of the output path (see serialize.staged; the writer stages
    its own file onto it): the outputs are replaced only once every save
    has returned, so that a stage refused on one of them leaves all as they
    were.  A path that cannot be written, a directory among them, is a
    usage error that names it."""
    path = saves[0][-1]
    try:
        with staged(*(save[-1] for save in saves)) as parts:
            for (save, *args, path), part in zip(saves, parts):   # path: for the error
                save(*args, part)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_input(settings, key, load, what):
    """load(path) for the file named by setting `key`; a missing setting, an
    unreadable file or a foreign or malformed document is a usage error."""
    path = settings.get(key)
    if path is None:
        raise _UsageError(f"--{key.replace('_', '-')} is required")
    try:
        return load(path)
    # what reading a JSON document of the wrong shape or types can raise
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            OverflowError) as exc:
        raise _UsageError(f"cannot load {what}: {exc}") from exc


def _read_tape(path):
    """(tape, hex SHA-256 of its file) from one read of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_tape(path, data), tape_sha256(data)


def _problem_for_tape(tape, settings=None):
    if settings is not None:
        declared = settings.get("problem")
        if declared is not None and declared != tape.problem_name:
            raise _UsageError(
                f"tape was recorded for problem {tape.problem_name!r}, "
                f"not {declared!r}")
    try:
        problem, reference = get_problem(tape.problem_name, **tape.problem_params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(f"cannot rebuild tape problem: {exc}") from exc
    if problem.dimension != tape.dimension:
        raise _UsageError("tape dimension does not match the problem")
    return problem, reference


def cmd_adjoint(ns) -> int:
    settings = _Settings(ns)
    out, csv_path = _outputs(settings, "adjoint.json", ["tape"], csv=True)
    tape, digest = _load_input(settings, "tape", _read_tape, "tape")
    problem, _ = _problem_for_tape(tape, settings)
    try:   # verify's records of the forward system, y_0 = y_s and the N steps
        failed = [check for check in forward_checks(problem, tape) if not check.passed]
    except ValueError as exc:   # a residual is NaN or infinite
        failed = [exc]
    if failed:
        raise _UsageError(f"tape failed validation against its problem: {failed[0]}")
    adjoints = adjoint_sweep(problem, tape)
    _write((save_adjoint_results, digest, adjoints, out),
           (write_adjoint_csv, adjoints, csv_path))   # both outputs or neither
    grad = ", ".join(map(repr, adjoints.gradient.tolist()))
    lam_n = ", ".join(map(repr, adjoints.lambdas[-1].tolist()))
    print(f"adjoint sweep over N={tape.n_steps} steps")
    print(f"gradient=[{grad}]")
    print(f"lambda_N=[{lam_n}]")
    print(f"results written to {out} and {csv_path}")
    return EXIT_OK


def cmd_converge(ns) -> int:
    settings = _Settings(ns)
    [out] = _outputs(settings, "convergence.csv")
    problem, reference = _build_problem(settings)
    mode = settings.get("mode", default="nonadaptive")
    probes = settings.get_list("probe")
    for p in probes:   # before the t_f filter, which would drop a NaN
        if not problem.initial_time <= p <= problem.final_time:
            raise _UsageError(f"probe time {p} outside the integration interval")
    probes = [p for p in probes if abs(p - problem.final_time) > 1e-12]

    parameter = {"nonadaptive": "h", "adaptive": "rtol"}.get(mode)
    if parameter is None:
        raise _UsageError(f"mode must be 'nonadaptive' or 'adaptive', got {mode!r}")
    values = settings.get_list(parameter)
    if parameter == "h":   # the order of an h sweep, the atol of an rtol sweep
        setting = settings.get("order", default=2, cast=int)
        if not 1 <= setting <= MAX_ORDER:
            raise _UsageError(f"order must be in [1, {MAX_ORDER}], got {setting}")
    else:
        setting = settings.get("atol", default=ADAPTIVE_ATOL, cast=float)
        if not 0.0 < setting < np.inf:   # NaN fails too
            raise _UsageError(f"tolerances must be positive and finite, got atol={setting}")
    if len(values) < 2:
        raise _UsageError(f"need at least 2 sweep values for --{parameter}")
    if not all(0.0 < v < np.inf for v in values):   # NaN fails too
        raise _UsageError("sweep values must be positive and finite")
    values = sorted(values, reverse=True)
    # the same at every sweep point, so evaluated once per time
    times = [problem.final_time] + probes
    exact = {t: reference.weak_adjoint(t) for t in times}
    reference = dataclasses.replace(reference, weak_adjoint=exact.__getitem__)

    def sweep_point(i):   # (errors at times, None), or (NaNs, the failure line)
        try:
            tape = (integrate_nonadaptive(problem, setting, values[i]) if parameter == "h"
                    else integrate_adaptive(problem, values[i], setting))
            adjoints = adjoint_sweep(problem, tape)
            return [pointwise_error(adjoints, reference, t) for t in times], None
        except (SolverError, ValueError) as exc:
            return [np.nan] * len(times), f"sweep point {parameter}={values[i]} failed: {exc}\n"

    # a priori costs: an h point's main steps; an rtol point's rank, tightest first
    span = problem.final_time - problem.initial_time
    points = _map_forked(sweep_point, [span / v if parameter == "h" else rank
                                       for rank, v in enumerate(values, 1)])
    failed = [line for _, line in points if line is not None]
    sys.stderr.writelines(failed)
    if len(failed) == len(values):
        raise SolverError("every sweep point failed")

    names = ["tf"] + [f"interior{'' if i == 0 else f'_{i + 1}'}"
                      for i in range(len(probes))]
    table = ConvergenceTable(parameter=parameter, values=np.array(values), errors={
        name: np.array([e[j] for e, _ in points]) for j, name in enumerate(names)})
    _write((write_convergence_csv, table, out))
    with warnings.catch_warnings(record=True) as caught:   # fit_order warns of excluded rows
        warnings.simplefilter("always")
        for name in names:
            try:
                print(f"fitted order ({name}): {fit_order(table, name):.3f}")
            except ValueError as exc:
                print(f"fitted order ({name}): skipped ({exc})")
    sys.stderr.writelines(f"{w.message}\n" for w in caught)   # as one line each
    print(f"table written to {out}")
    return EXIT_OK


def _map_forked(func, costs):
    """[func(i) for i in range(len(costs))] in a process per CPU of the affinity
    mask (at most one per item), items going, largest cost first, to the least
    loaded.  Forked children pickle their results to a pipe, or write the
    traceback of what they raised to fd 2, and end by os._exit, which runs no
    atexit hook, finalizer or flush of inherited stdio."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(costs), len(os.sched_getaffinity(0)) if forks else 1)
    shares, loads = [[] for _ in range(workers)], [0.0] * workers
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += costs[i]
    pids, pipes, payloads = [], [], None
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pids.append(os.fork())
            if not pids[-1]:   # the child
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump({i: func(i) for i in share}, pipe)
                    os._exit(0)
                except Exception:
                    import traceback   # here only: importing the CLI stays as it was
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(1)
            os.close(write)
            pipes.append(open(read, "rb"))
        results = {i: func(i) for i in shares[0]}
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        if payloads is None:   # failed here: stop the workers before reaping them
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, payload in zip(codes, payloads):
        if code:
            raise SolverError(f"a sweep worker ended with exit status {code}")
        results.update(pickle.loads(payload))
    return [results[i] for i in range(len(costs))]


def cmd_verify(ns) -> int:
    settings = _Settings(ns)
    [out] = _outputs(settings, "kkt.json", ["tape", "adjoint_file"])
    tape, digest = _load_input(settings, "tape", _read_tape, "tape")
    record = _load_input(settings, "adjoint_file", load_adjoint_results,
                         "adjoint results")

    if record["tape_sha256"] != digest:
        raise _UsageError("adjoint file does not belong to this tape")
    if record["gradient"].shape != (tape.dimension,):
        raise _UsageError("adjoint file does not match the tape dimensions")
    try:   # one multiplier per step of the tape's grid, of the gradient's length
        adjoints = DiscreteAdjoints(tape.grid.nodes, record["lambdas"], record["gradient"])
    except ValueError as exc:
        raise _UsageError("adjoint file does not match the tape dimensions") from exc

    problem, _ = _problem_for_tape(tape, settings)
    try:
        checks = verify_kkt(problem, tape, adjoints)
    except ValueError as exc:   # a residual is NaN or infinite
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFY
    failed = [check.name for check in checks if not check.passed]
    # Multipliers that fail a check are reported below (exit 3); a jump table
    # that is not h * lambda of multipliers that pass is a malformed file.
    if not failed and not np.array_equal(record["jump_sizes"], adjoints.jump_sizes):
        raise _UsageError("adjoint file's jump table does not match its multipliers")

    _write((save_kkt_report, checks, out))
    print(*checks, sep="\n")
    print(f"report written to {out}")
    if failed:
        sys.stderr.write(f"verification failed: {failed[0]} above threshold\n")
        return EXIT_VERIFY
    return EXIT_OK


def _add_common(parser, builds_problem=False):
    parser.add_argument("--config", help="key=value config file with [section] headers")
    parser.add_argument("--problem", help="problem name (catenary, linear)")
    if builds_problem:
        parser.add_argument("--p", type=float, help="catenary parameter p > 0")
        parser.add_argument("--A", type=float, help="catenary parameter A")
        parser.add_argument("--tf", type=float, help="final time")
    parser.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bdfadjoint",
                     description="BDF integration with discrete adjoints")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run one integration, write a tape")
    _add_common(p_int, builds_problem=True)
    p_int.add_argument("--mode", help="nonadaptive | adaptive")
    p_int.add_argument("--order", type=int, help="BDF order k (nonadaptive)")
    p_int.add_argument("--h", type=float, help="main stepsize (nonadaptive)")
    p_int.add_argument("--rtol", type=float, help="relative tolerance (adaptive)")
    p_int.add_argument("--atol", type=float, help="absolute tolerance (adaptive)")
    p_int.set_defaults(func=cmd_integrate)

    p_adj = sub.add_parser("adjoint", help="adjoint sweep over a recorded tape")
    _add_common(p_adj)
    p_adj.add_argument("--tape", help="tape file produced by 'integrate'")
    p_adj.set_defaults(func=cmd_adjoint)

    p_con = sub.add_parser("converge", help="error sweep over h or rtol")
    _add_common(p_con, builds_problem=True)
    p_con.add_argument("--mode", help="nonadaptive | adaptive")
    p_con.add_argument("--order", type=int, help="BDF order k (nonadaptive)")
    p_con.add_argument("--h", type=_parse_vector, help="comma-separated h sweep")
    p_con.add_argument("--rtol", type=_parse_vector, help="comma-separated rtol sweep")
    p_con.add_argument("--atol", type=float, help="absolute tolerance (adaptive)")
    p_con.add_argument("--probe", type=float, action="append",
                       help="error evaluation time (repeatable)")
    p_con.set_defaults(func=cmd_converge)

    p_ver = sub.add_parser("verify", help="check optimality-system residuals")
    _add_common(p_ver)
    p_ver.add_argument("--tape", help="tape file")
    p_ver.add_argument("--adjoint-file", dest="adjoint_file",
                       help="adjoint JSON produced by 'adjoint'")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every stage tests finiteness itself and refuses in one line, which
        # NumPy's floating-point warnings would only precede on stderr
        with np.errstate(all="ignore"):
            return ns.func(ns)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
