"""
Tests for the command-line interface.

Exit-code contract: 0 success, 1 usage/config errors, 2 solver failures,
3 verification failures.  All invocations go through main(argv) so the
tests see exactly what a shell user would.
"""

import base64
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfadjoint import (adjoint_sweep, bdf, get_problem, integrate_nonadaptive,
                        load_tape, save_adjoint_results, save_tape, tape_sha256)
from bdfadjoint.analysis import (COEFFICIENT_TOL, JACOBIAN_TOL, coefficient_defects,
                                 forward_checks)
import bdfadjoint.cli as cli_module
from bdfadjoint.cli import main
from conftest import (decode_array, earlier_tape_bytes, edit_array, edit_tape, encode_array,
                      read_tape, split_tape, tape_bytes, tape_field, write_tape)

CATENARY, _ = get_problem("catenary")


def _integrate(tmp_path, *extra):
    tape = tmp_path / "tape.json"
    rc = main(["integrate", "--problem", "catenary", "--mode", "nonadaptive",
               "--order", "2", "--h", "0.0625", "--out", str(tape), *extra])
    return rc, tape


def _rebind(adj, tape):
    """Bind the adjoint file to the tape file as it is now, after an edit,
    so that verify gets past the binding to the check under test."""
    doc = json.loads(adj.read_text())
    doc["tape_sha256"] = hashlib.sha256(tape.read_bytes()).hexdigest()
    adj.write_text(json.dumps(doc))


class TestIntegrate:
    def test_writes_tape(self, tmp_path, capsys):
        rc, tape = _integrate(tmp_path)
        assert rc == 0
        assert tape.is_file()
        out = capsys.readouterr().out
        assert "steps N=33" in out          # 2/0.0625 + 1 startup substep
        # the residuals are derived: adjoint gates them, verify reports them
        total = int(load_tape(tape).newton_iterations.sum())
        assert out.splitlines()[1] == f"orders in [1, 2]; newton iterations total={total}"

    def test_reference_step_count(self, tmp_path, capsys):
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--order", "2", "--h", str(2.0 ** -6),
                   "--out", str(tape)])
        assert rc == 0
        assert "steps N=129" in capsys.readouterr().out

    def test_adaptive_mode(self, tmp_path):
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--mode", "adaptive", "--rtol", "1e-6",
                   "--out", str(tape)])
        assert rc == 0
        assert split_tape(tape)[0]["mode"] == "adaptive"

    def test_missing_stepsize_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--order", "2",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_bad_mode_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--mode", "sometimes", "--order", "2",
                   "--h", "0.25", "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_unknown_problem_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--problem", "lorenz", "--order", "2",
                   "--h", "0.25", "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_noninteger_grid_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--order", "2", "--h", "0.3",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_singular_problem_is_solver_failure(self, tmp_path):
        """linear with a=100, h=0.01: the Newton matrix 1 - h*a is singular."""
        rc = main(["integrate", "--problem", "linear", "--config",
                   str(_write_config(tmp_path, "a = 100", "y0 = 1")),
                   "--tf", "1.0", "--order", "1", "--h", "0.01",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["--mode", "adaptive", "--rtol", "1e-6", "--atol", "nan"],
        ["--mode", "adaptive", "--rtol", "nan"],
        ["--mode", "adaptive", "--rtol", "0"],
        ["--mode", "adaptive", "--rtol", "1e-6", "--atol", "inf"],
        ["--mode", "adaptive", "--rtol", "inf"],
        ["--order", "2", "--h", "-1"],
        ["--order", "7", "--h", "0.25"],
    ], ids=["atol-nan", "rtol-nan", "rtol-0", "atol-inf", "rtol-inf",
            "h-negative", "order-7"])
    def test_bad_driver_value_is_usage_error(self, tmp_path, args):
        """The drivers' own checks refuse these, with exit 1 and no tape."""
        tape = tmp_path / "t.json"
        rc = main(["integrate", *args, "--out", str(tape)])
        assert rc == 1
        assert not tape.exists()

    @pytest.mark.parametrize("args, config, code", [
        (["--mode", "adaptive", "--rtol", "1e-6", "--A", "nan"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6", "--p", "nan"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6", "--tf", "inf"], None, 1),
        (["--order", "2", "--h", "0.25", "--tf", "inf"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6"], "a = nan", 2),
    ], ids=["A-nan", "p-nan", "adaptive-tf-inf", "nonadaptive-tf-inf",
            "linear-a-nan"])
    def test_nonfinite_problem_input_fails_fast(self, tmp_path, args, config,
                                                code):
        """Refused with one error line and no tape: a non-finite initial
        state, end time or p at construction (exit 1), and the NaN
        f(t_s, y_s) of a NaN matrix entry, which the first adaptive step
        divides by, under that name (exit 2).  Each runs in a fresh
        interpreter, so that a hang fails the test."""
        tape = tmp_path / "t.json"
        if config is not None:
            args = [*args, "--config",
                    str(_write_config(tmp_path, "problem = linear", config,
                                      "y0 = 1"))]
        out = _fresh_python(
            "import json, sys; from bdfadjoint.cli import main; "
            "sys.stderr = sys.stdout; print(main(json.loads(sys.argv[1])))",
            json.dumps(["integrate", *args, "--out", str(tape)]))
        message, rc = out.splitlines()
        assert int(rc) == code
        assert message.startswith("solver failure: non-finite f(t_s, y_s)"
                                  if code == 2 else "error: ")
        assert not tape.exists()

    @pytest.mark.parametrize("h", ["1e-9", "5e-324"])
    def test_step_count_beyond_tape_limit_is_usage_error(self, tmp_path,
                                                         capsys, h):
        """--h 1e-9 asks for 2e9 steps of the catenary and --h 5e-324 for
        infinitely many: one line of usage error and no tape, before any
        allocation (a MemoryError or OverflowError traceback before)."""
        tape = tmp_path / "t.json"
        assert main(["integrate", "--order", "2", "--h", h, "--out", str(tape)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: (t_f - t_s) / h = ") and err.count("\n") == 1
        assert f"tape limit of {bdf.MAX_STATE_VALUES} state values" in err
        assert not tape.exists()

    def test_relative_step_floor_is_named(self, tmp_path, capsys):
        """At t_f = 2^70 the adaptive first step, 1.675e8, is below the
        relative floor 1e3 eps max(|t|, |t_f|) = 2.621e8: exit 2 with one
        line that keeps the stepsize underflow prefix and names the floor
        and its value, and no tape."""
        tape = tmp_path / "t.json"
        assert main(["integrate", "--mode", "adaptive", "--rtol", "1e-4",
                     "--tf=1180591620717411303424", "--out", str(tape)]) == 2
        err = capsys.readouterr().err
        assert err == ("solver failure: stepsize underflow at t=0.0 (h=1.675e+08 below "
                       "the floor 1e3 eps max(|t|, |t_f|) = 2.621e+08) after step 0\n")
        assert not tape.exists()

    def test_tiny_interval_is_solver_failure(self, tmp_path):
        """At t_f = 1e-200 a product of node differences underflows to 0.0
        in the adaptive driver's stencil arithmetic: a fresh console run
        exits 2 with one stderr line that names it, no traceback (a
        ZeroDivisionError and exit 1 before), and no tape."""
        tape = tmp_path / "t.json"
        run = _fresh_process("-m", "bdfadjoint.cli", "integrate", "--mode", "adaptive",
                             "--rtol", "1e-4", "--tf=1e-200", "--out", str(tape))
        assert run.returncode == 2
        assert run.stderr.startswith("solver failure: node spacing underflow at t=")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        assert not tape.exists()

    @pytest.mark.parametrize("tf", ["5e-324", "1e-320"])
    def test_subnormal_interval_is_solver_failure(self, tmp_path, capsys, tf):
        """On a subnormal interval the first stepsize and its floor both
        round to 0.0, so the step would not advance t: exit 2 with one line
        that names the stepsize underflow (exit 1 with "stencil nodes must be
        strictly increasing" before), and no tape."""
        tape = tmp_path / "t.json"
        assert main(["integrate", "--mode", "adaptive", "--rtol", "1e-4",
                     f"--tf={tf}", "--out", str(tape)]) == 2
        err = capsys.readouterr().err
        assert err == ("solver failure: stepsize underflow at t=0.0 (h=0.000e+00 does not "
                       "advance t) after step 0\n")
        assert not tape.exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--frobnicate", "1"])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["adjoint", "--tape", "tape.json", "--p", "3"],
        ["verify", "--tape", "tape.json", "--adjoint-file", "adj.json", "--tf", "1"],
        ["integrate", "--h", "0.25", "--ord", "2"]],
        ids=["adjoint-p", "verify-tf", "integrate-ord"])
    def test_flag_a_stage_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        """adjoint and verify take no problem parameters (the tape holds
        them), and no stage takes an abbreviated flag: argparse would read
        adjoint's --p as --problem and --ord as --order."""
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert not (tmp_path / "out.json").exists()

    def test_catenary_defaults_come_from_registry(self, tmp_path):
        """No problem flags: the same tape bytes as the registry's defaults
        spelled out as flags."""
        params = get_problem("catenary")[0].params
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        run = ["integrate", "--order", "2", "--h", "0.125"]
        assert main([*run, "--out", str(implicit)]) == 0
        spelled = [f"--{key}={value!r}" for key, value in params.items()]
        assert main([*run, "--problem", "catenary", *spelled,
                     "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_linear_defaults_come_from_registry(self, tmp_path):
        """A config naming only the problem writes the same tape bytes as one
        spelling out every registry default."""
        def fmt(values):
            return " ".join(repr(float(v)) for v in np.ravel(values))

        problem = get_problem("linear")[0]
        params = problem.params
        a = problem.jacobian(problem.initial_time, problem.initial_state)
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        run = ["integrate", "--order", "2", "--h", "0.125"]
        cfg = _write_config(tmp_path, "problem = linear")
        assert main([*run, "--config", str(cfg), "--out", str(implicit)]) == 0
        lines = ["a = " + "; ".join(fmt(row) for row in a),
                 *(f"{key} = {fmt(params[key])}" for key in ("y0", "t0", "tf", "c"))]
        cfg = _write_config(tmp_path, "problem = linear", *lines)
        assert main([*run, "--config", str(cfg), "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_import_leaves_quadrature_unloaded(self):
        """Nothing in the package needs scipy.integrate, so importing the
        CLI must not pay for it."""
        _fresh_python("import sys, bdfadjoint.cli; "
                      "assert 'scipy.integrate' not in sys.modules, 'loaded'")

    def test_import_leaves_multiprocessing_unloaded(self):
        """converge forks its workers itself, so importing the CLI loads
        neither multiprocessing nor concurrent.futures."""
        _fresh_python("import sys, bdfadjoint.cli; assert not {'multiprocessing', "
                      "'concurrent.futures'} & set(sys.modules), 'loaded'")

    def test_import_leaves_hashlib_unloaded(self):
        """Only adjoint and verify digest a tape, and they import hashlib
        when they do, so importing the CLI does not load _hashlib."""
        _fresh_python("import sys, bdfadjoint.cli; "
                      "assert '_hashlib' not in sys.modules, 'loaded'")

    def test_stages_leave_linalg_and_sparse_unloaded(self, tmp_path):
        """integrate -> adjoint -> verify of the catenary and of a banded
        linear problem, in one fresh interpreter, import none of
        scipy.linalg, scipy.sparse and scipy.integrate: the step solvers
        bind LAPACK from SciPy's extension and the KKT band is NumPy."""
        heat = _heat_config(tmp_path, 8)
        runs = []
        for name, problem in (("catenary", ["--problem", "catenary"]),
                              ("heat", ["--config", str(heat)])):
            tape, adj = tmp_path / f"{name}.json", tmp_path / f"{name}-adj.json"
            runs += [["integrate", *problem, "--order", "2", "--h", "0.125",
                      "--out", str(tape)],
                     ["adjoint", "--tape", str(tape), "--out", str(adj)],
                     ["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                      "--out", str(tmp_path / f"{name}-kkt.json")]]
        _fresh_python(_STAGES_THEN_CHECK, json.dumps(runs),
                      "scipy.linalg,scipy.sparse,scipy.integrate")
        params = load_tape(tmp_path / "heat.json").problem_params
        assert get_problem("linear", **params)[0].band == (1, 1)

    def test_converge_on_linear_leaves_linalg_and_sparse_unloaded(self, tmp_path):
        """converge evaluates the linear reference's matrix exponentials by
        the package's own NumPy kernel, so it too imports none of
        scipy.linalg, scipy.sparse and scipy.integrate."""
        argv = ["converge", "--config", str(_heat_config(tmp_path, 8)),
                "--order", "2", "--h", "0.25,0.125",
                "--out", str(tmp_path / "convergence.csv")]
        _fresh_python(_STAGES_THEN_CHECK, json.dumps([argv]),
                      "scipy.linalg,scipy.sparse,scipy.integrate")

    def test_scipy_linalg_imports_after_bdf(self):
        """Loading SciPy's LAPACK extension first leaves scipy.linalg
        importable afterwards, with the very routines bdf binds and an expm
        bit-equal to this process's."""
        from scipy.linalg import expm
        m = np.array([[-1.5, 2.0, 0.0], [0.25, -3.0, 1e-3], [0.0, 4.0, -0.5]])
        out = _fresh_python(
            "import sys, numpy as np; from bdfadjoint import bdf; "
            "assert 'scipy.linalg' not in sys.modules; "
            "from scipy.linalg import expm, lapack; "
            "assert all(getattr(lapack, f) is getattr(bdf, f) "
            "for f in ('dgetrf', 'dgetrs', 'dgbtrf', 'dgbtrs')); "
            "m = np.array(eval(sys.argv[1])); print(expm(m).tobytes().hex())",
            repr(m.tolist()))
        assert out.strip() == expm(m).tobytes().hex()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def _fresh_process(*argv):
    """The completed run of a fresh interpreter with the arguments argv and
    this checkout's src first on its path; a run that hangs fails the test
    after a minute."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=60)


def _fresh_python(code, *args):
    """stdout of code run by a fresh interpreter (see _fresh_process), with
    args as sys.argv[1:]; it must exit 0."""
    run = _fresh_process("-c", code, *args)
    run.check_returncode()
    return run.stdout


def test_readme_library_quick_start_runs():
    """The README's library quick start, run as written by a fresh
    interpreter, exits 0 and prints a passing verdict."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run = _fresh_process("-c", code)
    assert run.returncode == 0, run.stderr
    assert "True" in run.stdout.splitlines()


# Runs the CLI argv lists of the JSON sys.argv[1] in turn, each to exit 0,
# then fails if any module of the comma-separated sys.argv[2] was imported.
_STAGES_THEN_CHECK = """
import json, sys
from bdfadjoint.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
loaded = [m for m in sys.argv[2].split(",") if m and m in sys.modules]
assert not loaded, f"imported {loaded}"
"""


def _write_config(tmp_path, *lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\n" + "\n".join(lines) + "\n")
    return cfg


def _heat_config(tmp_path, d, tf=0.5):
    """Config of the tridiagonal d-point heat matrix as the linear problem."""
    dx = 1.0 / (d + 1)
    a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0))
                           + np.diag(np.ones(d - 1), 1)
                           + np.diag(np.ones(d - 1), -1))
    y0 = np.sin(np.pi * dx * np.arange(1, d + 1))

    def fmt(values):
        return " ".join(repr(float(v)) for v in values)

    return _write_config(tmp_path, "problem = linear", f"tf = {tf!r}",
                         "a = " + "; ".join(fmt(row) for row in a),
                         "y0 = " + fmt(y0), "c = " + fmt(np.full(d, dx)))


@pytest.fixture
def patched_problems(monkeypatch):
    """Routes the CLI's registry lookups through edit(problem, reference),
    which returns the pair to use; edit = None restores the registry."""
    lookup = cli_module.get_problem

    def install(edit):
        if edit is None:
            monkeypatch.setattr(cli_module, "get_problem", lookup)
        else:
            monkeypatch.setattr(cli_module, "get_problem",
                                lambda name, **params: edit(*lookup(name, **params)))
    return install


class TestConfig:
    def test_config_supplies_settings(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\n"
            "problem = catenary\n"
            "p = 3.0\n"
            "A = -3.0\n"
            "tf = 2.0\n"
            "\n"
            "[run]\n"
            "mode = nonadaptive\n"
            "order = 2\n"
            "h = 0.25\n")
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--config", str(cfg), "--out", str(tape)])
        assert rc == 0
        doc, _ = split_tape(tape)
        assert doc["driver_params"] == {"order": 2, "h": 0.25}

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nmode = nonadaptive\norder = 2\nh = 0.25\n")
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--config", str(cfg), "--h", "0.125",
                   "--out", str(tape)])
        assert rc == 0
        assert split_tape(tape)[0]["driver_params"]["h"] == 0.125

    def test_missing_config_file(self, tmp_path):
        rc = main(["integrate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1


class TestAdjointCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        _, tape = _integrate(tmp_path)
        out = tmp_path / "adjoint.json"
        rc = main(["adjoint", "--tape", str(tape), "--out", str(out)])
        assert rc == 0
        assert out.is_file()
        assert (tmp_path / "adjoint.csv").is_file()
        stdout = capsys.readouterr().out
        assert "gradient=[" in stdout
        with open(tmp_path / "adjoint.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "lambda_1", "lambda_2", "Lambda_1", "Lambda_2"]

    def test_requires_tape(self):
        assert main(["adjoint"]) == 1

    def test_missing_tape_file(self, tmp_path):
        assert main(["adjoint", "--tape", str(tmp_path / "no.json")]) == 1

    def test_problem_mismatch_rejected(self, tmp_path):
        _, tape = _integrate(tmp_path)
        rc = main(["adjoint", "--tape", str(tape), "--problem", "linear",
                   "--out", str(tmp_path / "a.json")])
        assert rc == 1

    @pytest.mark.parametrize("field", ["iterations"])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_malformed_per_step_record_refused(self, tmp_path, capsys, field,
                                               stage):
        """A per-step array of the wrong length is a usage error at load, not
        a traceback or a pass."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        edit_tape(tape, lambda header, arrays: arrays.update(
            {f"newton.{field}": arrays[f"newton.{field}"][:-3]}))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("newton", []), ("problem", []),
                                            ("nodes", {"a": 1})])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_malformed_document_refused(self, tmp_path, capsys, key, value,
                                        stage):
        """A tape whose parts have the wrong JSON type is a usage error at
        load, not a traceback."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc, payload = split_tape(tape)
        doc[key] = value
        tape.write_bytes(tape_bytes(doc, payload))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and err.count("\n") == 1
        assert not out.exists()

    def test_near_singular_step_matrix_is_solver_failure(self, tmp_path, capsys):
        """I - h f_y = [[1, 1], [1, 1 + 1e-15]], singular to working
        precision, for a one-step linear run from y0 = 0, a predictor that
        meets the tolerance: integrate still takes an update, so it refuses
        the matrix with exit 2, one stderr line and no tape.  A tape of the
        regular a = 0 -8; -8 -7 (every state 0) with that a written into it
        still passes the residual gate, and adjoint refuses it with exit 2
        and neither output."""
        tape, out = tmp_path / "tape.json", tmp_path / "adjoint.json"
        run = ["--order", "1", "--h", "0.125", "--out", str(tape)]

        def config(a):
            return str(_write_config(tmp_path, "problem = linear", f"a = {a}",
                                     "y0 = 0 0", "tf = 0.125", "c = 1 0"))

        assert main(["integrate", "--config", config("0 -8; -8 -8e-15"), *run]) == 2
        err = capsys.readouterr().err
        assert err == ("solver failure: step 0 failed: singular or non-finite "
                       "Newton iteration matrix at t=0.125\n")
        assert not tape.exists()

        assert main(["integrate", "--config", config("0 -8; -8 -7"), *run]) == 0
        doc, payload = split_tape(tape)
        assert doc["problem"]["params"]["a"]["values"] == [-8.0, -8.0, -7.0]
        doc["problem"]["params"]["a"]["values"] = [-8.0, -8.0, -8e-15]
        tape.write_bytes(tape_bytes(doc, payload))
        capsys.readouterr()
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 2
        assert ("singular or non-finite adjoint matrix at t=0.125"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("mode, edit", [("nonadaptive", "loosen"),
                                            ("adaptive", "loosen"),
                                            ("adaptive", "drop_driver_params"),
                                            ("nonadaptive", "unknown_mode")])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_tolerances_derived_not_trusted(self, tmp_path, capsys, mode, edit,
                                            stage):
        """Every Newton tolerance written into the tape as 1.0 (the earlier
        layout stored them) with states[5][1] moved by 0.1: the list is
        ignored, so adjoint refuses the moved state with exit 1 and verify
        fails its nominal residual with exit 3.  An adaptive tape without
        its driver parameters, or a tape of an unknown mode, cannot have its
        tolerances derived, and is refused at load."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        run = (["--order", "2", "--h", "0.125"] if mode == "nonadaptive"
               else ["--mode", "adaptive", "--rtol", "1e-6"])
        assert main(["integrate", *run, "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc, arrays = read_tape(tape)
        if edit == "loosen":
            doc["newton"]["tolerances"] = [1.0] * doc["newton"]["iterations"]["shape"][0]
            arrays["states"][5, 1] += 0.1
        elif edit == "unknown_mode":
            doc["mode"] = "fixed"
        else:
            del doc["driver_params"]
        write_tape(tape, doc, arrays)
        _rebind(adj, tape)
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        if edit == "loosen" and stage == "verify":
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "verification failed: nominal_residual above threshold\n")
            return
        assert main(argv) == 1
        err = capsys.readouterr().err
        want = {"loosen": "error: tape failed validation against its problem: "
                          "nominal_residual=",
                "unknown_mode": "error: cannot load tape: unknown integration mode 'fixed'",
                "drop_driver_params": "error: cannot load tape: adaptive tape "
                                      "without driver_params.rtol\n"}[edit]
        assert err.startswith(want) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("c0", [1e308, 1.7e308])
    def test_nonfinite_multipliers_are_solver_failure(self, tmp_path, capsys,
                                                      c0):
        """A linear tape whose criterion vector c is [c0, 0], finite and
        near the top of binary64: the states pass validation, the
        multipliers overflow, and adjoint refuses them with exit 2 and no
        output, not an infinite gradient with exit 0."""
        tape = tmp_path / "tape.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        doc, payload = split_tape(tape)
        doc["problem"]["params"]["c"] = [c0, 0.0]
        tape.write_bytes(tape_bytes(doc, payload))
        capsys.readouterr()
        out = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 2
        assert "non-finite adjoint multipliers" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    def test_params_beyond_64_bits_read_as_floats(self, tmp_path, capsys):
        """A linear tape whose c holds the integer 2**70: the reader returns
        it as the float 2.0**70, the value the problem computes with, so
        adjoint exits 0 with the gradient and multipliers of a tape whose c
        is [2.0**70, 0.0], bit for bit."""
        tape = tmp_path / "tape.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        doc, payload = split_tape(tape)
        results = {}
        for name, c in (("int", [2 ** 70, 0]), ("float", [2.0 ** 70, 0.0])):
            doc["problem"]["params"]["c"] = c
            edited, out = tmp_path / f"{name}.json", tmp_path / f"adj_{name}.json"
            edited.write_bytes(tape_bytes(doc, payload))
            assert main(["adjoint", "--tape", str(edited), "--out", str(out)]) == 0
            results[name] = json.loads(out.read_text())
        np.testing.assert_array_equal(np.array(results["int"]["gradient"]).view(np.uint64),
                                      np.array(results["float"]["gradient"]).view(np.uint64))
        assert results["int"]["lambdas"] == results["float"]["lambdas"]   # the bytes

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_overflowing_param_refused(self, tmp_path, capsys, stage):
        """c holds the integer 10**400, beyond binary64: a document that
        this package cannot have written, refused at load with one line of
        usage error."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc, payload = split_tape(tape)
        doc["problem"]["params"]["c"] = [10 ** 400, 0]
        tape.write_bytes(tape_bytes(doc, payload))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("target, stage", [("tape", "adjoint"), ("tape", "verify"),
                                               ("adjoint", "verify")])
    def test_nan_token_refused_at_load(self, tmp_path, capsys, target, stage):
        """A NaN token, which this package never writes, in a linear tape's
        criterion vector c or in an adjoint file's gradient: the reader
        refuses the document, so the stage exits 1 with one line and writes
        nothing, rather than computing with the NaN."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        if target == "tape":
            doc, payload = split_tape(tape)
            doc["problem"]["params"]["c"][0] = float("nan")
            tape.write_bytes(tape_bytes(doc, payload))
            _rebind(adj, tape)
        else:
            doc = json.loads(adj.read_text())
            doc["gradient"][0] = float("nan")
            adj.write_text(json.dumps(doc))
        assert b"NaN" in (tape if target == "tape" else adj).read_bytes().partition(b"\n")[0]
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        what = "tape" if target == "tape" else "adjoint results"
        assert captured.err.startswith(f"error: cannot load {what}:")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_overflowing_catenary_start_is_one_error_line(self, tmp_path, stage):
        """A catenary tape whose A is 1e300, where cosh(A) and sinh(A)
        overflow: the non-finite initial state is refused with exit 1 and one
        line on stderr, no RuntimeWarning before it.  In a fresh interpreter,
        so that warnings print as they do for a shell user."""
        rc, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert rc == 0 and main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc, payload = split_tape(tape)
        doc["problem"]["params"]["A"] = 1e300
        tape.write_bytes(tape_bytes(doc, payload))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        run = _fresh_process("-m", "bdfadjoint.cli", *args, "--out", str(out))
        assert run.returncode == 1
        assert run.stderr.startswith("error: cannot rebuild tape problem:")
        assert run.stderr.count("\n") == 1 and "initial_state must be finite" in run.stderr
        assert run.stdout == "" and not out.exists()

    @pytest.mark.parametrize("nan", [False, True], ids=["plain", "nan-token"])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_truncated_tape_refused(self, tmp_path, capsys, stage, nan):
        """A tape cut off halfway, inside its payload, or right after a NaN
        token in its problem parameters, inside its header line: one line of
        usage error at load, which says that an array has fewer bytes than
        its shape needs or that the header is not JSON."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        if nan:
            doc, payload = split_tape(tape)
            doc["problem"]["params"]["A"] = float("nan")
            data = tape_bytes(doc, payload)
            tape.write_bytes(data[:data.index(b"NaN") + 3])
        else:
            data = tape.read_bytes()
            assert data.index(b"\n") < len(data) // 2
            tape.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and err.count("\n") == 1
        assert ("invalid JSON" if nan else "bytes do not fill shape") in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["tape", "adjoint"])
    def test_unparsable_document_names_its_path(self, tmp_path, capsys, target):
        """A tape whose header holds a NaN token, or an adjoint file cut off
        halfway: orjson parses neither, and verify exits 1 with one line that names
        the file, as the other load refusals do."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        if target == "tape":
            doc, payload = split_tape(tape)
            doc["problem"]["params"]["A"] = float("nan")
            tape.write_bytes(tape_bytes(doc, payload))
        else:
            text = adj.read_text()
            adj.write_text(text[:len(text) // 2])
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        what, path = ("tape", tape) if target == "tape" else ("adjoint results", adj)
        assert err.startswith(f"error: cannot load {what}: {path}: invalid JSON: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nan_state_refused(self, tmp_path, capsys):
        _, tape = _integrate(tmp_path)
        edit_tape(tape, lambda header, arrays: arrays["states"].__setitem__((10, 0), np.nan))
        out = tmp_path / "a.json"
        rc = main(["adjoint", "--tape", str(tape), "--out", str(out)])
        assert rc == 1
        # step 10 produces y_10, the first row whose residual is NaN
        assert capsys.readouterr().err == (
            "error: tape failed validation against its problem: nominal_residual "
            "must be finite and non-negative, got nan at step 10\n")
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    def test_nan_node_refused_at_load(self, tmp_path, capsys):
        """A NaN grid node fails the one node rule when the tape is loaded,
        with one line that names the grid nodes (the nominal residual's NaN
        at step 5 before), and nothing is written."""
        _, tape = _integrate(tmp_path)
        edit_tape(tape, lambda header, arrays: arrays["nodes"].__setitem__(5, np.nan))
        out = tmp_path / "a.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cannot load tape: grid nodes must be finite and strictly increasing\n")
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()


class TestVerifyCommand:
    def _chain(self, tmp_path):
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        main(["adjoint", "--tape", str(tape), "--out", str(adj)])
        return tape, adj

    def test_consistent_pair_passes(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True and doc["version"] == 2
        checks = doc["checks"]
        names = ["nominal_residual", "adjoint_residual", "initial_residual",
                 "coefficient_defect", "jacobian_defect", "criterion_defect"]
        assert sorted(checks) == sorted(names)
        assert checks["jacobian_defect"]["value"] <= checks["jacobian_defect"]["threshold"]
        assert all(c["passed"] for c in checks.values())
        # one line per record, in the order of the checks
        assert capsys.readouterr().out.splitlines() == [
            f"{name}={c['value']!r} (threshold {c['threshold']!r}) worst at step "
            f"{c['worst']['step']}, t={c['worst']['t']!r}"
            for name, c in ((name, checks[name]) for name in names)
        ] + [f"report written to {report}"]
        assert checks["coefficient_defect"]["value"] == 0.0
        assert checks["coefficient_defect"]["threshold"] == COEFFICIENT_TOL

    def test_tampered_multipliers_fail(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        lambdas = decode_array(doc["lambdas"])
        lambdas[4, 1] += 1e-3
        doc["lambdas"] = encode_array(lambdas)
        adj.write_text(json.dumps(doc))
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert "adjoint_residual" in capsys.readouterr().err

    def test_tampered_jump_table_refused(self, tmp_path, capsys):
        """Multipliers that pass every check with a jump table that is not
        h * lambda: the file is refused and no report is written."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["jumps"]["sizes"][3][1] *= 2.0
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file's jump table does not match its multipliers\n")
        assert not report.exists()

    def test_report_names_worst_steps(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        lambdas = decode_array(doc["lambdas"])
        lambdas[4, 1] += 1e-3    # multiplier of step 5
        doc["lambdas"] = encode_array(lambdas)
        adj.write_text(json.dumps(doc))
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        checks = json.loads(report.read_text())["checks"]
        worst = {name: c["worst"] for name, c in checks.items()}
        nodes = read_tape(tape)[1]["nodes"].tolist()
        assert 3 <= worst["adjoint_residual"]["step"] <= 5
        assert worst["adjoint_residual"]["t"] == nodes[worst["adjoint_residual"]["step"]]
        assert 1 <= worst["nominal_residual"]["step"] <= len(nodes) - 1
        # every record names a row: step 0 for y_0, step N for J'
        assert worst["initial_residual"] == {"step": 0, "t": nodes[0]}
        assert worst["criterion_defect"] == {"step": len(nodes) - 1, "t": nodes[-1]}
        assert all(w["t"] == nodes[w["step"]] for w in worst.values())
        assert (f"adjoint_residual={checks['adjoint_residual']['value']!r} (threshold "
                f"{checks['adjoint_residual']['threshold']!r}) worst at step "
                f"{worst['adjoint_residual']['step']},") in capsys.readouterr().out

    def test_wrong_jacobian_fails(self, tmp_path, capsys, patched_problems):
        """With f_y scaled by 0.8 in integrate, adjoint and verify alike,
        every KKT residual passes; the check of f_y against differences of
        f refuses the run with exit 3 and names its worst sampled step."""
        patched_problems(lambda problem, reference: (dataclasses.replace(
            problem, jacobian=lambda t, y: 0.8 * problem.jacobian(t, y)), reference))
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert err == "verification failed: jacobian_defect above threshold\n"
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        checks = doc["checks"]
        assert checks["nominal_residual"]["value"] <= checks["nominal_residual"]["threshold"]
        assert checks["adjoint_residual"]["value"] <= checks["adjoint_residual"]["threshold"]
        jacobian = checks["jacobian_defect"]
        assert jacobian["value"] > jacobian["threshold"] == JACOBIAN_TOL
        assert jacobian["passed"] is False
        worst = jacobian["worst"]
        assert worst["t"] == read_tape(tape)[1]["nodes"][worst["step"]]
        assert (f"jacobian_defect={jacobian['value']!r} (threshold {JACOBIAN_TOL!r}) "
                f"worst at step {worst['step']}, t={worst['t']!r}\n") in out

    def test_wrong_criterion_gradient_fails(self, tmp_path, capsys, patched_problems):
        """With J' scaled by 0.9 in adjoint and verify alike, every KKT
        residual passes; the check of J' against differences of J refuses
        the run with exit 3 and names step N."""
        patched_problems(lambda problem, reference: (dataclasses.replace(
            problem, criterion_gradient=lambda y: 0.9 * problem.criterion_gradient(y)),
            reference))
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert err == "verification failed: criterion_defect above threshold\n"
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert [name for name, c in doc["checks"].items() if not c["passed"]] == [
            "criterion_defect"]
        criterion = doc["checks"]["criterion_defect"]
        assert criterion["value"] > criterion["threshold"] == JACOBIAN_TOL
        nodes = read_tape(tape)[1]["nodes"].tolist()
        assert criterion["worst"] == {"step": len(nodes) - 1, "t": nodes[-1]}
        assert (f"criterion_defect={criterion['value']!r} (threshold {JACOBIAN_TOL!r}) "
                f"worst at step {len(nodes) - 1}, t={nodes[-1]!r}\n") in out

    @pytest.mark.parametrize("scaled, check", [("jacobian", "jacobian_defect"),
                                               ("criterion_gradient", "criterion_defect")])
    @pytest.mark.parametrize("problem", ["catenary", "heat"])
    def test_scaled_derivative_fails(self, tmp_path, capsys, patched_problems, problem,
                                     scaled, check):
        """0.9 f_y or 0.9 J' in every stage, on the catenary and on a d = 20
        heat problem: verify exits 3 on the derivative's check alone."""
        patched_problems(lambda problem, reference: (dataclasses.replace(
            problem, **{scaled: lambda *args, f=getattr(problem, scaled): 0.9 * f(*args)}),
            reference))
        tape, adj, report = (tmp_path / name for name in ("tape.json", "adj.json",
                                                          "kkt.json"))
        run = (["--problem", "catenary"] if problem == "catenary"
               else ["--config", str(_heat_config(tmp_path, 20))])
        assert main(["integrate", *run, "--order", "2", "--h", "0.0625",
                     "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        capsys.readouterr()
        assert main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                     "--out", str(report)]) == 3
        assert capsys.readouterr().err == f"verification failed: {check} above threshold\n"
        checks = json.loads(report.read_text())["checks"]
        assert [name for name, c in checks.items() if not c["passed"]] == [check]

    def test_band_narrower_than_jacobian_fails(self, tmp_path, capsys,
                                               patched_problems):
        """An adjoint run whose problem states the band (0, 0) for a
        tridiagonal f_y solves the wrong step matrices; verify forms the full
        f_y^T lambda products, so the KKT certificate refuses its
        multipliers."""
        cfg = _heat_config(tmp_path, 8)
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--config", str(cfg), "--order", "2",
                     "--h", "0.0625", "--out", str(tape)]) == 0
        patched_problems(lambda problem, reference: (
            dataclasses.replace(problem, band=(0, 0)), reference))
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        patched_problems(None)
        capsys.readouterr()
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert "adjoint_residual" in capsys.readouterr().err

    @staticmethod
    def _nan_jacobian(entry, band=(1, 1)):
        """An edit for patched_problems: f_y with a NaN at entry, stacked as
        (d, d, 1), and the band stated."""
        def edit(problem, reference):
            bad = problem.jacobian(0.0, problem.initial_state).copy()
            bad[entry] = np.nan
            return dataclasses.replace(
                problem, band=band,
                jacobian=lambda t, y: bad[:, :, None] if np.ndim(y) == 2 else bad), reference
        return edit

    def test_nan_inside_band_is_solver_failure(self, tmp_path, capsys, patched_problems):
        """A NaN inside the stated band of f_y: integrate exits 2 with the
        message of the dense route, and writes no tape."""
        cfg, tape = _heat_config(tmp_path, 8), tmp_path / "tape.json"
        errors = []
        for band in ((1, 1), None):
            patched_problems(self._nan_jacobian((2, 3), band))
            assert main(["integrate", "--config", str(cfg), "--order", "2",
                         "--h", "0.0625", "--out", str(tape)]) == 2
            assert not tape.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("solver failure: singular or non-finite Newton matrix")
        assert errors[0].endswith(": non-finite f_y\n")

    def test_nan_outside_stated_band_fails_verify(self, tmp_path, capsys, patched_problems):
        """A custom problem whose f_y holds a NaN outside its stated band
        (1, 1): integrate and adjoint never read it and exit 0; verify forms
        the full f_y^T lambda products and exits 3."""
        patched_problems(self._nan_jacobian((0, 5)))
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--config", str(_heat_config(tmp_path, 8)), "--order",
                     "2", "--h", "0.0625", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        capsys.readouterr()
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "verification failed: adjoint_residual must be finite")

    @pytest.mark.parametrize("target", ["tape", "adjoint"])
    def test_nan_input_is_verification_failure(self, tmp_path, capsys, target):
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        if target == "tape":
            edit_tape(tape, lambda header, arrays: arrays["states"].__setitem__((10, 0), np.nan))
            _rebind(adj, tape)
        else:
            doc = json.loads(adj.read_text())
            doc["lambdas"] = edit_array(doc["lambdas"],
                                        lambda values: values.__setitem__((10, 0), np.nan))
            adj.write_text(json.dumps(doc))
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("verification failed:")
        assert err.count("\n") == 1

    def test_perturbed_alpha_violates_invariants(self, tmp_path, capsys,
                                                 monkeypatch):
        """Row 20 of the grid's derived alpha table, as verify derives it
        from the loaded nodes, is off by a relative 1e-10 in alpha_2."""
        tape, adj = self._chain(tmp_path)
        t_21 = read_tape(tape)[1]["nodes"].tolist()[21]
        exact = bdf._coefficients

        def perturbed(t, order):
            alphas = exact(t, order)
            # the table is derived per order: t[-1] holds the newest node of
            # every step of this order, alphas[i] their alpha_i
            if order >= 2:
                alphas[2] *= np.where(np.asarray(t[-1]) == t_21, 1.0 + 1e-10, 1.0)
            return alphas

        monkeypatch.setattr(bdf, "_coefficients", perturbed)
        defects = coefficient_defects(*bdf.stencil_table(load_tape(tape)))
        assert np.flatnonzero(defects > COEFFICIENT_TOL).tolist() == [20]
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        out = capsys.readouterr().out
        # row 20 of the table is step 21, the step that produces y_21
        record = json.loads(report.read_text())["checks"]["coefficient_defect"]
        assert record["passed"] is False
        assert record["worst"] == {"step": 21, "t": t_21}
        assert f"worst at step 21, t={t_21!r}\n" in out

    def test_inconsistent_initial_state_fails_report(self, tmp_path, capsys):
        """A tape integrated from y_0 + 1e-6 solves its steps but not
        y_0 = y_s: adjoint refuses it with exit 1 and no output, naming
        initial_residual at step 0, and verify, given adjoints computed
        through the library, fails it with exit 3, and kkt.json says so."""
        shifted = dataclasses.replace(
            CATENARY, initial_state=CATENARY.initial_state + 1e-6)
        tape = tmp_path / "tape.json"
        save_tape(integrate_nonadaptive(shifted, 2, 0.125), tape)
        out = tmp_path / "refused.json"
        capsys.readouterr()
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tape failed validation against its problem: "
                              "initial_residual=")
        assert err.endswith(" worst at step 0, t=0.0\n") and err.count("\n") == 1
        assert not out.exists() and not out.with_suffix(".csv").exists()
        loaded = load_tape(tape)
        adj = tmp_path / "adjoint.json"
        save_adjoint_results(tape_sha256(tape.read_bytes()),
                             adjoint_sweep(CATENARY, loaded), adj)
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "verification failed: initial_residual above threshold\n")
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        initial = doc["checks"]["initial_residual"]
        assert initial["value"] > initial["threshold"]
        assert initial["passed"] is False and initial["worst"]["step"] == 0
        assert err.split(": ", 2)[2] == str(forward_checks(CATENARY, loaded)[1]) + "\n"

    def test_edited_problem_parameter_is_refused(self, tmp_path, capsys):
        """A catenary k = 2, h = 1/16 tape whose problem.params.A is edited to
        -2.9 rebuilds a problem whose y_s is not the tape's y_0 (and whose
        steps the states still solve): adjoint exits 1 with one stderr line,
        verify's report line of initial_residual, and writes nothing."""
        rc, tape = _integrate(tmp_path)
        assert rc == 0
        doc, payload = split_tape(tape)
        doc["problem"]["params"]["A"] = -2.9
        tape.write_bytes(tape_bytes(doc, payload))
        capsys.readouterr()
        out = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error: tape failed validation against its problem: initial_residual="
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert captured.err.endswith(" worst at step 0, t=0.0\n")
        assert float(captured.err[len(prefix):].split(" ")[0]) > 0.9
        assert list(tmp_path.iterdir()) == [tape]

    @pytest.mark.parametrize("factor", [0.03, 3.0])
    def test_nominal_rule_is_the_adjoint_gate(self, tmp_path, capsys, factor):
        """An adaptive catenary tape (rtol 1e-6, Newton tolerances from
        4.3e-10 to 1.2e-7) with y_1 moved by factor * 10 tol_0: at 3.0 the
        residual of step 1 lies between 10 tol_0 and 10 max(tol), so adjoint
        refuses the tape and verify fails nominal_residual at step 1, not
        only against a threshold of 10 max(tol); at 0.03 both accept it.
        Either way the record passes exactly when every step is within
        10 tol_n."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--mode", "adaptive", "--rtol", "1e-6",
                     "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        tol = load_tape(tape).newton_tolerances
        doc, arrays = read_tape(tape)
        arrays["states"][1, 0] += factor * 10.0 * tol[0]
        write_tape(tape, doc, arrays)
        _rebind(adj, tape)
        moved = load_tape(tape)
        within = (bdf.tape_residuals(CATENARY, moved)
                  <= 10.0 * moved.newton_tolerances)
        capsys.readouterr()
        out, report = tmp_path / "moved.json", tmp_path / "kkt.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == (
            0 if factor < 1.0 else 1)
        assert main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                     "--out", str(report)]) == (0 if factor < 1.0 else 3)
        nominal = json.loads(report.read_text())["checks"]["nominal_residual"]
        assert nominal["passed"] is bool(np.all(within))
        if factor > 1.0:
            assert nominal["worst"]["step"] == 1 and not within[0]
            assert nominal["value"] > nominal["threshold"] == 10.0 * tol[0]
            assert nominal["value"] < 10.0 * np.max(moved.newton_tolerances)
            captured = capsys.readouterr()   # adjoint printed nothing to stdout
            line = captured.out.splitlines()[0]   # verify's nominal_residual record
            assert line.startswith("nominal_residual=") and " worst at step 1, " in line
            assert captured.err == (
                f"error: tape failed validation against its problem: {line}\n"
                "verification failed: nominal_residual above threshold\n")
            assert not out.exists()

    @pytest.mark.parametrize("value", [[], "catenary", {"name": "catenary"}])
    def test_malformed_tape_digest_refused(self, tmp_path, capsys, value):
        """A tape_sha256 that is no digest at all binds the file to no
        tape."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["tape_sha256"] = value
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not belong to this tape\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["newton_iteration", "state"])
    def test_adjoint_file_of_other_tape_refused(self, tmp_path, capsys, edit):
        """Tape B is tape A written again by save_tape with one Newton
        iteration count raised by one, or one state moved by 1e-13: the same
        problem and grid, and a pair that passes every residual check.  The
        adjoint file of A binds the bytes of A, so verify refuses it for B
        and writes no report."""
        tape, adj = self._chain(tmp_path)
        a = load_tape(tape)
        if edit == "state":
            states = a.states.copy()
            states[5, 0] += 1e-13
            b = dataclasses.replace(a, states=states)
        else:
            iterations = a.newton_iterations.copy()
            iterations[3] += 1
            b = dataclasses.replace(a, newton_iterations=iterations)
        other = tmp_path / "other.json"
        save_tape(b, other)
        assert other.read_bytes() != tape.read_bytes()
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(other), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not belong to this tape\n")
        assert not out.exists()
        # bound to B, the same multipliers pass: the binding alone refused them
        _rebind(adj, other)
        assert main(["verify", "--tape", str(other), "--adjoint-file", str(adj),
                     "--out", str(out)]) == 0

    def test_version_1_adjoint_file_refused(self, tmp_path, capsys):
        """An adjoint file of the earlier layout (version 1: a copy of the
        tape's problem and nodes instead of its digest) is one line of usage
        error; the fix is to run adjoint on its tape again."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        tape_doc, tape_arrays = read_tape(tape)
        del doc["tape_sha256"]
        doc.update(version=1, problem=tape_doc["problem"],
                   nodes=tape_arrays["nodes"].tolist())
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load adjoint results:")
        assert "unsupported version 1 (supported: 3)" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("gradient", [[1.0], [1.0, 2.0, 3.0]])
    def test_gradient_of_wrong_length_refused(self, tmp_path, capsys, gradient):
        """A gradient of 1 entry would broadcast and one of 3 would not;
        both are refused as not matching the tape."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["gradient"] = gradient
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not match the tape dimensions\n")
        assert not out.exists()

    @pytest.mark.parametrize("resize", [
        lambda lam, g: (lam[:-1], g),                                  # N - 1 rows
        lambda lam, g: (np.hstack([lam, lam[:, :1]]), g),              # d + 1 columns
        lambda lam, g: (np.hstack([lam, lam[:, :1]]), [*g, g[0]]),     # and gradient
    ], ids=["rows", "columns", "columns-and-gradient"])
    def test_multipliers_of_wrong_shape_refused(self, tmp_path, capsys, resize):
        """A well-formed adjoint file whose multipliers have N - 1 rows or
        d + 1 columns, their payload filling that shape, is refused as not
        matching the tape, also with a gradient of d + 1 entries."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        lambdas, doc["gradient"] = resize(decode_array(doc["lambdas"]), doc["gradient"])
        doc["lambdas"] = encode_array(lambdas)
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not match the tape dimensions\n")
        assert not out.exists()

    def test_mismatched_pair_is_usage_error(self, tmp_path):
        tape, _ = self._chain(tmp_path)
        other_tape = tmp_path / "other.json"
        main(["integrate", "--order", "2", "--h", "0.125",
              "--out", str(other_tape)])
        other_adj = tmp_path / "other_adj.json"
        main(["adjoint", "--tape", str(other_tape), "--out", str(other_adj)])
        rc = main(["verify", "--tape", str(tape),
                   "--adjoint-file", str(other_adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 1

    def test_requires_both_files(self, tmp_path):
        tape, _ = self._chain(tmp_path)
        assert main(["verify", "--tape", str(tape)]) == 1


def _as_lists(doc):
    """doc with every base64 array field written as the JSON list of its
    values, the layout of the earlier versions."""
    if isinstance(doc, dict) and set(doc) == {"dtype", "shape", "base64"}:
        return decode_array(doc).tolist()
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    return doc


class TestBinaryArrays:
    """Tape arrays are the raw bytes of the payload after its header line,
    multipliers base64 fields of their exact bytes.  A document of an
    earlier version (for a tape, version 3's one-line JSON with base64
    fields), or with a field of another dtype, another rank or bytes that do
    not fill its shape, is one line of usage error in adjoint and verify,
    with no output."""

    _EDITS = {
        "earlier version": lambda doc, key: {**_as_lists(doc), "version": doc["version"] - 1},
        "dtype": lambda doc, key: {**doc, key: {**doc[key], "dtype": "<f4"}},
        "rank": lambda doc, key: {**doc, key: {**doc[key], "shape": [
            doc[key]["shape"][0] * doc[key]["shape"][1]]}},
        "length": lambda doc, key: {**doc, key: {**doc[key], "shape": [
            doc[key]["shape"][0] + 1, doc[key]["shape"][1]]}},
    }

    @pytest.mark.parametrize("edit", list(_EDITS))
    @pytest.mark.parametrize("target, stage", [("tape", "adjoint"), ("tape", "verify"),
                                               ("adjoint", "verify")])
    def test_malformed_document_refused(self, tmp_path, capsys, target, stage, edit):
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        if target == "tape":
            key, (doc, payload) = "states", split_tape(tape)
            version = doc["version"]
            tape.write_bytes(earlier_tape_bytes(*read_tape(tape), version=version - 1)
                             if edit == "earlier version"
                             else tape_bytes(self._EDITS[edit](doc, key), payload))
            _rebind(adj, tape)
        else:
            key, doc = "lambdas", json.loads(adj.read_text())
            version = doc["version"]
            adj.write_text(json.dumps(self._EDITS[edit](doc, key)))
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                           "--out", str(out)]}[stage]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        what = "tape" if target == "tape" else "adjoint results"
        want = {"earlier version": f"unsupported version {version - 1} (supported: {version})",
                "dtype": f"{key}: not an array of dtype <f8",
                "rank": f"{key}: shape [",
                # a tape's states one row longer leave its last array short
                "length": "iterations: " if target == "tape" else f"{key}: "}[edit]
        assert captured.err.startswith(f"error: cannot load {what}: ")
        assert want in captured.err and captured.err.count("\n") == 1
        if edit == "length":
            assert "bytes do not fill shape" in captured.err
        assert captured.out == "" and not out.exists()

    def test_arrays_are_exact_bytes(self, tmp_path):
        """Every array of the tape, and the multipliers, read back to the
        values the package holds bit for bit; the gradient and the jump sizes
        stay JSON lists."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        (doc, arrays), adj_doc = read_tape(tape), json.loads(adj.read_text())
        back = load_tape(tape)
        assert (doc["version"], adj_doc["version"]) == (4, 3)
        for name, value in (("nodes", back.grid.nodes), ("orders", back.grid.orders),
                            ("states", back.states),
                            ("newton.iterations", back.newton_iterations)):
            field = tape_field(doc, name)
            assert field["dtype"] == value.dtype.str and field["shape"] == list(value.shape)
            assert arrays[name].tobytes() == value.tobytes()
            assert not value.flags.writeable   # a view of the file's bytes
        assert decode_array(adj_doc["lambdas"]).shape == (back.n_steps, 2)
        assert isinstance(adj_doc["gradient"], list)
        assert isinstance(adj_doc["jumps"]["sizes"], list)


class TestProblemShapes:
    """Problem parameters whose shapes disagree are refused with exit 1 by
    every command that builds the problem."""

    @pytest.mark.parametrize("stage", ["integrate", "adjoint", "converge"])
    def test_criterion_of_wrong_length_refused(self, tmp_path, capsys, stage):
        system = ("a = -1 0; 0 -2", "y0 = 1 1")
        out = tmp_path / "out"
        if stage == "adjoint":
            tape = tmp_path / "tape.json"
            cfg = _write_config(tmp_path, "problem = linear", *system, "c = 1 0")
            assert main(["integrate", "--config", str(cfg), "--order", "1",
                         "--h", "0.25", "--out", str(tape)]) == 0
            doc, payload = split_tape(tape)
            doc["problem"]["params"]["c"] = [1.0, 0.0, 0.0]
            tape.write_bytes(tape_bytes(doc, payload))
            args = ["adjoint", "--tape", str(tape)]
        else:
            cfg = _write_config(tmp_path, "problem = linear", *system,
                                "c = 1 0 0")
            h = "0.25" if stage == "integrate" else "0.25,0.125"
            args = [stage, "--config", str(cfg), "--order", "1", "--h", h]
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert "criterion vector has shape (3,), expected (2,)" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_problem_of_other_dimension_refused(self, tmp_path, capsys, stage):
        """Tape and adjoint file whose problem params rebuild a 3-dimensional
        problem over 2-wide states."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        params = {"a": (-np.eye(3)).tolist(), "y0": [1.0, 1.0, 1.0],
                  "t0": 0.0, "tf": 1.0, "c": [1.0, 0.0, 0.0]}
        doc, payload = split_tape(tape)
        doc["problem"]["params"] = params
        tape.write_bytes(tape_bytes(doc, payload))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: tape dimension does not match the problem\n")
        assert not out.exists()


_TRIDIAGONAL = ("problem = linear", "a = -2 1 0; 1 -2 1; 0 1 -2", "y0 = 1 0.5 0.25")


def _entries_edit(key, value):
    """An edit of a tape's params["a"] entries: key set to value, or dropped
    if value is None."""
    def edit(entries):
        entries.pop(key) if value is None else entries.__setitem__(key, value)
    return edit


class TestLinearMatrix:
    """linear's a: parsed from the config in one pass, stored in the tape as
    its nonzero entries, and rebuilt from them, or from the dense nested
    list of the earlier layout, by adjoint and verify."""

    def _chain(self, tmp_path, *lines):
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        cfg = _write_config(tmp_path, *lines)
        assert main(["integrate", "--config", str(cfg), "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        return tape, adj

    def _stages(self, tape, adj, out):
        return {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                           "--out", str(out)]}

    def test_tape_holds_nonzero_entries(self, tmp_path):
        tape, _ = self._chain(tmp_path, *_TRIDIAGONAL)
        assert split_tape(tape)[0]["problem"]["params"]["a"] == {
            "size": 3, "rows": [0, 0, 1, 1, 1, 2, 2], "cols": [0, 1, 0, 1, 2, 1, 2],
            "values": [-2.0, 1.0, 1.0, -2.0, 1.0, 1.0, -2.0]}

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    @pytest.mark.parametrize("edit", [
        _entries_edit("size", 0), _entries_edit("size", -3),
        _entries_edit("size", 3.0), _entries_edit("size", True),
        _entries_edit("size", "3"), _entries_edit("size", 4),
        _entries_edit("size", None), _entries_edit("extra", []),
        _entries_edit("rows", [0, 0, 1, 1, 1, 2]),
        _entries_edit("values", [-2.0, 1.0, 1.0, -2.0, 1.0, 1.0, -2.0, 1.0]),
        _entries_edit("rows", 0),
        _entries_edit("rows", [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]),
        _entries_edit("cols", [0, 1, 0, 1, "2", 1, 2]),
        _entries_edit("cols", [False, True, False, True, True, True, True]),
        _entries_edit("rows", [0, 0, 1, 1, 1, 2, 3]),
        _entries_edit("cols", [-1, 1, 0, 1, 2, 1, 2]),
        _entries_edit("cols", [0, 1, 0, 1, 2, 1, 2 ** 70]),
        _entries_edit("cols", [0, 0, 0, 1, 2, 1, 2]),   # (0, 0) twice
    ], ids=["size 0", "size negative", "size float", "size bool", "size string",
            "size not y0's", "no size", "extra key", "rows short", "values long",
            "rows scalar", "rows float", "cols string", "cols bool",
            "row out of range", "col negative", "col beyond 64 bits", "duplicate"])
    def test_malformed_entries_refused(self, tmp_path, capsys, stage, edit):
        """One line of usage error, no traceback and no output."""
        tape, adj = self._chain(tmp_path, *_TRIDIAGONAL)
        doc, payload = split_tape(tape)
        edit(doc["problem"]["params"]["a"])
        tape.write_bytes(tape_bytes(doc, payload))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(self._stages(tape, adj, out)[stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot rebuild tape problem: matrix ")
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_dense_layout_still_loads(self, tmp_path):
        """A tape whose a is the dense nested list of the earlier layout runs
        adjoint and verify to exit 0, with multipliers bit-equal to those of
        the tape that stores the entries."""
        tape, adj = self._chain(tmp_path, *_TRIDIAGONAL)
        doc, payload = split_tape(tape)
        entries = doc["problem"]["params"]["a"]
        dense = np.zeros((3, 3))
        dense[entries["rows"], entries["cols"]] = entries["values"]
        doc["problem"]["params"]["a"] = dense.tolist()
        old, old_adj = tmp_path / "old.json", tmp_path / "old-adjoint.json"
        old.write_bytes(tape_bytes(doc, payload))
        assert main(["adjoint", "--tape", str(old), "--out", str(old_adj)]) == 0
        assert main(["verify", "--tape", str(old), "--adjoint-file", str(old_adj),
                     "--out", str(tmp_path / "kkt.json")]) == 0
        lam, old_lam = (decode_array(json.loads(p.read_text())["lambdas"])
                        for p in (adj, old_adj))
        assert old_lam.tobytes() == lam.tobytes()

    @pytest.mark.parametrize("lines, entries", [
        (("a = -0.0", "y0 = 1"), {"size": 1, "rows": [0], "cols": [0], "values": [-0.0]}),
        (("a = 0", "y0 = 1"), {"size": 1, "rows": [], "cols": [], "values": []}),
        (("a = -1 -0.0; 0 -2", "y0 = 1 1"),
         {"size": 2, "rows": [0, 0, 1], "cols": [0, 1, 1], "values": [-1.0, -0.0, -2.0]}),
    ], ids=["-0.0 alone", "zero", "-0.0 entry"])
    def test_entries_round_trip(self, tmp_path, lines, entries):
        """The entries keep a -0.0 and list no +0.0; the chain runs to exit 0
        on them, and a rebuilt from the tape is bit-equal to the config's."""
        tape, adj = self._chain(tmp_path, "problem = linear", *lines)
        assert main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                     "--out", str(tmp_path / "kkt.json")]) == 0
        params = load_tape(tape).problem_params
        assert (json.dumps(params["a"], sort_keys=True)   # -0.0 as -0.0
                == json.dumps(entries, sort_keys=True))
        problem = get_problem("linear", **params)[0]
        a = problem.jacobian(0.0, problem.initial_state)
        want = cli_module._parse_matrix(lines[0].split("=")[1])
        assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", ["1 2; 3", "1; 2 3", "1 2;;3 4", "1 2; 3 4;",
                                   ";1 2; 3 4", "1 2; ; 3 4", "1 x; 3 4", "1_000 2; 3 4",
                                   "0x10 2; 3 4"],
                             ids=["ragged", "ragged first", "empty row", "trailing ;",
                                  "leading ;", "blank row", "non-numeric", "underscore",
                                  "hex"])
    def test_parser_refusals(self, tmp_path, capsys, a):
        """Ragged and empty rows and tokens that are not decimal floats are
        one line of usage error in integrate."""
        cfg = _write_config(tmp_path, "problem = linear", f"a = {a}", "y0 = 1 1")
        out = tmp_path / "tape.json"
        capsys.readouterr()
        assert main(["integrate", "--config", str(cfg), "--order", "2", "--h", "0.125",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key a: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_parser_bit_equal_to_float(self):
        """Each token parses to the float() of its text: signed zeros,
        subnormals, the extremes of binary64, and random bit patterns as
        repr writes them and with 17 significant digits."""
        fixed = ["0", "-0", "0.0", "-0.0", "5e-324", "-4.9406564584124654e-324",
                 "2.2250738585072009e-308", "2.2250738585072014e-308",
                 "1.7976931348623157e308", "0.30000000000000004", "9007199254740993",
                 "1e23", "8.5e-5", "+1.5", ".5", "5.", "1E5", "-inf", "inf", "1e400"]
        bits = np.random.default_rng(3).integers(0, 2 ** 64, size=1000, dtype=np.uint64)
        rand = bits.view(np.float64)
        rand = rand[np.isfinite(rand)]
        tokens = fixed + [repr(v) for v in rand.tolist()] + [f"{v:.16e}" for v in rand.tolist()]
        tokens = np.array(tokens[:len(tokens) // 10 * 10]).reshape(-1, 10).tolist()
        text = "; ".join(" ".join(row) for row in tokens)
        parsed = cli_module._parse_matrix(text)
        want = np.array([[float(t) for t in row] for row in tokens])
        assert parsed.shape == want.shape
        assert parsed.tobytes() == want.tobytes()

    def test_parser_separators(self):
        """Commas and spaces separate entries, `;` rows; a row may continue
        on the next line of the config value."""
        for text in ("1, 2; 3, 4", "1 2;\n3 4", "1\n2; 3 4", " 1\t2 ;3  4 "):
            assert cli_module._parse_matrix(text).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert cli_module._parse_matrix("7").tolist() == [[7.0]]


class TestOutputPath:
    """An --out that cannot be opened for writing, in a missing directory or
    naming a directory, or that would overwrite an input or the stage's
    other output, is one line of usage error in every command that writes,
    and nothing is written."""

    def _args(self, tmp_path, stage):
        if stage in ("integrate", "converge"):
            return [stage, "--order", "2",
                    "--h", "0.25" if stage == "integrate" else "0.25,0.125"]
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--order", "2", "--h", "0.25",
                     "--out", str(tape)]) == 0
        if stage == "adjoint":
            return ["adjoint", "--tape", str(tape)]
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        return ["verify", "--tape", str(tape), "--adjoint-file", str(adj)]

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    @pytest.mark.parametrize("stage", ["integrate", "adjoint", "verify",
                                       "converge"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, stage, kind):
        args = self._args(tmp_path, stage)
        if kind == "missing-dir":
            out, reason = tmp_path / "nodir" / "out.json", "No such file or directory"
        else:
            out, reason = tmp_path / "outdir", "Is a directory"
            out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_adjoint_out_named_like_its_csv_refused(self, tmp_path, capsys,
                                                    monkeypatch):
        """--out a.csv would have the CSV overwrite the JSON: refused before
        the sweep runs, and nothing is written."""
        args = self._args(tmp_path, "adjoint")
        out = tmp_path / "a.csv"
        monkeypatch.setattr(cli_module, "adjoint_sweep", None)   # never called
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out} would be overwritten by "
                                f"the CSV {out}\n")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("case", ["tape", "adjoint-file", "csv", "config", "symlink"])
    def test_output_never_overwrites_an_input(self, tmp_path, capsys, monkeypatch, case):
        """adjoint --out on its tape, verify --out on its adjoint file, an
        adjoint CSV on the tape, integrate --out on its config file, and an
        --out that is a symlink to the tape: each is refused before any
        input is loaded, naming the input, and every file keeps its bytes."""
        if case in ("tape", "symlink"):
            args = self._args(tmp_path, "adjoint")
            out = tape = args[2]
            if case == "symlink":
                out = str(tmp_path / "link.json")
                os.symlink(tape, out)
            want = f"--tape {tape} would be overwritten by --out {out}"
        elif case == "adjoint-file":
            args = self._args(tmp_path, "verify")
            out = args[4]
            want = f"--adjoint-file {out} would be overwritten by --out {out}"
        elif case == "csv":
            tape = str(tmp_path / "t.csv")
            assert main(["integrate", "--order", "2", "--h", "0.25", "--out", tape]) == 0
            args, out = ["adjoint", "--tape", tape], str(tmp_path / "t.json")
            want = f"--tape {tape} would be overwritten by the CSV {tape}"
        else:
            out = str(_write_config(tmp_path, "order = 2", "h = 0.25"))
            args = ["integrate", "--config", out]
            want = f"--config {out} would be overwritten by --out {out}"
        monkeypatch.setattr(cli_module, "_load_input", None)      # never called
        monkeypatch.setattr(cli_module, "_build_problem", None)   # never called
        before = {path: path.read_bytes() for path in sorted(tmp_path.rglob("*"))}
        capsys.readouterr()
        assert main([*args, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {want}\n"
        assert captured.out == ""
        assert {path: path.read_bytes() for path in sorted(tmp_path.rglob("*"))} == before

    def test_path_with_nul_is_usage_error(self, tmp_path, capsys):
        """A config file can give --out a NUL, which no path can hold: one
        line of usage error, not the ValueError of open()."""
        cfg = _write_config(tmp_path, "order = 2", "h = 0.25", "out = a\0b.json")
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["integrate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bad path 'a\\x00b.json': embedded null byte\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_adjoint_unwritable_csv_leaves_no_json(self, tmp_path, capsys):
        """adjoint writes both of its outputs or neither: a directory in the
        CSV's place fails it after the JSON was staged, which is removed."""
        args = self._args(tmp_path, "adjoint")
        out, csv_path = tmp_path / "q.json", tmp_path / "q.csv"
        csv_path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {csv_path}: Is a directory\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_adjoint_refused_on_its_csv_keeps_the_earlier_json(self, tmp_path, capsys):
        """An a.json that an earlier run wrote keeps its bytes when the next
        run is refused on a.csv, a directory now, and so does every file."""
        args = self._args(tmp_path, "adjoint")
        out, csv_path = tmp_path / "a.json", tmp_path / "a.csv"
        assert main([*args, "--out", str(out)]) == 0
        csv_path.unlink()
        csv_path.mkdir()
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {csv_path}: Is a directory\n"
        assert _tree(tmp_path) == before

    def test_out_hard_linked_to_the_tape_leaves_the_tape(self, tmp_path):
        """A hard link is not refused, as a symlink is, but --out h.json,
        a hard link to the tape t.json, gets a file of its own: t.json keeps
        the tape's bytes, and h.json and h.csv hold the adjoint outputs."""
        tape, link = tmp_path / "t.json", tmp_path / "h.json"
        assert main(["integrate", "--order", "2", "--h", "0.25", "--out", str(tape)]) == 0
        ref = tmp_path / "ref"
        ref.mkdir()
        assert main(["adjoint", "--tape", str(tape), "--out", str(ref / "h.json")]) == 0
        tape_bytes = tape.read_bytes()
        os.link(tape, link)
        assert main(["adjoint", "--tape", str(tape), "--out", str(link)]) == 0
        assert _tree(tmp_path) == {
            "t.json": tape_bytes, "ref": None,
            **{name: (ref / name).read_bytes() for name in ("h.json", "h.csv")},
            **{f"ref/{name}": (ref / name).read_bytes() for name in ("h.json", "h.csv")}}

    def test_writer_failing_halfway_keeps_earlier_outputs(self, tmp_path, capsys,
                                                          monkeypatch):
        """A CSV writer that raises after writing part of its file, as on a
        full disk, leaves both outputs of the earlier run byte-identical and
        no stand-in behind."""
        args = self._args(tmp_path, "adjoint")
        out = tmp_path / "a.json"
        assert main([*args, "--out", str(out)]) == 0
        before = _tree(tmp_path)

        def half_written(adjoints, path):
            Path(path).write_bytes(b"t,lambda_1\r\n0.25,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_module, "write_adjoint_csv", half_written)
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: cannot write {out.with_suffix('.csv')}: "
                                           "No space left on device\n")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("stage", ["integrate", "adjoint", "verify", "converge"])
    def test_out_dev_null(self, tmp_path, capsys, stage):
        """An output that exists and is not a regular file is written in
        place: --out /dev/null, or for adjoint, whose CSV /dev/null.csv
        would be a new file, an --out symlinked to it."""
        args = self._args(tmp_path, stage)
        out = "/dev/null"
        if stage == "adjoint":
            out = str(tmp_path / "null.json")
            os.symlink("/dev/null", out)
        assert main([*args, "--out", out]) == 0
        assert stat.S_ISCHR(os.stat(out).st_mode)
        if stage == "adjoint":
            assert os.readlink(out) == "/dev/null"
            assert (tmp_path / "null.csv").read_bytes().startswith(b"t,lambda_1,")
        assert not any(p.name.startswith(".") for p in tmp_path.iterdir())

    def test_outputs_get_the_mode_of_open(self, tmp_path):
        """The stand-in that becomes an output has the mode open() leaves
        it with, not mkstemp's 0o600: a new output's is the process's
        umask applied to 0o666, and an existing output keeps its own."""
        old = tmp_path / "old.json"
        old.touch(mode=0o604)
        previous = os.umask(0o027)
        try:
            (tmp_path / "plain").touch()
            for out in ("new.json", "old.json"):
                assert main(["integrate", "--order", "2", "--h", "0.25",
                             "--out", str(tmp_path / out)]) == 0
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"plain": 0o640, "new.json": 0o640, "old.json": 0o604}

    def test_out_through_a_symlink_updates_its_target(self, tmp_path):
        """An --out that is a symlink stays one, and its target is the file
        that gets the new bytes."""
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"old")
        os.symlink(target, link)
        assert main(["integrate", "--order", "2", "--h", "0.25", "--out", str(link)]) == 0
        assert os.readlink(link) == str(target)
        assert target.read_bytes().startswith(b'{"driver_params"')


def _tree(root):
    """{relative path: bytes, or None for a directory} of everything under root."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@functools.lru_cache(maxsize=None)
def _fuzz_documents(mode="nonadaptive"):
    """({"tape": header, "adjoint": document}, payload): a small valid tape,
    as its header and its payload's bytes, and its adjoint document, of the
    catenary, nonadaptive (k=2, h=1/4) or adaptive (rtol 1e-4)."""
    run = (["--order", "2", "--h", "0.25"] if mode == "nonadaptive"
           else ["--mode", "adaptive", "--rtol", "1e-4"])
    with tempfile.TemporaryDirectory() as tmp:
        tape, adj = Path(tmp) / "tape.json", Path(tmp) / "adjoint.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["integrate", *run, "--out", str(tape)]) == 0
            assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        header, payload = split_tape(tape)
        docs = {"tape": header, "adjoint": json.loads(adj.read_text())}
    # bound to the tape as the test writes it, so that a mutated adjoint
    # document reaches verify's checks
    docs["adjoint"]["tape_sha256"] = hashlib.sha256(
        tape_bytes(docs["tape"], payload)).hexdigest()
    return docs, payload


def _write_documents(tmp, docs, payload):
    """{name: path} of the tape and adjoint document written under tmp, the
    tape as its header and payload."""
    files = {name: Path(tmp) / f"{name}.json" for name in docs}
    files["tape"].write_bytes(tape_bytes(docs["tape"], payload))
    files["adjoint"].write_text(json.dumps(docs["adjoint"]))
    return files


def _json_paths(value, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Python's json writes and reads NaN and Infinity, so they are included.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


def _catenary_tape_with_huge_p(tmp_path):
    _, tape = _integrate(tmp_path)
    doc, payload = split_tape(tape)
    doc["problem"]["params"]["p"] = 1e308
    tape.write_bytes(tape_bytes(doc, payload))
    return ["adjoint", "--tape", str(tape), "--out", str(tmp_path / "adjoint.json")]


@pytest.mark.parametrize("argv, code, err", [
    (lambda tmp: ["integrate", "--p", "1e308", "--order", "2", "--h", "0.125",
                  "--out", str(tmp / "tape.json")],
     2, "solver failure: step 0 failed: non-finite residual at t=0.0625\n"),
    (lambda tmp: ["integrate", "--mode", "adaptive", "--rtol", "1e-4", "--atol", "1e308",
                  "--out", str(tmp / "tape.json")], 0, ""),
    (_catenary_tape_with_huge_p, 1, "error: tape failed validation against its problem: "
     "nominal_residual must be finite and non-negative, got inf at step 1\n"),
], ids=["integrate-p-1e308", "adaptive-atol-1e308", "adjoint-p-1e308"])
def test_overflow_prints_no_numpy_warning(tmp_path, capsys, argv, code, err):
    """Values that overflow inside a stage: the catenary rhs at p = 1e308, in
    integrate and in the adjoint stage's tape check, and the step-size factor
    of an adaptive run at atol = 1e308.  The stage keeps its exit code and
    its one stderr line or none, and no NumPy RuntimeWarning is raised (it
    would print before that line)."""
    argv = argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == err


_STDERR_PREFIXES = {1: "error: ", 2: "solver failure: ", 3: "verification failed: "}


def _run_under_contract(argv):
    """(exit code, stderr) of main(argv), argv ending in --out and a path,
    held to the exit-code contract: it raises nothing, warns of nothing, and
    exits 0 with nothing on stderr or 1, 2 or 3 with one line of that code's
    prefix (on exit 1, argparse's own usage block instead); after exit 1 or
    2 neither the --out file nor adjoint's CSV beside it exists."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2, 3)
    assert [str(w.message) for w in caught] == []
    if rc == 0:
        assert err == ""
    elif rc == 1 and err.startswith("usage: bdfadjoint"):
        assert re.match(r"bdfadjoint( \w+)?: error: ", err.splitlines()[-1])
    else:
        assert err.startswith(_STDERR_PREFIXES[rc]) and err.count("\n") == 1
        assert err.endswith("\n")
    out = Path(argv[-1])
    if rc in (1, 2):
        assert not out.exists() and not out.with_suffix(".csv").exists()
    return rc, err


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_get_documented_exit_codes(data):
    """One value of the tape or adjoint document, at a random path, replaced
    by a random JSON value: adjoint and verify keep the exit-code contract
    of _run_under_contract."""
    docs, payload = _fuzz_documents()
    docs = dict(docs)
    which = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_json_paths(docs[which]))))
    docs[which] = _replaced(docs[which], path, data.draw(_JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_documents(tmp, docs, payload)
        _run_under_contract(["adjoint", "--tape", str(files["tape"]),
                             "--out", str(Path(tmp) / "out.json")])
        _run_under_contract(["verify", "--tape", str(files["tape"]), "--adjoint-file",
                             str(files["adjoint"]), "--out", str(Path(tmp) / "kkt.json")])


def _deleted(doc, path):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


def _flipped(data, raw):
    """raw with one of its bytes, if it has any, xor-ed with 1..255."""
    raw = bytearray(raw)
    if raw:
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(raw)


def _mutated(data, doc, payload=None):
    """(kind, doc, payload) with one field of doc deleted, one value replaced
    by a NaN or infinite token, or one byte flipped: of a tape's payload
    bytes, or of a base64 array of an adjoint document (payload None)."""
    kind = data.draw(st.sampled_from(["delete", "flip", "token"]))
    paths = list(_json_paths(doc))[1:]
    if kind == "delete":
        return kind, _deleted(doc, data.draw(st.sampled_from(paths))), payload
    if kind == "token":
        return kind, _replaced(doc, data.draw(st.sampled_from(paths)),
                               data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))), payload
    if payload is not None:
        return kind, doc, _flipped(data, payload)
    path = data.draw(st.sampled_from([p for p in paths if p[-1] == "base64"]))
    field = doc
    for key in path:
        field = field[key]
    raw = _flipped(data, base64.b64decode(field))
    return kind, _replaced(doc, path, base64.b64encode(raw).decode()), payload


_EXTREME_VALUES = ["1e308", "-1e308", "0", "-1", "nan", "inf", "-inf", "5e-324",
                   "1e-308", "1e400", str(2 ** 70)]
# Prefixes of a stage's own flags, and problem parameters that only integrate
# and converge read: each is refused with argparse's usage block.
_STRAY_FLAGS = {"integrate": [["--ord", "3"], ["--rt", "1e-6"], ["--prob", "catenary"],
                              ["--mo", "adaptive"]],
                "adjoint": [["--tap", "{tape}"], ["--prob", "catenary"], ["--p", "3"],
                            ["--A", "1"], ["--tf", "1"]],
                "verify": [["--tap", "{tape}"], ["--adjoint", "{adjoint}"], ["--p", "3"],
                           ["--tf", "1"]]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(data):
    """A nonadaptive or adaptive catenary tape or its adjoint document with
    one field deleted, one byte flipped (of the tape's payload or of a
    base64 array) or one NaN/Infinity token, or a stage run with one
    extreme or abbreviated flag: every run keeps the
    contract of _run_under_contract, a report written on exit 3 says it did
    not pass, a document with a token is refused at load, and a flag that
    the stage does not have is refused with argparse's usage block.  When
    adjoint accepts a mutated tape, verify on the tape and that adjoint
    output exits 0 or 3 with nominal_residual and initial_residual passed;
    and a report's nominal_residual passes exactly when every step's
    residual is within 10 tol_n."""
    docs, payload = _fuzz_documents(data.draw(st.sampled_from(["nonadaptive", "adaptive"])))
    docs = dict(docs)
    target = data.draw(st.sampled_from(["tape", "adjoint", "flag"]))
    if target == "tape":
        kind, docs["tape"], payload = _mutated(data, docs["tape"], payload)
    elif target == "adjoint":
        kind, docs["adjoint"], _ = _mutated(data, docs["adjoint"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = _write_documents(tmp, docs, payload)
        argvs = {"integrate": ["integrate", "--order", "2", "--h", "0.25"],
                 "adjoint": ["adjoint", "--tape", str(files["tape"])],
                 "verify": ["verify", "--tape", str(files["tape"]),
                            "--adjoint-file", str(files["adjoint"])]}
        if target == "flag":
            stage = data.draw(st.sampled_from(sorted(argvs)))
            stray = stage != "integrate" or data.draw(st.booleans())
            if stray:
                extra = [arg.format(**files) for arg in
                         data.draw(st.sampled_from(_STRAY_FLAGS[stage]))]
            else:
                if data.draw(st.booleans()):
                    argvs[stage] = ["integrate", "--mode", "adaptive", "--rtol", "1e-4"]
                extra = ["--{}={}".format(
                    data.draw(st.sampled_from(["p", "A", "tf", "h", "order", "rtol", "atol"])),
                    data.draw(st.sampled_from(_EXTREME_VALUES)))]
            out = tmp / "out.json"
            rc, err = _run_under_contract([*argvs[stage], *extra, "--out", str(out)])
            assert out.exists() == (rc == 0)
            assert not stray or (rc == 1 and err.startswith("usage: bdfadjoint"))
            return
        out, report = tmp / "out.json", tmp / "kkt.json"
        rc, _ = _run_under_contract([*argvs["adjoint"], "--out", str(out)])
        if target == "tape" and rc == 0:   # verify the tape with its own adjoints
            argvs["verify"][-1] = str(out)
        rc_verify, err = _run_under_contract([*argvs["verify"], "--out", str(report)])
        if kind == "token":
            assert rc_verify == 1 and err.startswith("error: cannot load")
            assert rc == 1 or target == "adjoint"
        forward = {}
        if report.exists():
            kkt = json.loads(report.read_text())
            assert kkt["passed"] is (rc_verify == 0)
            tape = load_tape(files["tape"])
            problem = cli_module._problem_for_tape(tape)[0]
            with np.errstate(all="ignore"):
                within = bdf.tape_residuals(problem, tape) <= 10.0 * tape.newton_tolerances
            forward = {name: kkt["checks"][name]["passed"]
                       for name in ("nominal_residual", "initial_residual")}
            assert forward["nominal_residual"] is bool(np.all(within))
        else:
            assert rc_verify != 0
        if target == "tape" and rc == 0:   # adjoint's gate is verify's forward records
            assert rc_verify in (0, 3) and "nominal_residual" not in err
            assert "initial_residual" not in err
            assert False not in forward.values()


class TestConvergeCommand:
    def test_h_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--order", "2", "--h", "0.25,0.125,0.0625",
                   "--probe", "1.25", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "error_tf", "order_tf",
                           "error_interior", "order_interior"]
        assert len(rows) == 4
        hs = [float(r[0]) for r in rows[1:]]
        assert hs == sorted(hs, reverse=True)
        stdout = capsys.readouterr().out
        assert "fitted order (tf)" in stdout

    def test_adaptive_rtol_sweep(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--mode", "adaptive", "--rtol", "1e-4,1e-6",
                   "--probe", "1.25", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "rtol"
        errs = [float(r[1]) for r in rows[1:]]
        assert errs[1] < errs[0]

    def test_sweep_point_beyond_tape_limit_fails_alone(self, tmp_path, capsys):
        """A sweep point of 2e9 steps fails with one line, before any
        allocation; the other points are computed and written, and the fit
        names the row it excludes in one line, not a Python warning."""
        out = tmp_path / "conv.csv"
        assert main(["converge", "--order", "2", "--h", "0.25,0.125,1e-9",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"sweep point h=1e-09 failed: (t_f - t_s) / h = 2e+09 "
            f"main steps of dimension 2 exceed the tape limit of "
            f"{bdf.MAX_STATE_VALUES} state values; choose a larger h",
            "excluding 1 zero/failed rows from the order fit of 'tf'"]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] == "nan" for row in rows[1:]] == [False, False, True]

    def test_too_few_points_is_usage_error(self, tmp_path):
        rc = main(["converge", "--order", "2", "--h", "0.25",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 1

    @pytest.mark.parametrize("args", [
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "-1"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "nan"],
        ["--order", "2", "--h", "0.25,nan"],
        ["--mode", "adaptive", "--rtol", "1e-4,nan"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "inf"],
        ["--mode", "adaptive", "--rtol", "inf,1e-6"],
        ["--order", "2", "--h", "0.25,0.125", "--probe", "nan"],
    ], ids=["atol-negative", "atol-nan", "h-nan", "rtol-nan", "atol-inf",
            "rtol-inf", "probe-nan"])
    def test_bad_sweep_input_is_usage_error(self, tmp_path, args):
        """Refused before any run: not a solver failure, not a NaN row."""
        out = tmp_path / "c.csv"
        rc = main(["converge", *args, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_heat_config_weak_adjoint_second_order(self, tmp_path, capsys):
        """The linear reference's weak adjoint is cheap enough at d = 100 for
        a k = 2 sweep on a heat matrix, whose error at t_f falls at order 2."""
        cfg = _heat_config(tmp_path, 100)
        rc = main(["converge", "--config", str(cfg), "--order", "2",
                   "--h", "0.03125,0.015625,0.0078125,0.00390625",
                   "--probe", "0.25", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        fitted = re.search(r"fitted order \(tf\): (\S+)",
                           capsys.readouterr().out)
        assert 1.9 <= float(fitted.group(1)) <= 2.1

    @pytest.mark.parametrize("hs", ["0.25,0.125", "0.25,0.125,0.0625,0.03125"])
    def test_reference_evaluated_once_per_time(self, tmp_path, hs,
                                               patched_problems):
        """len(probes) + 1 weak-adjoint evaluations, whatever the sweep
        length: the reference does not change between sweep points."""
        times = []

        def counted(problem, reference):
            def weak_adjoint(t):
                times.append(t)
                return reference.weak_adjoint(t)
            return problem, dataclasses.replace(reference, weak_adjoint=weak_adjoint)

        patched_problems(counted)
        rc = main(["converge", "--order", "2", "--h", hs, "--probe", "0.5",
                   "--probe", "1.25", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert sorted(times) == [0.5, 1.25, 2.0]

    def test_probe_outside_interval(self, tmp_path):
        rc = main(["converge", "--order", "2", "--h", "0.25,0.125",
                   "--probe", "3.5", "--out", str(tmp_path / "c.csv")])
        assert rc == 1


class TestConvergeWorkers:
    """converge runs its sweep points in forked workers, one per CPU of the
    process's affinity mask (faked here); its output does not depend on how
    many there are, and no worker outlives the command."""

    @pytest.fixture(autouse=True)
    def _bounded(self):
        """A run that hangs fails its test after a minute."""
        def expire(signum, frame):
            raise TimeoutError("converge did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def _converge(tmp_path, capture, monkeypatch, cpus, *args):
        """(exit code, CSV bytes or None, stdout, stderr, forks) of one run
        with `cpus` CPUs in the affinity mask, read through the capture
        fixture (capfd sees what workers write to fd 2 themselves)."""
        monkeypatch.setattr(cli_module.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(cli_module.os, "fork", counted)
        out = tmp_path / f"conv-{cpus}.csv"
        capture.readouterr()
        rc = main(["converge", *args, "--out", str(out)])
        captured = capture.readouterr()
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        return (rc, out.read_bytes() if out.exists() else None,
                captured.out.replace(str(out), "<out>"), captured.err, len(forks))

    @pytest.mark.parametrize("args", [
        ["--order", "2", "--h", "0.25,0.125,0.0625,0.03125", "--probe", "1.25"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-5,1e-6,1e-7", "--probe", "1.25"],
    ], ids=["h", "rtol"])
    def test_output_independent_of_workers(self, tmp_path, capsys, monkeypatch, args):
        serial = self._converge(tmp_path, capsys, monkeypatch, 1, *args)
        assert serial[0] == 0 and serial[4] == 0
        for cpus in (2, 3):
            forked = self._converge(tmp_path, capsys, monkeypatch, cpus, *args)
            assert forked[:4] == serial[:4]
            assert forked[4] == cpus - 1

    def test_failed_points_reported_in_sweep_order(self, tmp_path, capsys,
                                                   monkeypatch):
        """The two failing points are the costliest, so the parent and a
        worker each compute one; their lines still come in sweep order."""
        args = ["--order", "2", "--h", "0.25,2e-9,0.125,1e-9,0.0625"]
        serial = self._converge(tmp_path, capsys, monkeypatch, 1, *args)
        forked = self._converge(tmp_path, capsys, monkeypatch, 3, *args)
        assert forked[:4] == serial[:4]
        assert serial[0] == 0
        failed = [line.split(" failed")[0] for line in serial[3].splitlines()
                  if line.startswith("sweep point")]
        assert failed == ["sweep point h=2e-09", "sweep point h=1e-09"]

    def test_every_point_failed_exits_2(self, tmp_path, capsys, monkeypatch):
        rc, csv_bytes, _, err, forks = self._converge(
            tmp_path, capsys, monkeypatch, 2, "--order", "2", "--h", "2e-9,1e-9")
        assert (rc, csv_bytes, forks) == (2, None, 1)
        lines = err.splitlines()
        assert [line.split(" failed")[0] for line in lines[:2]] == [
            "sweep point h=2e-09", "sweep point h=1e-09"]
        assert lines[2:] == ["solver failure: every sweep point failed"]

    def test_dead_worker_fails_the_run(self, tmp_path, capsys, monkeypatch):
        """A worker that dies without sending its results ends the command
        with one line and exit 2, and writes no table."""
        parent, integrate = os.getpid(), cli_module.integrate_nonadaptive

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return integrate(*args)

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", dying)
        rc, csv_bytes, out, err, forks = self._converge(
            tmp_path, capsys, monkeypatch, 2, "--order", "2", "--h", "0.25,0.125")
        assert (rc, csv_bytes, out, forks) == (2, None, "", 1)
        assert err == "solver failure: a sweep worker ended with exit status 1\n"

    def test_dead_worker_shows_its_traceback(self, tmp_path, capfd, monkeypatch):
        """A worker that dies of an unexpected exception writes its traceback
        to stderr before the command's one line."""
        parent, integrate = os.getpid(), cli_module.integrate_nonadaptive

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("boom")
            return integrate(*args)

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", failing)
        rc, csv_bytes, out, err, forks = self._converge(
            tmp_path, capfd, monkeypatch, 2, "--order", "2", "--h", "0.25,0.125")
        assert (rc, csv_bytes, out, forks) == (2, None, "", 1)
        lines = err.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-2:] == ["RuntimeError: boom",
                              "solver failure: a sweep worker ended with exit status 1"]

    def test_failing_parent_stops_its_workers(self, tmp_path, capsys, monkeypatch):
        """An exception in the parent's own share kills the workers, which
        would otherwise run on, and reaps them before it propagates."""
        parent = os.getpid()

        def stuck(*args):
            if os.getpid() != parent:
                time.sleep(60)
                os._exit(0)
            raise RuntimeError("parent failed")

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", stuck)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            self._converge(tmp_path, capsys, monkeypatch, 3, "--order", "2",
                           "--h", "0.25,0.125,0.0625")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert time.monotonic() - start < 30
