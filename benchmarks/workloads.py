"""The benchmark workloads: seeded inputs and the CLI stages of one pass.

A workload is a tuple of CLI stages, each an argument vector for
``bdfadjoint.cli.main``, plus the files those stages read and write.  The
seed changes values, never sizes: it jitters the catenary parameter A,
perturbs the heat initial state and picks the finite-difference direction of
the gradient check.  The program sees only the generated flags and files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("catenary-fixed", "catenary-adaptive", "heat-fixed", "heat-adaptive")

CATENARY_P = 3.0
CATENARY_A = -3.0
CATENARY_TF = 2.0
# Small enough that grad_err and weak_err_tf move by well under their bound
# from one seed to the next; large enough that every seed integrates anew.
CATENARY_A_JITTER = 0.01
CATENARY_PROBE = 1.25

HEAT_NU = 0.1
# t_f = 0.5 with h = 2^-8 keeps h*|lambda|max near 251 while a heat-fixed
# pass stays short enough for the pass count the tail percentile needs.
HEAT_TF = 0.5
# Small enough that the adaptive grid, and so grad_err, is the same for
# every seed (at 1e-2 it flips between 59 and 60 steps).
HEAT_PERTURBATION = 1e-4
HEAT_PERTURBED_MODES = (2, 3, 4)


@dataclass(frozen=True)
class Size:
    catenary_h: float
    ladder: tuple          # rtol rungs of catenary-adaptive, loosest first
    heat_d: int
    heat_h: float
    heat_rtol: float


SIZES = {
    "full": Size(catenary_h=2.0 ** -10,
                 ladder=(1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11),
                 heat_d=400, heat_h=2.0 ** -8, heat_rtol=1e-6),
    # Reduced sizes for the smoke test: same stages, same code paths except
    # that verify_kkt takes its dense path on the small heat problem.
    "small": Size(catenary_h=2.0 ** -6, ladder=(1e-4, 1e-5, 1e-6),
                  heat_d=16, heat_h=2.0 ** -5, heat_rtol=1e-4),
}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple            # ((stage name, argv), ...) in pass order
    tape: Path
    adjoint: Path
    kkt: Path
    ladder_csv: Path | None  # converge output (catenary-adaptive only)
    fd_direction: np.ndarray

    @property
    def outputs(self):
        """Every file a pass writes; a correct pass rewrites them byte for byte."""
        files = [self.tape, self.adjoint, self.adjoint.with_suffix(".csv"), self.kkt]
        return files + ([self.ladder_csv] if self.ladder_csv else [])


def _fmt(values):
    return " ".join(repr(float(v)) for v in values)


def _chain(workdir, problem_args, mode_args):
    tape = workdir / "tape.json"
    adjoint = workdir / "adjoint.json"
    kkt = workdir / "kkt.json"
    stages = (
        ("integrate", ["integrate", *problem_args, *mode_args, "--out", str(tape)]),
        ("adjoint", ["adjoint", "--tape", str(tape), "--out", str(adjoint)]),
        ("verify", ["verify", "--tape", str(tape), "--adjoint-file", str(adjoint),
                    "--out", str(kkt)]),
    )
    return stages, tape, adjoint, kkt


def write_heat_config(path, d, rng):
    """Method-of-lines heat equation u_t = nu*u_xx on (0, 1), Dirichlet, as
    the ``linear`` problem: central differences on d interior points,
    y0 = sin(pi x) + sin(5 pi x)/2 plus a small seeded smooth perturbation,
    and J(y) = dx * sum(y)."""
    dx = 1.0 / (d + 1)
    x = dx * np.arange(1, d + 1)
    a = (HEAT_NU / dx ** 2) * (np.diag(np.full(d, -2.0))
                               + np.diag(np.ones(d - 1), 1)
                               + np.diag(np.ones(d - 1), -1))
    modes = np.array(HEAT_PERTURBED_MODES, dtype=float)
    weights = HEAT_PERTURBATION * rng.standard_normal(modes.size)
    y0 = (np.sin(np.pi * x) + 0.5 * np.sin(5.0 * np.pi * x)
          + weights @ np.sin(np.outer(modes, np.pi * x)))
    lines = [
        "[problem]",
        "problem = linear",
        f"tf = {HEAT_TF!r}",
        "a = " + "; ".join(_fmt(row) for row in a),
        "y0 = " + _fmt(y0),
        "c = " + _fmt(np.full(d, dx)),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def build(name, seed, workdir, size="full") -> Workload:
    """Generate the inputs of workload `name` for `seed` under `workdir`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (available: {', '.join(NAMES)})")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    sz = SIZES[size]
    ladder_csv = None
    prefix = ()

    if name.startswith("catenary"):
        d = 2
        a_value = CATENARY_A + CATENARY_A_JITTER * (2.0 * rng.random() - 1.0)
        problem_args = ["--problem", "catenary", "--p", repr(CATENARY_P),
                        "--A", repr(a_value), "--tf", repr(CATENARY_TF)]
    else:
        d = sz.heat_d
        config = workdir / "heat.cfg"
        write_heat_config(config, d, rng)
        problem_args = ["--config", str(config)]

    if name.endswith("fixed"):
        h = sz.catenary_h if name.startswith("catenary") else sz.heat_h
        mode_args = ["--mode", "nonadaptive", "--order", "2", "--h", repr(h)]
    elif name == "heat-adaptive":
        mode_args = ["--mode", "adaptive", "--rtol", repr(sz.heat_rtol)]
    else:
        # The convergence ladder, then the full chain on its tightest rung so
        # that this workload reports the same stage and accuracy metrics.
        ladder_csv = workdir / "ladder.csv"
        prefix = (("converge", ["converge", *problem_args, "--mode", "adaptive",
                                "--rtol", ",".join(repr(r) for r in sz.ladder),
                                "--probe", repr(CATENARY_PROBE),
                                "--out", str(ladder_csv)]),)
        mode_args = ["--mode", "adaptive", "--rtol", repr(sz.ladder[-1])]

    stages, tape, adjoint, kkt = _chain(workdir, problem_args, mode_args)
    direction = rng.standard_normal(d)
    return Workload(name=name, stages=prefix + stages, tape=tape, adjoint=adjoint,
                    kkt=kkt, ladder_csv=ladder_csv,
                    fd_direction=direction / np.linalg.norm(direction))
