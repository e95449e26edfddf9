"""Variable-order, variable-stepsize BDF integration with discrete adjoints.

The forward solver records what differentiating the computation exactly
needs, its nodes, orders and states, and each step's Newton iteration count.
The adjoint sweep then runs the recorded recursion backwards, producing
multipliers whose step-function interpolant approximates the continuous
adjoint in a weak (dual, Riemann--Stieltjes) sense.
"""

from .adjoint import (DiscreteAdjoints, WeakAdjoint, adjoint_sweep,
                      assemble_weak_adjoint)
from .analysis import (Check, ConvergenceTable, coefficient_defects, dual_norm_bound,
                       fit_order, pointwise_error, verify_kkt)
from .bdf import (IntegrationTape, SolverError, TimeGrid, compute_coefficients,
                  dense_eval, integrate_adaptive, integrate_nonadaptive,
                  replay_integration, tape_residuals)
from .problems import (AnalyticReference, OdeProblem, catenary_problem,
                       get_problem, linear_test_problem)
from .serialize import (load_adjoint_results, load_tape, save_adjoint_results,
                        save_kkt_report, save_tape, tape_sha256,
                        write_adjoint_csv, write_convergence_csv)

__version__ = "0.1.0"

__all__ = [
    "AnalyticReference",
    "Check",
    "ConvergenceTable",
    "DiscreteAdjoints",
    "IntegrationTape",
    "OdeProblem",
    "SolverError",
    "TimeGrid",
    "WeakAdjoint",
    "adjoint_sweep",
    "assemble_weak_adjoint",
    "catenary_problem",
    "coefficient_defects",
    "compute_coefficients",
    "dense_eval",
    "dual_norm_bound",
    "fit_order",
    "get_problem",
    "integrate_adaptive",
    "integrate_nonadaptive",
    "linear_test_problem",
    "load_adjoint_results",
    "load_tape",
    "pointwise_error",
    "replay_integration",
    "save_adjoint_results",
    "save_kkt_report",
    "save_tape",
    "tape_residuals",
    "tape_sha256",
    "verify_kkt",
    "write_adjoint_csv",
    "write_convergence_csv",
]
