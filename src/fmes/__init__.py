"""Fundamental-mode-exact time stepping for parabolic FEM problems.

The package builds P1 finite element operators for a model diffusion
problem on the unit square, computes the fundamental eigenpair, and
advances the semi-discrete system with standard weighted schemes, shifted
(fundamental-mode-exact) weighted schemes, and Pade-based one-step
methods, together with the error studies comparing them.
"""

from .assembly import (FemSystem, ProblemCoefficients, assemble, m_inner,
                       m_norm)
from .experiments import (ExperimentConfig, ExperimentResult, Reference,
                          RunResult, SchemeRequest, epsilon_u,
                          initial_state, make_reference, run_experiment,
                          run_table1, sweep_reaction)
from .mesh import Mesh, build_mesh
from .schemes import (SchemeSpec, Trajectory, amplification_factor,
                      fmes_weight, make_stepper, pade_coefficients,
                      pade_rational, run_scheme)
from .sparse import ConvergenceError, SolveReport, cg_solve
from .spectral import (EigenPair, ModalBasis, exact_semidiscrete_solution,
                       inverse_iteration, modal_decompose)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "EigenPair", "ExperimentConfig", "ExperimentResult",
    "FemSystem", "Mesh", "ModalBasis", "ProblemCoefficients", "Reference",
    "RunResult", "SchemeRequest", "SchemeSpec", "SolveReport", "Trajectory",
    "amplification_factor", "assemble", "build_mesh", "cg_solve",
    "epsilon_u", "exact_semidiscrete_solution", "fmes_weight", "initial_state",
    "inverse_iteration", "m_inner", "m_norm", "make_reference",
    "make_stepper", "modal_decompose", "pade_coefficients", "pade_rational",
    "run_experiment", "run_scheme", "run_table1", "sweep_reaction",
]
