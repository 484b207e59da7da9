"""Fundamental eigenpair by inverse iteration, plus a dense modal oracle.

The inverse iteration solves K_bar phi_new = M phi with mass-weighted inner
products throughout; the eigenvalue estimate after each solve is
(phi, phi)_M / (phi_new, phi)_M.  The dense path computes the full
generalized eigendecomposition of (K, M) and backs both the cross-validation
tests and the modal time steppers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import FemSystem, m_norm
from .sparse import ConvergenceError, cg_solve

# Largest system (in nodes) modal_decompose accepts.
DENSE_LIMIT = 2500
# Relative residual of each inverse-iteration solve.
INNER_TOL = 1e-13


@dataclass(frozen=True)
class EigenPair:
    """Fundamental eigenpair of the reaction-free operator.

    lambda1_bar is the eigenvalue of the diffusion + boundary operator;
    lambda1 = lambda1_bar + c includes the reaction shift.  phi1 is
    mass-normalized with positive sign.  history holds the eigenvalue
    estimate after every iteration.
    """

    lambda1_bar: float
    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    history: list[float] = field(repr=False)


@dataclass(frozen=True)
class ModalBasis:
    """Full generalized eigendecomposition of (K, M).

    eigenvalues ascend; eigenvector columns are M-orthonormal.  The mass
    matrix rides along so projections need no extra context.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mass: sp.csr_matrix = field(repr=False)


def inverse_iteration(sys: FemSystem, tol: float = 1e-13, max_iter: int = 50,
                      *, min_iter: int = 1) -> EigenPair:
    """Smallest eigenpair of (K_bar, M) by inverse iteration.

    Starts from the all-ones vector (which overlaps strongly with the
    sign-definite fundamental mode), solves K_bar phi_new = M phi with CG at
    INNER_TOL, and stops once consecutive eigenvalue estimates agree to
    ``tol`` relative (never before ``min_iter`` iterations, which lets
    callers force a fixed-length history).

    Raises
    ------
    ConvergenceError
        If an inner solve fails (singular operator) or the estimate has not
        settled within ``max_iter`` iterations; the partial history rides on
        the exception.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = sys.n_nodes
    phi = np.ones(n) / m_norm(sys, np.ones(n))
    history: list[float] = []
    lam_prev: float | None = None
    lam = float("nan")
    warm: np.ndarray | None = None

    for it in range(1, max_iter + 1):
        rhs = sys.M @ phi
        try:
            psi, _ = cg_solve(sys.K_bar, rhs, tol=INNER_TOL, x0=warm)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"inner solve failed at iteration {it} "
                "(is the operator positive definite?)",
                report=err.report, history=history) from err
        lam = float(phi @ rhs) / float(psi @ rhs)
        history.append(lam)
        norm = m_norm(sys, psi)
        phi = psi / norm
        warm = phi / lam
        if (lam_prev is not None and it >= min_iter
                and abs(lam - lam_prev) <= tol * abs(lam)):
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"inverse iteration did not settle to {tol:g} in {max_iter} "
            "iterations", history=history)

    if np.max(phi) <= 0.0:
        phi = -phi
    residual = float(np.linalg.norm(sys.K_bar @ phi - lam * (sys.M @ phi)))
    c = sys.coeffs.c
    return EigenPair(lambda1_bar=lam, lambda1=lam + c, phi1=phi,
                     residual=residual, iterations=len(history),
                     history=history)


def modal_decompose(sys: FemSystem) -> ModalBasis:
    """Dense generalized eigendecomposition of (K, M) for small systems.

    Refuses systems above DENSE_LIMIT nodes; the dense path exists as an
    oracle and as the engine of the modal steppers, not as a production
    eigensolver.
    """
    n = sys.n_nodes
    if n > DENSE_LIMIT:
        raise ValueError(f"system has {n} nodes, above the dense limit "
                         f"{DENSE_LIMIT}")
    evals, evecs = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray())
    return ModalBasis(eigenvalues=evals, eigenvectors=evecs, mass=sys.M)


def exact_semidiscrete_solution(basis: ModalBasis, w0: np.ndarray,
                                t: float) -> np.ndarray:
    """Evaluate the semi-discrete solution sum_k (w0, phi_k)_M e^{-lam_k t} phi_k."""
    coeffs = basis.eigenvectors.T @ (basis.mass @ np.asarray(w0, dtype=float))
    return basis.eigenvectors @ (coeffs * np.exp(-basis.eigenvalues * t))
