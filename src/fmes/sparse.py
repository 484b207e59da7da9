"""Symmetric sparse solves and operator composition.

The conjugate gradient loop is written out explicitly (instead of calling
into a library) so that the iteration count, the reported residual and the
failure behaviour are fully under our control and runs are bit-reproducible.
The same loop solves complex-symmetric systems (A^T = A, not Hermitian) as
conjugate orthogonal CG, which the rational steppers need for complex poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    Carries the final ``report`` (and, for eigensolves, the eigenvalue
    ``history``) so callers can inspect how far the iteration got.
    """

    def __init__(self, message: str, report: SolveReport | None = None,
                 history: list[float] | None = None):
        super().__init__(message)
        self.report = report
        self.history = history


def cg_solve(A, rhs: np.ndarray, tol: float = 1e-10, max_iter: int | None = None,
             *, x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients with diagonal (Jacobi) scaling for a symmetric matrix.

    A real ``A`` must be positive definite.  A complex ``A`` must be
    symmetric (A^T = A) with a positive definite Hermitian part; it is
    solved by conjugate orthogonal CG, the same loop with the unconjugated
    bilinear form r^T z.

    Parameters
    ----------
    A : square sparse (or dense) matrix, real or complex
    rhs : right-hand side vector
    tol : relative residual tolerance, ||A x - rhs|| <= tol ||rhs||; the
        residual is the standard CG recurrence estimate, which near machine
        precision can understate the true residual by a small factor
    max_iter : iteration cap (default scales with the dimension)
    x0 : optional warm start

    Returns
    -------
    (solution, SolveReport)

    Raises
    ------
    ConvergenceError
        If the tolerance is not met within max_iter iterations, or if
        Re(p^H A p) <= 0 for a search direction p (A, or its Hermitian
        part, is not positive definite).  The partial solution is not
        returned; the report rides on the exception.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"operator must be square, got shape {A.shape}")
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    dtype = np.result_type(A.dtype, rhs.dtype, float)
    is_complex = np.issubdtype(dtype, np.complexfloating)
    rhs = rhs.astype(dtype, copy=False)
    if max_iter is None:
        max_iter = max(1000, 20 * n)
    diagonal = A.diagonal()
    inv_diag = 1.0 / np.where(diagonal == 0.0, 1.0, diagonal)

    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs), SolveReport(0, 0.0, True)

    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=dtype)
    r = rhs - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = r @ z

    for iterations in range(max_iter + 1):
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm:
            return x, SolveReport(iterations, res / b_norm, True)
        if iterations == max_iter:
            break
        ap = A @ p
        pap = p @ ap
        # a real solve keeps one reduction; a complex one also needs p^H A p
        if (np.vdot(p, ap).real if is_complex else pap) <= 0.0:
            raise ConvergenceError(
                "operator is not positive definite (Re(p^H A p) <= 0 in CG)",
                report=SolveReport(iterations, res / b_norm, False))
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next

    report = SolveReport(max_iter, float(np.linalg.norm(r)) / b_norm, False)
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {report.relative_residual:.3e})", report=report)


def compose_shifted(K: sp.spmatrix, M: sp.spmatrix, lambda1: float) -> sp.csr_matrix:
    """Shifted stiffness K - lambda1 * M.

    Subtracting the identity at operator level corresponds to subtracting the
    mass matrix at matrix level; with lambda1 the fundamental eigenvalue the
    result is symmetric positive semidefinite up to eigensolver error.
    """
    if K.shape != M.shape:
        raise ValueError(f"shape mismatch: K {K.shape} vs M {M.shape}")
    return (K - lambda1 * M).tocsr()
