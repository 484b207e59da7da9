"""Symmetric sparse solves.

Two solvers share one contract: a solve of a symmetric matrix A (real and
positive definite, or complex-symmetric, A^T = A, with a positive definite
Hermitian part) returns x with ||A x - b|| <= tol ||b||, or raises
ConvergenceError.

* ``BandedSolver`` factors A once in LAPACK band storage and then solves by
  back-substitution.  Its memory is set by the bandwidth read from the
  pattern (n_side + 1 on the row-by-row numbered structured mesh), so
  callers compare its ``nbytes`` with a budget before using it.
* ``cg_solve`` is Jacobi-scaled conjugate gradients, written out explicitly
  so that the iteration count, the reported residual and the failure
  behaviour are fully under our control.  The same loop solves
  complex-symmetric systems as conjugate orthogonal CG.

Both are deterministic, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
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


def bandwidth(A) -> int:
    """Largest |i - j| over the stored entries of sparse A."""
    A = sp.csr_matrix(A)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return int(np.abs(rows - A.indices).max(initial=0))


def _band_storage(coo: sp.coo_matrix, offset: int, n_rows: int) -> np.ndarray:
    """LAPACK band storage ab[offset + i - j, j] = a[i, j]; entries that fall
    outside the n_rows rows (the lower triangle, for the upper Cholesky
    form) are dropped."""
    diag = offset + coo.row - coo.col
    keep = diag < n_rows
    ab = np.zeros((n_rows, coo.shape[1]), dtype=coo.dtype)
    ab[diag[keep], coo.col[keep]] = coo.data[keep]
    return ab


class BandedSolver:
    """Direct solves of one symmetric sparse matrix through a band factor.

    A real A gets a banded Cholesky factor, (u + 1) n doubles for
    bandwidth u.  A complex-symmetric A gets a banded LU factor with
    partial pivoting (LAPACK zgbtrf), (3u + 1) n complex numbers; its
    Hermitian part Re(A) is Cholesky-factored once as well, only to prove
    it positive definite.  The factorization runs on the first ``solve``,
    and every solve checks its true residual.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A)
        self.bandwidth = bandwidth(self.A)
        n, u = self.A.shape[0], self.bandwidth
        self.is_complex = np.iscomplexobj(self.A)
        self.nbytes = ((3 * u + 1) * n * 16 if self.is_complex
                       else (u + 1) * n * 8)
        self._factor = None

    def _factorize(self):
        u = self.bandwidth
        coo = self.A.tocoo()
        coo.sum_duplicates()
        try:
            chol = scipy.linalg.cholesky_banded(
                _band_storage(coo.real if self.is_complex else coo, u, u + 1))
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(
                "operator is not positive definite (banded Cholesky of its "
                f"Hermitian part failed: {err})") from err
        if not self.is_complex:
            return chol
        lu, ipiv, info = scipy.linalg.lapack.zgbtrf(
            _band_storage(coo, 2 * u, 3 * u + 1), u, u)
        if info != 0:
            raise ConvergenceError(f"banded LU failed (zgbtrf info={info})")
        return lu, ipiv

    def solve(self, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, SolveReport]:
        """Solve A x = rhs; raise ConvergenceError unless the relative
        residual ||A x - rhs|| / ||rhs|| is at most ``tol``."""
        if self._factor is None:
            self._factor = self._factorize()
        b_norm = float(np.linalg.norm(rhs))
        if b_norm == 0.0:
            return np.zeros_like(rhs), SolveReport(0, 0.0, True)
        if self.is_complex:
            lu, ipiv = self._factor
            u = self.bandwidth
            x, info = scipy.linalg.lapack.zgbtrs(lu, u, u, rhs, ipiv)
            if info != 0:
                raise ValueError(f"zgbtrs rejected its arguments (info={info})")
        else:
            x = scipy.linalg.cho_solve_banded((self._factor, False), rhs,
                                              check_finite=False)
        residual = float(np.linalg.norm(self.A @ x - rhs)) / b_norm
        report = SolveReport(0, residual, residual <= tol)
        if not report.converged:
            raise ConvergenceError(
                f"banded solve missed tol={tol:g} (relative residual "
                f"{residual:.3e})", report=report)
        return x, report

