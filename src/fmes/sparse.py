"""Symmetric sparse solves.

One solve path per symmetric matrix A (real and positive definite, or
complex-symmetric, A^T = A, with a positive definite Hermitian part), picked
by ``choose_solver``:

* ``BandedSolver`` when its band factor fits in DIRECT_LIMIT_BYTES: A is
  factored once in LAPACK band storage, then solved by substitution.  The
  band is n_side + 1 wide on the row-by-row numbered structured mesh.
* else ``cg_solve`` preconditioned by ``multigrid(A, mesh)`` when A lives
  on a structured mesh that coarsens (iterations do not grow with the grid),
* else ``cg_solve`` with Jacobi scaling.

On a mesh, CG and the V-cycle multiply by matrices in DIA storage: the
row-by-row numbering puts every entry of a P1 operator on one of the 7
diagonals {0, +-1, +-n_side, +-(n_side + 1)}, so a product reads 8 bytes
per stored entry where CSR reads 12 (value and column index).  These
products are memory-bound: at n_side 201 a level-0 product took 0.16 ms
instead of 0.22 ms on one Xeon core.  ``choose_solver`` converts each such
matrix once, and ``Multigrid`` each level operator.  DIA sums each row in
the column order of sorted CSR, so the results are bit-identical.

Only ``BandedSolver`` checks its true residual ||A x - b|| <= tol ||b||, and
a lone band solve of K_bar x = M 1 misses the eigensolve's 1e-13 (9.2e-13,
5.7e-12 and 1.3e-11 at n_side 26, 51 and 101).  So the eigensolve runs CG
with the band substitution as preconditioner: 1-2 iterations per solve.
CG stops on its recurrence residual; asked for 1e-13 there, its true
residual was 4.1e-13, 1.6e-12 and 7.1e-12 at n_side 26, 51 and 101, 5.8e-11
with multigrid at 201, and 4.0e-10 with Jacobi at 201.  The same explicit CG
loop solves complex-symmetric systems as conjugate orthogonal CG.  All paths
are deterministic, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import Mesh

# Largest band factor a matrix may keep; a larger one is solved by CG,
# multigrid-preconditioned where the mesh coarsens.  The paper's grid (676
# nodes) needs 0.15 MB real, 0.9 MB complex; real factors fit up to n_side
# 127 (16.6 MB), and n_side 201 (40,401 nodes) would need 65 MB real.
DIRECT_LIMIT_BYTES = 16 * 2 ** 20


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
             *, x0: np.ndarray | None = None,
             precondition=None) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for a symmetric matrix.

    A real ``A`` must be positive definite.  A complex ``A`` must be
    symmetric (A^T = A) with a positive definite Hermitian part; it is
    solved by conjugate orthogonal CG, the same loop with the unconjugated
    bilinear form r^T z.

    Parameters
    ----------
    A : square sparse (or dense) matrix, real or complex
    rhs : right-hand side vector
    tol : relative tolerance on the CG recurrence residual; the true
        residual ||A x - rhs|| / ||rhs|| is never computed and can be far
        larger (see the module docstring)
    max_iter : iteration cap (default scales with the dimension)
    x0 : optional warm start (without one, no product A x0 is made)
    precondition : callable r -> z, a real SPD approximation of A^-1 such
        as a ``Multigrid`` or ``BandedSolver.substitute``; None (the
        default) is diagonal (Jacobi) scaling.  Each iteration tests the
        residual before preconditioning it, so a converged solve applies
        ``precondition`` once per iteration.

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
    if precondition is None:
        diagonal = A.diagonal()
        inv_diag = 1.0 / np.where(diagonal == 0.0, 1.0, diagonal)

        def precondition(r):
            return inv_diag * r

    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs), SolveReport(0, 0.0, True)

    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=dtype)
    r = rhs if x0 is None else rhs - A @ x
    p = rz = None

    for iterations in range(max_iter + 1):
        res = float(np.linalg.norm(r))
        if res <= tol * b_norm:
            return x, SolveReport(iterations, res / b_norm, True)
        if iterations == max_iter:
            break
        z = precondition(r)
        rz_next = r @ z
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
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

    def substitute(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs from the factor (made on first use), residual unchecked.
        A complex rhs on a real factor is solved as two real columns."""
        if self._factor is None:
            self._factor = self._factorize()
        if self.is_complex:
            lu, ipiv = self._factor
            u = self.bandwidth
            x, info = scipy.linalg.lapack.zgbtrs(lu, u, u, rhs, ipiv)
            if info != 0:
                raise ValueError(f"zgbtrs rejected its arguments (info={info})")
            return x
        cols = (np.column_stack((rhs.real, rhs.imag))
                if np.iscomplexobj(rhs) else rhs)
        x, info = scipy.linalg.lapack.dpbtrs(self._factor, cols)
        if info != 0:
            raise ValueError(f"dpbtrs rejected its arguments (info={info})")
        return x if cols is rhs else x[:, 0] + 1j * x[:, 1]

    def solve(self, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, SolveReport]:
        """Solve A x = rhs; raise ConvergenceError unless the relative
        residual ||A x - rhs|| / ||rhs|| is at most ``tol``."""
        x = self.substitute(rhs)
        b_norm = float(np.linalg.norm(rhs))
        if b_norm == 0.0:
            return np.zeros_like(rhs), SolveReport(0, 0.0, True)
        residual = float(np.linalg.norm(self.A @ x - rhs)) / b_norm
        report = SolveReport(0, residual, residual <= tol)
        if not report.converged:
            raise ConvergenceError(
                f"banded solve missed tol={tol:g} (relative residual "
                f"{residual:.3e})", report=report)
        return x, report


def prolongation(n_side: int) -> sp.csr_matrix:
    """P1 interpolation from the structured mesh with (n_side + 1) / 2 nodes
    per side to the one with n_side (odd) nodes per side.

    A fine node on a coarse node keeps its value; every other fine node is
    the midpoint of a coarse edge (horizontal, vertical, or the lower-left
    to upper-right diagonal) and takes the mean of the edge's two ends.
    """
    nc = (n_side + 1) // 2
    fine = np.arange(n_side ** 2).reshape(n_side, n_side)
    coarse = np.arange(nc ** 2).reshape(nc, nc)
    ends = [(fine[::2, ::2], [coarse]),
            (fine[::2, 1::2], [coarse[:, :-1], coarse[:, 1:]]),
            (fine[1::2, ::2], [coarse[:-1], coarse[1:]]),
            (fine[1::2, 1::2], [coarse[:-1, :-1], coarse[1:, 1:]])]
    rows, cols, vals = map(np.concatenate, zip(*[
        (f.ravel(), c.ravel(), np.full(f.size, 1.0 / len(cs)))
        for f, cs in ends for c in cs]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_side ** 2, nc ** 2))


def _coarsens(n_side: int) -> bool:
    return (n_side - 1) % 2 == 0 and n_side > 20


class Multigrid:
    """Geometric multigrid V(2,2)-cycle: a symmetric positive definite
    preconditioner for the real part of a matrix on a structured mesh.

    Levels halve the mesh by ``prolongation`` while n_side - 1 is even and
    n_side > 20, with Galerkin coarse operators P^T A P and a banded
    Cholesky factor on the coarsest.  Each level smooths twice before and
    twice after the coarse correction by damped Jacobi (weight 0.8).  Every
    operator is real, so a complex vector's real and imaginary parts are
    preconditioned alike.

    ``levels`` holds per level the operator in DIA storage, the Jacobi
    weights, the prolongation P and the restriction P^T, both CSR: the
    transposed view ``P.T`` is CSC, and its product takes twice as long.
    """

    def __init__(self, A, n_side: int):
        A = sp.csr_matrix(A.real if np.iscomplexobj(A) else A)
        self.levels = []
        while _coarsens(n_side):
            P = prolongation(n_side)
            self.levels.append((A.todia(), 0.8 / A.diagonal(), P, P.T.tocsr()))
            A = (P.T @ A @ P).tocsr()
            n_side = (n_side + 1) // 2
        self.coarsest = BandedSolver(A)

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarsest.substitute(r)
        A, jacobi, P, R = self.levels[level]
        x = jacobi * r
        x += jacobi * (r - A @ x)
        x += P @ self(R @ (r - A @ x), level + 1)
        for _ in range(2):
            x += jacobi * (r - A @ x)
        return x


def multigrid(A, mesh: Mesh | None) -> Multigrid | None:
    """The V-cycle of Re(A) if A lives on ``mesh`` and the mesh coarsens at
    least once, else None (``cg_solve`` then scales by Jacobi)."""
    if mesh is None or not _coarsens(mesh.n_side):
        return None
    return Multigrid(A, mesh.n_side)


def choose_solver(A, mesh: Mesh | None):
    """The solve path of A as ``(direct, operator, precondition)``.

    ``(BandedSolver(A), A, None)`` when the band factor fits in
    DIRECT_LIMIT_BYTES.  Else ``(None, operator, multigrid(A, mesh))``: the
    matrix CG multiplies by, in DIA storage when A lives on ``mesh`` (as
    given without one, whose sparsity can be arbitrary), and the CG
    preconditioner (None meaning Jacobi scaling).
    """
    direct = BandedSolver(A)
    if direct.nbytes <= DIRECT_LIMIT_BYTES:
        return direct, A, None
    if mesh is None:
        return None, A, None
    precondition = multigrid(A, mesh)
    if precondition is None or direct.is_complex:
        return None, direct.A.todia(), precondition
    return None, precondition.levels[0][0], precondition    # Re(A) is A
