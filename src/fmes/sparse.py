"""Symmetric sparse solves.

``choose_solver`` gives each symmetric matrix A (real and positive
definite, or complex-symmetric, A^T = A, with a positive definite Hermitian
part) one solver object: a ``BandedSolver`` (one LAPACK band factor, n_side
+ 1 wide on the row-by-row numbered mesh) when it fits in
DIRECT_LIMIT_BYTES, else a real ``Multigrid`` V-cycle of Re(A) on A's
structured mesh, of either parity of n_side (12-20 CG iterations per solve
of K_bar from n_side 27 to 256).  Both are preconditioners
``solver(r) -> ~A^-1 r`` that carry ``solver.operator``, the matrix CG
multiplies by: ``cg_solve(solver.operator, b, precondition=solver)``.

Every solver keeps A once, in DIA storage as assembled (``sp.dia_matrix``
shares the arrays): every entry of a P1 operator on the row-by-row mesh
lies on one of the 7 diagonals {0, +-1, +-n_side, +-(n_side + 1)}.  DIA
rows are LAPACK's band storage (LAPACK Users' Guide, 3rd ed., 5.3.3), and
a product reads 8 bytes per stored entry where CSR reads 12: at n_side 201
a level-0 product took 0.16 ms instead of 0.22 ms on one Xeon core.  DIA
sums each row in the column order of sorted CSR: results are bit-identical.

Only ``BandedSolver.solve`` checks its true residual
||A x - b|| <= tol ||b||, and a lone band solve of K_bar x = M 1 misses the
eigensolve's 1e-13 (9.2e-13, 5.7e-12 and 1.3e-11 at n_side 26, 51 and
101).  So the eigensolve runs CG with the band substitution as
preconditioner: 1-2 iterations per solve.  CG stops on its recurrence
residual; asked for 1e-13 there, its true residual was 4.1e-13, 1.6e-12
and 7.1e-12 at n_side 26, 51 and 101, and 5.8e-11 with multigrid at 201.
The same explicit CG loop solves complex-symmetric systems as conjugate
orthogonal CG, and stops with a ConvergenceError when r^T z or p^T A p
leaves the normal float range (a breakdown, or a tolerance below
roundoff).  A warm start x0 is kept only if ||b - A x0|| <= ||b||, else
CG starts from zero; the time steppers start each multigrid pole solve
from a projection onto that system's earlier solutions
(``schemes._Projection``).  All paths are deterministic, so runs are
bit-reproducible.

CG, its reductions and its stopping test always run in float64.  A
``Multigrid`` may keep its levels in float32 (``choose_solver(..., dtype=
np.float32)``; Goeddeke, Strzodka & Turek, IJPEDS 22, 2007): each level's
operator, Jacobi weights, P and P^T are cast once, after the float64
Galerkin products, while ``operator`` and the coarsest band factor stay
float64, and the cycle casts r down on entry and its result up on exit.
The time steppers' pole systems do this, and take the same CG iterations
per solve in 24 ms instead of 35 ms at n_side 201.  The eigensolve keeps
float64 levels, because its stop test sits on roundoff noise from n_side
101 up and a float32 cycle changed its sweep count on 6 of 8 seeds at
n_side 201.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import Mesh

# Largest band factor a matrix may keep; a larger one is solved by
# multigrid-preconditioned CG.  The paper's grid (676 nodes) needs 0.15 MB
# real, 0.9 MB complex; real factors fit up to n_side 127 (16.6 MB), and
# n_side 201 (40,401 nodes) would need 65 MB real.
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


def _check_breakdown(name: str, value, iterations: int, residual: float):
    """Raise ConvergenceError unless a CG scalar is finite and at least the
    smallest normal float: a subnormal divisor loses digits, and complex
    division, which takes its reciprocal, overflows."""
    if not np.finfo(float).tiny <= abs(value) < math.inf:
        raise ConvergenceError(
            f"CG breakdown: {name} = {value} underflowed or is not finite",
            report=SolveReport(iterations, residual, False))


def cg_solve(A, rhs: np.ndarray, tol: float = 1e-10, max_iter: int = 1000,
             *, x0: np.ndarray | None = None,
             precondition) -> tuple[np.ndarray, SolveReport]:
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
    max_iter : iteration cap; band- and multigrid-preconditioned solves
        take at most about 20 iterations, so the default 1000 only stops a
        stagnating solve
    x0 : optional warm start; it costs one product A x0, and is dropped
        for a zero start when ||rhs - A x0|| > ||rhs||, so a poor guess
        takes the iterations of none
    precondition : callable r -> z, an SPD approximation of A^-1: the
        ``Multigrid`` or the ``BandedSolver`` of A.  Each iteration tests
        the residual before preconditioning it, so a converged solve
        applies ``precondition`` once per iteration.

    Returns
    -------
    (solution, SolveReport)

    Raises
    ------
    ConvergenceError
        If the tolerance is not met within max_iter iterations, if
        Re(p^H A p) <= 0 for a search direction p (A, or its Hermitian
        part, is not positive definite), or if r^T z or p^T A p is zero,
        subnormal or not finite (a breakdown; asked for a tolerance far
        below roundoff, the residual underflows).  The partial solution is
        not returned; the report rides on the exception.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"operator must be square, got shape {A.shape}")
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    dtype = np.result_type(A.dtype, rhs.dtype, float)
    is_complex = np.issubdtype(dtype, np.complexfloating)
    rhs = rhs.astype(dtype, copy=False)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs), SolveReport(0, 0.0, True)

    x, r, res = np.zeros_like(rhs), rhs, b_norm
    if x0 is not None:
        # a warm start worse than none (||rhs - A x0|| > ||rhs||) is dropped
        x_warm = np.array(x0, dtype=dtype)
        r_warm = rhs - A @ x_warm
        res_warm = float(np.linalg.norm(r_warm))
        if res_warm <= b_norm:
            x, r, res = x_warm, r_warm, res_warm
    p = rz = None

    for iterations in range(max_iter + 1):
        if res <= tol * b_norm:
            return x, SolveReport(iterations, res / b_norm, True)
        if iterations == max_iter:
            break
        z = precondition(r)
        rz_next = r @ z
        _check_breakdown("r^T z", rz_next, iterations, res / b_norm)
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        ap = A @ p
        pap = p @ ap
        # a real solve keeps one reduction; a complex one also needs p^H A p
        if (np.vdot(p, ap).real if is_complex else pap) <= 0.0:
            raise ConvergenceError(
                "operator is not positive definite (Re(p^H A p) <= 0 in CG)",
                report=SolveReport(iterations, res / b_norm, False))
        _check_breakdown("p^T A p", pap, iterations, res / b_norm)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r))

    report = SolveReport(max_iter, res / b_norm, False)
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {report.relative_residual:.3e})", report=report)


class BandedSolver:
    """Direct solves of one symmetric sparse matrix through a band factor.

    ``operator`` is A in DIA storage, and its rows are the LAPACK band
    storage of the factor, so u, the bandwidth, is its largest |offset|.  A
    real A gets a banded Cholesky factor, (u + 1) n doubles.  A
    complex-symmetric A gets a banded LU factor with partial pivoting
    (LAPACK zgbtrf), (3u + 1) n complex numbers; its Hermitian part Re(A) is
    Cholesky-factored once as well, only to prove it positive definite.  The
    factorization runs on first use.  ``solver(r)`` is the bare substitution
    A^-1 r, a CG preconditioner; ``solve`` also checks its true residual.
    """

    def __init__(self, A):
        self.operator = sp.dia_matrix(A)
        self.bandwidth = int(np.abs(self.operator.offsets).max(initial=0))
        n, u = self.operator.shape[0], self.bandwidth
        self.is_complex = np.iscomplexobj(self.operator)
        self.nbytes = ((3 * u + 1) * n * 16 if self.is_complex
                       else (u + 1) * n * 8)
        self._factor = None

    def _factorize(self):
        u, n = self.bandwidth, self.operator.shape[0]
        offsets, data = self.operator.offsets, self.operator.data[:, :n]
        # upper Cholesky form ab[u + i - j, j] = A[i, j]: the diagonals j >= i
        up = offsets >= 0
        ab = np.zeros((u + 1, n))
        ab[u - offsets[up], :data.shape[1]] = data[up].real
        try:
            chol = scipy.linalg.cholesky_banded(ab)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(
                "operator is not positive definite (banded Cholesky of its "
                f"Hermitian part failed: {err})") from err
        if not self.is_complex:
            return chol
        # zgbtrf's ab[2u + i - j, j] = A[i, j]; its first u rows are for fill
        ab = np.zeros((3 * u + 1, n), dtype=complex)
        ab[2 * u - offsets, :data.shape[1]] = data
        lu, ipiv, info = scipy.linalg.lapack.zgbtrf(ab, u, u)
        if info != 0:
            raise ConvergenceError(f"banded LU failed (zgbtrf info={info})")
        return lu, ipiv

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs from the factor (made on first use), residual unchecked."""
        if self._factor is None:
            self._factor = self._factorize()
        if self.is_complex:
            lu, ipiv = self._factor
            u = self.bandwidth
            x, info = scipy.linalg.lapack.zgbtrs(lu, u, u, rhs, ipiv)
        else:
            x, info = scipy.linalg.lapack.dpbtrs(self._factor, rhs)
        if info != 0:
            raise ValueError(f"band substitution failed (info={info})")
        return x

    def solve(self, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, SolveReport]:
        """Solve A x = rhs; raise ConvergenceError unless the relative
        residual ||A x - rhs|| / ||rhs|| is at most ``tol``."""
        x = self(rhs)
        b_norm = float(np.linalg.norm(rhs))
        if b_norm == 0.0:
            return np.zeros_like(rhs), SolveReport(0, 0.0, True)
        residual = float(np.linalg.norm(self.operator @ x - rhs)) / b_norm
        report = SolveReport(0, residual, residual <= tol)
        if not report.converged:
            raise ConvergenceError(
                f"banded solve missed tol={tol:g} (relative residual "
                f"{residual:.3e})", report=report)
        return x, report


def prolongation(n_side: int) -> sp.csr_matrix:
    """P1 interpolation from the structured mesh with ceil(n_side / 2) nodes
    per side to the one with n_side nodes per side.

    A fine node at (sx, sy) inside its coarse cell takes the barycentric
    weights of the coarse triangle that contains it: 1 - max(sx, sy) on the
    lower-left corner, min(sx, sy) on the upper-right one and |sx - sy| on
    the lower-right (sx > sy) or upper-left one.  On odd n_side the meshes
    are nested and every weight is 1 or 1/2; on even n_side they are not.
    """
    nc = (n_side + 1) // 2
    t = np.arange(n_side) * (nc - 1) / (n_side - 1)
    cell = np.minimum(np.floor(t).astype(int), nc - 2)
    sy, sx = (t - cell)[:, None], (t - cell)[None, :]
    ll = cell[:, None] * nc + cell[None, :]
    # per fine node in column order: lower-left, lower-right or upper-left,
    # upper-right
    cols = np.stack([ll, np.where(sx > sy, ll + 1, ll + nc), ll + nc + 1], -1)
    vals = np.stack([1.0 - np.maximum(sx, sy), np.abs(sx - sy),
                     np.minimum(sx, sy)], -1)
    keep = vals != 0.0
    indptr = np.append(0, np.cumsum(keep.sum(axis=-1)))
    return sp.csr_matrix((vals[keep], cols[keep], indptr),
                         shape=(n_side ** 2, nc ** 2))


@functools.lru_cache(maxsize=8)
def _transfers(n_side: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``prolongation(n_side)`` P and the restriction P^T as CSR, built once
    per n_side and shared by every ``Multigrid`` (read-only arrays)."""
    P = prolongation(n_side)
    transfers = P, P.T.tocsr()
    for matrix in transfers:
        for a in (matrix.data, matrix.indices, matrix.indptr):
            a.flags.writeable = False
    return transfers


def _galerkin_dia(A: sp.spmatrix) -> sp.dia_matrix:
    """A, which holds no duplicate entries (a sparse product), in DIA
    storage with ascending offsets, as ``A.todia()`` stores it: each entry
    is scattered to its diagonal's row, which a count of the offsets gives,
    where ``todia`` sorts the entries first (1.5 ms instead of 5.6 ms at
    level 0 of n_side 201).  The offsets' order is the order in which a DIA
    product sums a row."""
    A = A.tocoo()
    n_rows, n_cols = A.shape
    k = A.col - A.row + (n_rows - 1)          # offset + n_rows - 1 >= 0
    present = np.bincount(k, minlength=n_rows + n_cols - 1) > 0
    data = np.zeros((np.count_nonzero(present), n_cols), dtype=A.dtype)
    data[(np.cumsum(present) - 1)[k], A.col] = A.data
    return sp.dia_matrix((data, np.flatnonzero(present) - (n_rows - 1)),
                         shape=A.shape)


# Meshes with more nodes per side than this are coarsened; the coarsest
# level is band-factored.  26 gives n_side 201 the hierarchy 201 -> 101 ->
# 51 -> 26 (a 676-node coarsest factor); going on to 13 was no faster.
COARSEST_N_SIDE = 26


class Multigrid:
    """Geometric multigrid V(2,2)-cycle: a real symmetric positive definite
    preconditioner for a matrix A on a structured mesh, built from Re(A).

    Levels coarsen the mesh to ceil(n_side / 2) nodes per side by
    ``prolongation`` (built once per n_side, ``_transfers``) while n_side >
    COARSEST_N_SIDE, with Galerkin coarse operators P^T A P (stored by
    ``_galerkin_dia``) and a banded Cholesky factor on the coarsest (the
    only part on a mesh that does not coarsen).  Galerkin operators stay
    SPD, so the V-cycle is a valid CG preconditioner on non-nested levels
    too (Bramble, Pasciak & Xu, Math. Comp. 56, 1991); there they have
    17-19 diagonals instead of 7.  Each level smooths twice before and
    twice after the coarse correction by damped Jacobi (weight 0.8).

    ``operator`` is A in DIA storage, as given or converted once.  Each
    level keeps one DIA operator: A, or of a complex A a contiguous copy of
    its real part, then each Galerkin product.  The cycle is real: a
    complex r gets ``self(r.real) + 1j * self(r.imag)``.

    ``levels`` holds per level the operator, the Jacobi weights, P and the
    restriction P^T as CSR (the CSC view ``P.T`` takes twice as long per
    product, but the Galerkin product keeps it: CSR P^T sums differently).
    They are stored in ``dtype``: the Galerkin products and the Jacobi
    weights are formed in float64 and then cast once, while ``operator``
    and the coarsest factor stay float64.  The cycle scales r by a power of
    2 and casts it down on entry, and casts its result back to r's dtype on
    exit, so CG around it runs in float64 throughout.  float32 levels halve
    the bytes each memory-bound product and sweep reads (a V-cycle at
    n_side 201 took 1.6 ms instead of 2.4 ms), within one CG iteration per
    pole-system solve; they also move the result at roundoff, which is why
    the eigensolve keeps float64 (see ``spectral.inverse_iteration``).
    """

    def __init__(self, A, n_side: int, dtype=np.float64):
        self.operator = A = sp.dia_matrix(A)
        if np.iscomplexobj(A):
            A = A.real.copy()
        self.levels = []
        while n_side > COARSEST_N_SIDE:
            P, R = _transfers(n_side)
            self.levels.append(tuple(a.astype(dtype, copy=False)
                                     for a in (A, 0.8 / A.diagonal(), P, R)))
            A = _galerkin_dia(P.T @ A.tocsr() @ P)
            n_side = (n_side + 1) // 2
        self.coarsest = BandedSolver(A)
        self.dtype = np.dtype(dtype)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(r):
            return self(r.real) + 1j * self(r.imag)
        if r.dtype == self.dtype:
            return self._cycle(r, 0)
        # the cycle is linear: scaling r by a power of 2 (exactly) keeps a
        # tiny or huge r inside the range of the narrower level dtype
        scale = 2.0 ** np.frexp(np.abs(r).max())[1]
        x = self._cycle((r / scale).astype(self.dtype), 0)
        return np.multiply(x, scale, dtype=r.dtype)

    def _cycle(self, r: np.ndarray, level: int) -> np.ndarray:
        if level == len(self.levels):
            return self.coarsest(r).astype(r.dtype, copy=False)
        A, jacobi, P, R = self.levels[level]
        x = jacobi * r
        # with t = r - A x: the second pre-smoothing sweep, the coarse
        # correction, then two post-smoothing sweeps, all on x in place
        for sweep in range(4):
            t = A @ x
            np.subtract(r, t, out=t)
            if sweep == 1:
                x += P @ self._cycle(R @ t, level + 1)
            else:
                t *= jacobi
                x += t
        return x


def choose_solver(A, mesh: Mesh | None,
                  dtype=np.float64) -> BandedSolver | Multigrid:
    """The solver of A: ``BandedSolver(A)`` when its band factor fits in
    DIRECT_LIMIT_BYTES, else a ``Multigrid`` of that solver's DIA operator
    on ``mesh.n_side`` with levels in ``dtype`` (the band factor is always
    float64).  Both are preconditioners ``solver(r) -> ~A^-1 r``
    and carry ``operator``, A in DIA, the matrix CG multiplies by.  A
    matrix without a mesh has no other path than its band factor, so a
    larger one is refused (ValueError).
    """
    direct = BandedSolver(A)
    if direct.nbytes <= DIRECT_LIMIT_BYTES:
        return direct
    if mesh is None:
        raise ValueError(f"band factor of {direct.nbytes} bytes exceeds "
                         "DIRECT_LIMIT_BYTES and the matrix has no mesh")
    return Multigrid(direct.operator, mesh.n_side, dtype)
