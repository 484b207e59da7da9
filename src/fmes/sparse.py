"""Symmetric sparse solves.

``choose_solver`` gives each symmetric matrix A (real and positive
definite, or complex-symmetric, A^T = A, with a positive definite Hermitian
part) one solver object: a ``BandedSolver`` (one LAPACK band factor) when
it fits in DIRECT_LIMIT_BYTES, else a real ``Multigrid`` V-cycle of Re(A)
on A's structured mesh.  Every solver is a preconditioner
``solver(r) -> ~A^-1 r`` that carries ``solver.operator``, A in DIA
storage (``sp.dia_matrix`` shares an assembled matrix's arrays), and a
solve is ``cg_solve(solver, b, tol)``.  A ``BandedSolver`` also solves by
itself: ``solver.solve(b, tol)`` is one substitution with its true
residual checked, relative to ||b|| or, failing that, as a normwise
backward error.

CG stops on its recurrence residual and runs in float64, also around the
float32 levels of every ``Multigrid`` that ``choose_solver`` builds; a
complex A is solved by conjugate orthogonal CG.  All paths are
deterministic, so runs are bit-reproducible.

One range rule serves every solve and mass norm: a v whose norm lies
outside _RANGE, [2^-256, 2^256], is taken as 2^e v, with max|2^e v| in
[1/2, 1), and the result is scaled back by 2^-e (``_scaled``).  That is
exact, so an in-range input keeps its bits.
README.md's numerical notes hold the measurements behind these choices.
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
# CG's iteration cap: band- and multigrid-preconditioned solves take at
# most about 20 iterations, so the cap only stops a stagnating solve.
CG_MAX_ITER = 1000
# The range rule's norms.  CG's reductions r^T z and p^T A p fall with
# tol^2 ||b||^2 (times the scale of A^-1), the band check's ||A x - b||^2
# with eps^2 ||b||^2: from ||b|| = 2^-256 and tol = 2^-53 they end near
# 2^-618, 2^404 above the smallest normal float (2^-1022).  ||b|| <= 2^256
# keeps ||b||^2 and the first r^T z 2^512 below overflow (2^1024).
_RANGE = (2.0 ** -256, 2.0 ** 256)


def _in_range(norm: float) -> bool:
    return _RANGE[0] <= norm <= _RANGE[1]


def _scaled(v, e: int | None = None):
    """(2^e v, e), exact for a real or a complex v (np.ldexp takes no
    complex input); e defaults to minus the exponent of max|v|, which
    brings max|2^e v| into [1/2, 1)."""
    if e is None:
        e = -int(np.frexp(np.abs(v).max())[1])
    if np.iscomplexobj(v):
        return np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e), e
    return np.ldexp(v, e), e


@dataclass(frozen=True)
class SolveReport:
    """How a solve ended: a returned report was accepted (its relative
    residual met the tolerance, or for ``BandedSolver.solve`` its normwise
    backward error did), the report of a ConvergenceError was not."""

    iterations: int
    relative_residual: float


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
            report=SolveReport(iterations, residual))


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v)'s bits, without its overflow warning on a huge v."""
    if np.iscomplexobj(v):
        return math.sqrt(np.vdot(v.real, v.real) + np.vdot(v.imag, v.imag))
    return math.sqrt(np.vdot(v, v))


def _solve_in_range(solve, b: np.ndarray, tol: float, *x0):
    """``solve(b, ||b||, tol, *x0) -> (x, SolveReport)``, both solvers' one
    way in: b = 0 gives x = 0, a non-finite b raises ConvergenceError, and
    a b outside _RANGE is solved as 2^e b (a start x0 as 2^e x0) with 2^-e
    x returned, e from ``_scaled``."""
    b_norm = _norm(b)
    if _in_range(b_norm):
        return solve(b, b_norm, tol, *x0)
    if not np.isfinite(b).all():
        raise ConvergenceError("right-hand side is not finite")
    if not b.any():
        return np.zeros_like(b), SolveReport(0, 0.0)
    b, e = _scaled(b)
    x, report = solve(b, _norm(b), tol,
                      *(None if v is None else _scaled(v, e)[0] for v in x0))
    return _scaled(x, -e)[0], report


def cg_solve(solver, rhs: np.ndarray, tol: float, *,
             x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs by CG preconditioned with ``solver``, for
    A = ``solver.operator``.

    A real A must be positive definite.  A complex A must be symmetric
    (A^T = A) with a positive definite Hermitian part; it is solved by
    conjugate orthogonal CG, the same loop with the unconjugated bilinear
    form r^T z.

    Parameters
    ----------
    solver : a ``choose_solver`` solver, or any callable r -> z, an SPD
        approximation of A^-1, that carries ``operator``, the square matrix
        A.  Each iteration tests the residual before preconditioning it, so
        a converged solve calls ``solver`` once per iteration.
    rhs : right-hand side vector; one whose norm lies outside _RANGE,
        [2^-256, 2^256], is solved scaled by a power of 2 into it (the
        module's range rule), exactly
    tol : relative tolerance on the CG recurrence residual; the true
        residual ||A x - rhs|| / ||rhs|| is never computed and can be
        larger (README.md, numerical notes)
    x0 : optional warm start; it costs one product A x0, and is dropped
        for a zero start when ||rhs - A x0|| > ||rhs||, so a poor guess
        takes the iterations of none

    Returns
    -------
    (solution, SolveReport)

    Raises
    ------
    ConvergenceError
        If rhs is not finite, if the tolerance is not met within CG_MAX_ITER
        iterations, if Re(p^H A p) <= 0 for a search direction p (A, or its
        Hermitian part, is not positive definite), or if r^T z or p^T A p is
        zero, subnormal or not finite (a breakdown; asked for a tolerance far
        below roundoff, the residual underflows).  The partial solution is not
        returned; the report rides on the exception.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    A = solver.operator
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"operator must be square, got shape {A.shape}")
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    rhs = rhs.astype(np.result_type(A.dtype, rhs.dtype, float), copy=False)
    return _solve_in_range(functools.partial(_cg, solver), rhs, tol, x0)


def _cg(solver, rhs: np.ndarray, b_norm: float, tol: float, x0):
    """``cg_solve``'s iteration on an in-range rhs of norm ``b_norm``."""
    A = solver.operator
    is_complex = np.iscomplexobj(rhs)
    x, r, res = np.zeros_like(rhs), rhs.copy(), b_norm   # updated in place
    if x0 is not None:
        # a warm start worse than none (||rhs - A x0|| > ||rhs||) is dropped
        x_warm = np.array(x0, dtype=rhs.dtype)
        r_warm = rhs - A @ x_warm
        res_warm = _norm(r_warm)
        if res_warm <= b_norm:
            x, r, res = x_warm, r_warm, res_warm
    p = rz = None

    for iterations in range(CG_MAX_ITER + 1):
        if res <= tol * b_norm:
            return x, SolveReport(iterations, res / b_norm)
        if iterations == CG_MAX_ITER:
            break
        z = solver(r)
        rz_next = r @ z
        _check_breakdown("r^T z", rz_next, iterations, res / b_norm)
        if p is None:
            p = z.copy()                # the solver may return r itself
        else:   # beta p, not p beta: numpy's complex products differ in bits
            np.multiply(rz_next / rz, p, out=p)
            p += z
        rz = rz_next
        ap = A @ p
        pap = p @ ap
        # a real solve keeps one reduction; a complex one also needs p^H A p
        if (np.vdot(p, ap).real if is_complex else pap) <= 0.0:
            raise ConvergenceError(
                "operator is not positive definite (Re(p^H A p) <= 0 in CG)",
                report=SolveReport(iterations, res / b_norm))
        _check_breakdown("p^T A p", pap, iterations, res / b_norm)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = _norm(r)

    report = SolveReport(CG_MAX_ITER, res / b_norm)
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {CG_MAX_ITER} iterations "
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
        """A^-1 rhs from the factor (made on first use), residual unchecked;
        a real factor takes a complex rhs's real and imaginary parts apart."""
        if not self.is_complex and rhs.dtype.kind == "c":
            return self(rhs.real) + 1j * self(rhs.imag)
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
        """Solve A x = rhs (an rhs whose norm lies outside _RANGE, [2^-256,
        2^256], exactly scaled into it by a power of 2, the module's range
        rule), accepted when ||A x - rhs|| <= tol ||rhs|| or else when the
        normwise backward error ||A x - rhs|| / (||A||_inf ||x|| + ||rhs||)
        is at most ``tol`` (||A||_inf bounds ||A||_2 for a symmetric A;
        Higham, 2nd ed., §7.1); raise ConvergenceError if not, or if rhs is
        not finite."""
        return _solve_in_range(self._checked, rhs, tol)

    @functools.cached_property
    def norm_inf(self) -> float:
        """||A||_inf, the largest absolute row sum, taken on first use."""
        return float(abs(self.operator).sum(axis=1).max())

    def _checked(self, rhs: np.ndarray, b_norm: float, tol: float):
        x = self(rhs)
        r_norm = _norm(self.operator @ x - rhs)
        report = SolveReport(0, r_norm / b_norm)
        if report.relative_residual <= tol:
            return x, report
        # only a solve the fast test refuses pays for ||x|| and ||A||
        backward = r_norm / (self.norm_inf * _norm(x) + b_norm)
        if not backward <= tol:
            raise ConvergenceError(
                f"banded solve missed tol={tol:g} (normwise backward error "
                f"{backward:.3e}, relative residual "
                f"{report.relative_residual:.3e})", report=report)
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
    and the coarsest factor stay float64.  Narrower levels take every r by
    the range rule's scale, untested (float32's range is narrower than
    _RANGE): the cycle casts 2^e r down, max|2^e r| in [1/2, 1), and
    returns 2^-e times its result in r's dtype, so CG around it runs in
    float64 throughout.  float32 levels halve the bytes each memory-bound
    product and sweep reads (a V-cycle at n_side 201 took 1.6 ms instead
    of 2.4 ms), within one CG iteration per pole-system solve, and are
    what ``choose_solver`` builds; float64 levels give the exact reference
    cycle.
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
        # tiny or huge r inside the range of the narrower level dtype; the
        # way back multiplies, which measured faster than np.ldexp
        scaled, e = _scaled(r)
        x = self._cycle(scaled.astype(self.dtype), 0)
        return np.multiply(x, 2.0 ** -e, dtype=r.dtype)

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


def choose_solver(A, mesh: Mesh | None) -> BandedSolver | Multigrid:
    """The solver of A: ``BandedSolver(A)`` when its band factor fits in
    DIRECT_LIMIT_BYTES, else a ``Multigrid`` of that solver's DIA operator
    on ``mesh.n_side`` with float32 levels (the band factors stay
    float64).  Both are preconditioners ``solver(r) -> ~A^-1 r``
    that carry ``operator``, A in DIA: ``cg_solve(solver, b, tol)``.  A
    matrix without a mesh has no other path than its band factor, so a
    larger one is refused (ValueError).
    """
    direct = BandedSolver(A)
    if direct.nbytes <= DIRECT_LIMIT_BYTES:
        return direct
    if mesh is None:
        raise ValueError(f"band factor of {direct.nbytes} bytes exceeds "
                         "DIRECT_LIMIT_BYTES and the matrix has no mesh")
    return Multigrid(direct.operator, mesh.n_side, np.float32)
