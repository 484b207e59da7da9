"""Symmetric sparse solves, on a structured mesh or its mirror-even half.

``choose_solver`` gives each symmetric matrix A (real and positive
definite, or complex-symmetric, A^T = A, with a positive definite Hermitian
part) one solver object: a ``BandedSolver`` (a direct factor) when its band
factor fits in DIRECT_LIMIT_BYTES, else a real ``Multigrid`` V-cycle of Re(A)
on A's structured mesh.  Every solver is a preconditioner
``solver(r) -> ~A^-1 r`` that carries ``solver.operator``, A in DIA
storage (as assembled, ``_dia_sum``'s sum, or ``sp.dia_matrix``'s
conversion), and a solve is ``cg_solve(solver, b, tol)``.  A
``BandedSolver`` also solves by itself: ``solver.solve(b, tol)`` is one
substitution and a finiteness test, its factor (a band Cholesky for a real
A, a sparse LU for a complex one) certified once by a backward error bound.
``fold`` maps a mesh's nodes onto the half that is even under the node
swap (ix, iy) -> (iy, ix), and an operator A onto F^T A F, half the size;
a ``Multigrid`` of a half operator coarsens it by folded transfers.

CG stops on its recurrence residual and runs in float64, also around
float32 V-cycle levels; a complex A is solved by conjugate orthogonal CG.
Each V-cycle level and each CG solve keeps a workspace; results are fresh.
All paths are deterministic, so runs are bit-reproducible.

One range rule, in this module alone, serves every solve (by its one way
in, ``_solve_in_range``) and every norm (``_norm``): a v whose norm lies
outside _RANGE, [2^-256, 2^256], is taken as 2^e v, with max|2^e v| in
[1/2, 1), and the result is scaled back by 2^-e (``_scaled``).  That is
exact: an in-range v keeps its bits, and ||2^k v|| is 2^k ||v||, any k.
README.md's numerical notes hold the measurements behind these choices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse._sparsetools import dia_matvec

from .mesh import Mesh

# Largest band factor a matrix may keep; a larger one is solved by
# multigrid-preconditioned CG.  On the mirror-even half, factors fit up to
# n_side 160 (16.69 MB; 127 whole), real or complex.
DIRECT_LIMIT_BYTES = 16 * 2 ** 20
# CG's iteration cap: band- and multigrid-preconditioned solves take at
# most about 20 iterations, so the cap only stops a stagnating solve.
CG_MAX_ITER = 1000
# The range rule's norms.  CG's reductions r^T z and p^T A p fall with
# tol^2 ||b||^2 (times the scale of A^-1): from ||b|| = 2^-256 and tol =
# 2^-53 they end near 2^-618, 2^404 above the smallest normal float (2^-1022).
# ||b|| <= 2^256 keeps ||b||^2 and the first r^T z 2^512 below overflow.
_RANGE = _LO, _HI = 2.0 ** -256, 2.0 ** 256


def _in_range(norm: float) -> bool:
    return _LO <= norm <= _HI


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
    """How a solve ended: a returned report was accepted, the report of a
    ConvergenceError was not.  A ``BandedSolver`` measures no residual: its
    ``backward_bound`` certifies the solve instead."""

    iterations: int
    relative_residual: float | None
    backward_bound: float | None = None


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
    if not 2.0 ** -1022 <= abs(value) < math.inf:     # np.finfo(float).tiny
        raise ConvergenceError(
            f"CG breakdown: {name} = {value} underflowed or is not finite",
            report=SolveReport(iterations, residual))


def _norm(v: np.ndarray, M=None, Mv: np.ndarray | None = None) -> float:
    """||v||_2, or sqrt(v^H M v) for a mass matrix ``M`` (from ``Mv`` = M v
    if given), by the range rule: off _RANGE, a nonzero v's norm is 2^-e
    times that of 2^e v (``_scaled``).  np.vdot, not ``@``, keeps ||v||_2 in
    np.linalg.norm's bits, with no overflow warning on a huge v."""
    for scaled in (False, True):
        if M is not None:   # abs: products that overflow can sum to -inf
            norm = math.sqrt(abs(np.vdot(v, M @ v if Mv is None else Mv)))
        elif v.dtype.kind == "c":
            norm = math.sqrt(np.vdot(v.real, v.real) + np.vdot(v.imag, v.imag))
        else:
            norm = math.sqrt(np.vdot(v, v))
        if scaled:
            with np.errstate(over="ignore"):    # inf past the largest float
                return float(np.ldexp(norm, -e))
        if _LO <= norm <= _HI or not v.any():
            return norm
        (v, e), Mv = _scaled(v), None


def _product(A, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ v's bits for a DIA, CSR or CSC A of out's dtype: scipy's kernel
    of the product (private API) into ``out`` on zeros, as A @ v calls it."""
    out.fill(0)
    if A.format == "dia":
        dia_matvec(*A.shape, len(A.offsets), A.data.shape[1], A.offsets,
                   A.data, v, out)
    else:
        getattr(_sparsetools, A.format + "_matvec")(
            *A.shape, A.indptr, A.indices, A.data, v, out)
    return out


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
    A = ``solver.operator``; return (x, SolveReport).

    A real A must be positive definite.  A complex A must be symmetric,
    A^T = A, with a positive definite Hermitian part; it is solved by
    conjugate orthogonal CG, the loop with the unconjugated form r^T z.
    ``solver`` is a ``choose_solver`` solver, or any callable r -> z, an
    SPD approximation of A^-1, that carries ``operator``, the square matrix
    A; a converged solve calls it once per iteration, after the residual
    test.  rhs is solved by the module's range rule.  ``tol`` bounds the
    relative CG recurrence residual; the true residual ||A x - rhs|| /
    ||rhs|| is never computed and can be larger (README.md, numerical
    notes).  A warm start ``x0`` costs one product A x0, and is dropped for
    a zero start when ||rhs - A x0|| > ||rhs||, so a poor guess takes the
    iterations of none.

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
    ap, step = np.empty((2, len(rhs)), rhs.dtype)   # A p; alpha p, alpha A p
    direct = isinstance(A, sp.dia_matrix) and A.dtype == rhs.dtype
    if x0 is not None:
        # a warm start worse than none (||rhs - A x0|| > ||rhs||) is dropped
        x_warm = np.array(x0, dtype=rhs.dtype)
        r_warm = rhs - (_product(A, x_warm, ap) if direct else A @ x_warm)
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
        ap = _product(A, p, ap) if direct else A @ p
        pap = p @ ap
        # a real solve keeps one reduction; a complex one also needs p^H A p
        if (np.vdot(p, ap).real if is_complex else pap) <= 0.0:
            raise ConvergenceError(
                "operator is not positive definite (Re(p^H A p) <= 0 in CG)",
                report=SolveReport(iterations, res / b_norm))
        _check_breakdown("p^T A p", pap, iterations, res / b_norm)
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        res = _norm(r)

    report = SolveReport(CG_MAX_ITER, res / b_norm)
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {CG_MAX_ITER} iterations "
        f"(relative residual {report.relative_residual:.3e})", report=report)


class BandedSolver:
    """Direct solves of one symmetric sparse matrix, certified once.

    ``operator`` is A in DIA storage, and its rows are the LAPACK band
    storage of a banded Cholesky factor, so u, the bandwidth, is its largest
    |offset|.  A real A keeps that factor, (u + 1) n doubles.  A
    complex-symmetric A is factored as well, to prove its Hermitian part
    Re(A) positive definite (an LU's pivots cannot), then freed; A itself
    gets a SuperLU factor without pivoting, which such an A admits
    (Higham, Math. Comp. 67, 1998).  ``nbytes``, (u + 1) n doubles, is the
    budget of either.  The factors are made on first use.  ``solver(r)`` is
    the bare substitution A^-1 r, a CG preconditioner; ``solve`` also
    accepts or refuses it by the factor's ``certificate``.
    """

    def __init__(self, A):
        self.operator = sp.dia_matrix(A)
        self.bandwidth = int(np.abs(self.operator.offsets).max(initial=0))
        self.is_complex = np.iscomplexobj(self.operator)
        self.nbytes = (self.bandwidth + 1) * self.operator.shape[0] * 8

    @functools.cached_property
    def _factor(self):
        return self._factorize()

    def _factorize(self):
        u, n = self.bandwidth, self.operator.shape[0]
        offsets, data = self.operator.offsets, self.operator.data[:, :n]
        # ab[u + i - j, j] = A[i, j], j >= i; Fortran order: factored in place
        up = offsets >= 0
        ab = np.zeros((u + 1, n), order="F")
        ab[u - offsets[up], :data.shape[1]] = data[up].real
        try:
            chol = scipy.linalg.cholesky_banded(ab, overwrite_ab=True)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(
                "operator is not positive definite (banded Cholesky of its "
                f"Hermitian part failed: {err})") from err
        if not self.is_complex:
            return chol
        del ab, chol            # Re(A) is proved definite; only the LU stays
        from scipy.sparse.linalg import splu  # kept off the real paths
        try:
            return splu(
                self.operator.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise ConvergenceError(f"sparse LU failed ({err})") from err

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs from the factor (made on first use), unchecked; a real
        factor takes a complex rhs's real and imaginary parts apart."""
        if self.is_complex:
            return self._factor.solve(rhs)
        if rhs.dtype.kind == "c":
            return self(rhs.real) + 1j * self(rhs.imag)
        x, info = scipy.linalg.lapack.dpbtrs(self._factor, rhs)
        if info != 0:
            raise ValueError(f"band substitution failed (info={info})")
        return x

    def solve(self, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, SolveReport]:
        """Solve A x = rhs by the module's range rule, or raise
        ConvergenceError: if rhs or x is not finite, or if the factor's
        ``certificate`` exceeds ``tol``."""
        return _solve_in_range(self._checked, rhs, tol)

    @functools.cached_property
    def norm_inf(self) -> float:
        """||A||_inf of a symmetric A, on first use: the largest column sum of
        |A| on the DIA rows (data[k, j] = A[j - offsets[k], j]) inside A."""
        n, k = self.operator.shape[0], self.operator.offsets[:, None]
        data = abs(self.operator.data[:, :n])
        j = np.arange(data.shape[1])
        data[(j < k) | (j >= n + k)] = 0.0
        return float(data.sum(axis=0).max(initial=0.0))

    @functools.cached_property
    def certificate(self) -> SolveReport:
        """Every solve's report: no iterations, no residual, and
        ``backward_bound`` eta >= ||dA||_inf / ||A||_inf for every solve
        (A + dA) x = b by the factor (Higham, 2nd ed.; gamma_k = k u / (1 -
        k u), u = eps / 2).  A real A's Cholesky factor R gives |dA| <=
        gamma_(3n+1) |R^T| |R| (Thm 10.4), so eta = gamma_(3n+1) max(|R|^T
        (|R| 1)) / ||A||_inf.  A complex A's P A Q = L U gives |dA| <=
        gamma_(3n) P^T |L| |U| Q^T (Thm 9.4) in real arithmetic.  In complex
        arithmetic (Lemma 3.5, §3.6) a product errs by at most sqrt(2)
        gamma_2 <= gamma_3 and a quotient by sqrt(2) gamma_4 <= gamma_6, so
        each of Thm 9.4's three gamma_n (the factor, two substitutions)
        becomes gamma_(n+8): eta = gamma_(3n+24) max(|L| (|U| 1)) /
        ||A||_inf."""
        n, u = self.operator.shape[0], self.bandwidth
        if self.is_complex:
            lu, k = self._factor, (3 * n + 24) * np.finfo(float).eps / 2
            bound = abs(lu.U) @ np.ones(n)      # one factor's copy at a time
            bound = abs(lu.L) @ bound
        else:
            abs_r = functools.partial(scipy.linalg.blas.dtbmv, u,
                                      np.abs(self._factor))  # x -> |R| x
            k = (3 * n + 1) * np.finfo(float).eps / 2
            bound = abs_r(abs_r(np.ones(n)), trans=1)
        dA_norm = k / (1.0 - k) * float(bound.max())
        return SolveReport(0, None, dA_norm / self.norm_inf)

    def _checked(self, rhs: np.ndarray, b_norm: float, tol: float):
        x, eta = self(rhs), self.certificate.backward_bound
        if eta <= tol and np.isfinite(x).all():
            return x, self.certificate
        kind = "sparse LU" if self.is_complex else "banded Cholesky"
        raise ConvergenceError(
            "banded solve overflowed" if eta <= tol else
            f"{kind}'s backward error bound {eta:.3e} exceeds tol={tol:g}",
            report=self.certificate)


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
def _transfers(n_side: int, folded: bool):
    """``prolongation(n_side)`` P (on a half, P_h), P^T as CSR and P as CSC,
    built once per grid and shared by every ``Multigrid`` (read-only)."""
    P = prolongation(n_side)
    if folded:
        coarse = fold((n_side + 1) // 2)
        P = sp.csr_matrix((P.data, coarse.slot[P.indices], P.indptr),
                          (P.shape[0], len(coarse.rep)))[fold(n_side).rep]
        P.sum_duplicates()
    transfers = P, P.T.tocsr(), P.tocsc()
    for matrix in transfers:
        for a in (matrix.data, matrix.indices, matrix.indptr):
            a.flags.writeable = False
    return transfers


def _dia_sum(rows, cols, vals, shape) -> sp.dia_matrix:
    """The real matrix of ``shape`` whose entry (i, j) sums the ``vals`` at
    rows == i, cols == j (arrays that broadcast together), stored by
    diagonals with ascending offsets, the order in which a DIA product sums
    a row.  A count of the offsets finds the diagonals, ``np.bincount``
    adds duplicates in the broadcast's C order, and a diagonal whose
    entries are all zero is not stored (``_dia``).  It stores each Galerkin
    level and the assembly's Robin edges' sum."""
    n_rows, n_cols = shape
    k = cols - rows + (n_rows - 1)            # offset + n_rows - 1 >= 0
    present = np.bincount(k.ravel(), minlength=n_rows + n_cols - 1) > 0
    index = ((np.cumsum(present) - 1)[k] * n_cols + cols).ravel()
    data = np.bincount(index, np.broadcast_to(vals, k.shape).ravel(),
                       np.count_nonzero(present) * n_cols).reshape(-1, n_cols)
    return _dia(data, np.flatnonzero(present) - (n_rows - 1), shape)


# An operator is mirror-symmetric when it matches its copy under the node
# swap to within MIRROR_TOL max|A| (assembly's roundoff reaches 1.56 eps).
# _STEPS: the P1 stencil's steps (dx, dy) from row to column node, by DIA
# offset dy n_side + dx; _TWIN: the place of each one's mirror (dy, dx).
MIRROR_TOL = 16 * np.finfo(float).eps
_STEPS = np.array([(-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1)])
_TWIN = [0, 2, 1, 3, 5, 4, 6]


@dataclass(frozen=True, eq=False)
class Fold:
    """The mirror-even half of the n_side x n_side node grid: the triangle
    ix >= iy, whose slot k holds grid row k, then grid row n_side - 1 - k,
    both by increasing ix.  This rectangular full packed layout (Gustavson
    et al., ACM TOMS 37, 2010), its second row not rotated, keeps a folded
    P1 operator on the grid's 7 diagonals plus at most 4 thin seam ones.
    ``rep`` is each slot's node, ``slot`` each node's slot (shared with its
    mirror): F, the 0/1 map from node to slot, takes an even y to y[rep] and
    back as y_h[slot].  Stencil entry (k, iy, ix) lies on the half's
    ``offsets[diagonal[k, iy, ix]]``, past them if it joins no neighbours.
    """

    n_side: int
    rep: np.ndarray
    slot: np.ndarray
    diagonal: np.ndarray
    offsets: np.ndarray

    def halves(self, *matrices) -> list[sp.dia_matrix] | None:
        """F^T A F of each real A, summed in ``_dia_sum``'s order; None
        unless every A lies on the stencil's diagonals and passes the mirror
        test, which an entry joining no neighbours (left out) passes only
        within MIRROR_TOL max|A| of 0."""
        n, n_half = self.n_side, len(self.rep)
        stencil = _STEPS @ (1, n)
        target = (np.multiply(self.diagonal, n_half, dtype=np.intp)
                  + self.slot.reshape(n, n)).ravel()
        halves = []
        for A in map(sp.dia_matrix, matrices):
            k = np.searchsorted(stencil, A.offsets)
            if not np.array_equal(stencil.take(k, mode="clip"), A.offsets):
                return None
            data = np.zeros((len(stencil), n * n))
            data[k, :A.data.shape[1]] = A.data[:, :n * n]
            # entry (k, iy, ix)'s mirror image is entry (_TWIN[k], ix, iy)
            grid = data.reshape(len(stencil), n, n)
            if not (np.abs(grid - grid[_TWIN].swapaxes(1, 2)).max()
                    <= MIRROR_TOL * np.abs(data).max()):
                return None
            data = np.bincount(target, data.ravel(),
                               (len(self.offsets) + 1) * n_half)
            halves.append(_dia(data[:-n_half].reshape(-1, n_half),
                               self.offsets, (n_half, n_half)))
        return halves


@functools.lru_cache(maxsize=8)
def fold(n_side: int) -> Fold:
    """The ``Fold`` of the n_side x n_side grid, built once per n_side."""
    n, grid = n_side, np.arange(n_side, dtype=np.int32)
    rep = np.concatenate([iy * n + grid[iy:] for k in range((n + 1) // 2)
                          for iy in dict.fromkeys((k, n - 1 - k))])
    slot = np.empty(n * n, np.int32)
    slot[rep] = slot[rep % n * n + rep // n] = np.arange(len(rep))
    # entry (k, iy, ix) joins grid neighbours if its row node (ix - dx,
    # iy - dy) is inside the grid; its half offset is the slots' difference
    ix = grid - _STEPS[:, 0, None, None]
    iy = grid[:, None] - _STEPS[:, 1, None, None]
    inside = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
    offset = slot.reshape(n, n) - slot[np.where(inside, iy * n + ix, 0)]
    offsets = np.unique(offset[inside])
    diagonal = np.where(inside, np.searchsorted(offsets, offset),
                        len(offsets)).astype(np.int8)
    for a in (rep, slot, diagonal, offsets):        # shared by every caller
        a.flags.writeable = False
    return Fold(n_side, rep, slot, diagonal, offsets)


def _dia(data, offsets, shape) -> sp.dia_matrix:
    """DIA matrix of rows ``data`` at ``offsets``, all-zero rows dropped."""
    keep = data.any(axis=1)
    return sp.dia_matrix((data if keep.all() else data[keep], offsets[keep]),
                         shape=shape)


# Meshes with more nodes per side than this are coarsened; the coarsest
# level is band-factored.  26 gives n_side 201 the hierarchy 201 -> 101 ->
# 51 -> 26 (a 676-node coarsest factor); going on to 13 was no faster.
COARSEST_N_SIDE = 26


class Multigrid:
    """Geometric multigrid V(2,2)-cycle: a real symmetric positive definite
    preconditioner for a matrix A on a structured mesh, or on its
    mirror-even half (A with n_side (n_side + 1) / 2 rows), from Re(A).

    While n_side > COARSEST_N_SIDE, levels coarsen to ceil(n_side / 2)
    nodes per side by ``prolongation`` (``_transfers``), on a half by P_h,
    the rows ``rep`` of P F_c: P commutes with the mirror, so P F_c = F P_h
    and P_h^T (F^T A F) P_h = F_c^T (P^T A P) F_c.  Galerkin coarse
    operators (stored by ``_dia_sum``) stay SPD, so the cycle preconditions
    CG on non-nested levels too (Bramble, Pasciak & Xu, Math. Comp. 56,
    1991); the coarsest is band-factored.  Each level smooths twice before
    and twice after the coarse correction by damped Jacobi (weight 0.8).

    ``operator`` is A in DIA storage.  ``levels`` holds per level the DIA
    operator (A, or a contiguous copy of a complex A's real part, then each
    Galerkin product), the Jacobi weights, P and the restriction P^T as CSR
    (the Galerkin product keeps the CSC view ``P.T``: CSR P^T sums
    differently), cast once to ``dtype`` after the float64 products;
    ``operator`` and the coarsest factor stay float64.  ``work`` holds each
    level's x, t = r - A x, P x_c and R t, which scipy's product kernels
    fill; a result is a fresh array.  The cycle is real: a complex r gets
    ``self(r.real) + 1j * self(r.imag)``.  Narrower levels take every r by
    the range rule's scale, 2^e r with max|2^e r| in [1/2, 1), cast into
    ``entry``, and return 2^-e times their result in r's dtype, so CG around
    them runs in float64.  ``choose_solver`` builds float32 levels, which
    halve the bytes each memory-bound sweep reads; float64 levels give the
    exact reference cycle.
    """

    def __init__(self, A, n_side: int, dtype=np.float64):
        self.operator = A = sp.dia_matrix(A)
        if np.iscomplexobj(A):
            A = A.real.copy()
        self.dtype = np.dtype(dtype)
        self.levels, self.work, folded = [], [], A.shape[0] != n_side ** 2
        self.entry = np.empty(A.shape[0], self.dtype)
        while n_side > COARSEST_N_SIDE:
            P, R, P_csc = _transfers(n_side, folded)
            self.levels.append(tuple(a.astype(dtype, copy=False)
                                     for a in (A, 0.8 / A.diagonal(), P, R)))
            n, nc = P.shape             # the workspace: x, t, P x_c and R t
            self.work.append([np.empty(k, dtype) for k in (n, n, n, nc)])
            # CSC operands: the conversions the product made itself
            G = (P.T @ A.tocsc() @ P_csc).tocoo()
            A = _dia_sum(G.row, G.col, G.data, G.shape)
            n_side = (n_side + 1) // 2
        self.coarsest = BandedSolver(A)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if r.dtype.kind == "c":
            return self(r.real) + 1j * self(r.imag)
        if r.dtype == self.dtype:
            return self._cycle(r, 0).copy()     # x is level 0's workspace
        # the cycle is linear: scaling r by a power of 2 (exactly) keeps a
        # tiny or huge r inside the range of the narrower level dtype; the
        # way back multiplies, which measured faster than np.ldexp
        e = -int(np.frexp(max(r.max(), -r.min()))[1])   # -exponent of max|r|
        if not -1022 <= e <= 1023:              # 2^e is not a normal float
            self.entry[...] = _scaled(r, e)[0]
            return _scaled(self._cycle(self.entry, 0).astype(r.dtype), -e)[0]
        np.multiply(r, 2.0 ** e, out=self.entry)
        return np.multiply(self._cycle(self.entry, 0), 2.0 ** -e,
                           dtype=r.dtype)

    def _cycle(self, r: np.ndarray, level: int) -> np.ndarray:
        if level == len(self.levels):
            return self.coarsest(r).astype(r.dtype, copy=False)
        A, jacobi, P, R = self.levels[level]
        x, t, x_p, r_c = self.work[level]
        np.multiply(jacobi, r, out=x)
        # with t = r - A x: the second pre-smoothing sweep, the coarse
        # correction, then two post-smoothing sweeps, all on x in place
        for sweep in range(4):
            np.subtract(r, _product(A, x, t), out=t)
            if sweep == 1:
                x += _product(P, self._cycle(_product(R, t, r_c), level + 1),
                              x_p)
            else:
                t *= jacobi
                x += t
        return x


def choose_solver(A, mesh: Mesh | None) -> BandedSolver | Multigrid:
    """The solver of A: ``BandedSolver(A)`` when its band factor fits in
    DIRECT_LIMIT_BYTES, else a ``Multigrid`` of that solver's DIA operator
    on ``mesh.n_side`` with float32 levels (the direct factors stay
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
