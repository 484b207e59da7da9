"""Fundamental eigenpair by inverse iteration, plus a dense modal oracle.

The inverse iteration solves K_bar phi_new = M phi with mass-weighted inner
products; the estimate after each solve is (phi, phi)_M / (phi_new, phi)_M,
and a Rayleigh-Ritz step on the last two iterates gives the pair, where its
residual stops falling.  K and M are invariant under the node swap (ix, iy)
-> (iy, ix), and the all-ones start and the fundamental mode are even, so
the iteration runs on the mirror-even half (``assembly.half_system``).  The
dense path computes the full generalized eigendecomposition of (K, M), the
oracle of the tests and the engine of the modal steppers, on the swap's
even and odd subspaces apart: two problems of half the size, kept apart so
that a modal product reads half the data of an n x n matrix.

The blocks are independent, so ``_blockwise`` runs them at once, one per
core, while scipy's BLAS pool is single-threaded: each block's LAPACK call
in ``modal_decompose`` (``_eigh``, eigh's bits without the GIL), and its
products in ``ModalBasis.coordinates`` and ``synthesize``.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.cython_lapack
import scipy.sparse as sp

from .assembly import FemSystem, half_system, m_norm
from .sparse import ConvergenceError, _mass_norm, cg_solve, choose_solver, fold

# Largest system (in nodes) modal_decompose accepts.
DENSE_LIMIT = 2500
# Relative residual of inverse-iteration sweep k's solve: LOOSE_TOL for
# k <= 2, then min(LOOSE_TOL, max(INNER_TOL, TOL_FACTOR |dlam| / lam)) with
# dlam / lam the change between the two estimates before it, which falls
# like (lambda_1 / lambda_2)^(2k) (Golub and Ye, BIT 40, 2000)
INNER_TOL = 1e-13
LOOSE_TOL = 1e-6
TOL_FACTOR = 1e-2
# Sweeps every eigensolve takes at least: the paper's table has ten, and so
# ``fmes run`` finds the eigenpair that ``fmes eigens`` tabulates
MIN_SWEEPS = 10
# Sweeps after which an eigensolve whose Ritz residual still falls fails
MAX_SWEEPS = 50


@dataclass(frozen=True)
class EigenPair:
    """Fundamental eigenpair of the reaction-free operator.

    lambda1_bar is the eigenvalue of the diffusion + boundary operator;
    lambda1 = lambda1_bar + c includes the reaction shift.  phi1 is
    mass-normalized with positive sign: the Ritz pair of the last sweep.
    residual is ||K_bar phi1 - lambda1_bar M phi1||_2.  history holds the
    inverse-iteration estimate of every sweep, before any Ritz step.
    """

    lambda1_bar: float
    lambda1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    history: list[float] = field(repr=False)


@dataclass(frozen=True)
class ModalBasis:
    """Full generalized eigendecomposition of (K, M), by mirror block.

    ``blocks`` holds one ``(Q, lam, W)`` per ``modal_decompose`` basis Q:
    lam ascends and W's columns are the M-orthonormal eigenvectors of
    ``(Q^T K Q, Q^T M Q)``, so the eigenvectors of (K, M) are the columns of
    each ``Q W``.  eigenvalues is the ascending merge of every lam.  The
    mass matrix rides along.  ``coordinates`` and ``synthesize`` map a
    vector to its modal coordinates and back; a modal stepper follows one
    trajectory in coordinates, so a carried step only synthesizes.
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[sp.csc_matrix, np.ndarray, np.ndarray], ...]
    mass: sp.dia_matrix = field(repr=False)

    @property
    def eigenvectors(self) -> np.ndarray:
        """The n x n eigenvectors in eigenvalue order, built on each call."""
        order = np.argsort(np.concatenate([lam for _, lam, _ in self.blocks]),
                           kind="stable")
        column = np.argsort(order)              # sorted position of each value
        evecs = np.empty((len(order), len(order)), order="F")  # eigh's layout
        start = 0
        for Q, lam, W in self.blocks:
            columns = column[start:start + len(lam)]
            for j in range(0, len(lam), 32):    # Q @ W whole: a peak temporary
                evecs[:, columns[j:j + 32]] = Q @ W[:, j:j + 32]
            start += len(lam)
        return evecs

    def coordinates(self, My: np.ndarray) -> list[np.ndarray]:
        """The modal coordinates W_b^T (Q_b^T M y) of y, block by block."""
        return _blockwise(lambda Q, _, W: W.T @ (Q.T @ My), *zip(*self.blocks))

    def synthesize(self, coords: list[np.ndarray]) -> np.ndarray:
        """sum_b Q_b (W_b c_b), the vector with modal coordinates ``coords``."""
        return sum(_blockwise(lambda Q, _, W, c: Q @ (W @ c),
                              *zip(*self.blocks), coords))


def inverse_iteration(sys: FemSystem, tol: None = None,
                      max_iter: None = None) -> EigenPair:
    """Smallest eigenpair of (K_bar, M) by inverse iteration.

    Starts from the all-ones vector (which overlaps strongly with the
    sign-definite fundamental mode), solves K_bar phi_new = M phi with CG,
    each sweep only as well as it needs (INNER_TOL), preconditioned by
    K_bar's ``sparse.choose_solver`` solver: its band factor where it fits
    (1-2 iterations per solve), else a multigrid V-cycle.  Each sweep k
    from MIN_SWEEPS - 1 on takes the smaller Ritz pair of K_bar on
    span{phi_k, phi_k - phi_(k-1)} (Parlett, *The Symmetric Eigenvalue
    Problem*, ch. 11); the first k >= MIN_SWEEPS whose Ritz residual is at
    least half of sweep k - 1's is at the roundoff floor, and its pair is
    returned.  There is no tolerance: ``tol`` and ``max_iter`` must be None.
    A half is iterated as it is, and a system with a ``half_system`` on
    that half; the pair is expanded to the whole mesh (phi1 = u[slot]) and
    its residual measured on the whole system.

    Raises
    ------
    ValueError
        If both Robin coefficients are 0: that pure Neumann K_bar is
        singular, and inverse iteration needs it positive definite.
    ConvergenceError
        If an inner solve fails, or the Ritz residual still falls after
        MAX_SWEEPS sweeps; the partial history rides on the exception.
    """
    if tol is not None or max_iter is not None:
        raise TypeError("inverse_iteration takes no tol or max_iter")
    if sys.coeffs.mu_right_top == 0.0 == sys.coeffs.mu_left_bottom:
        raise ValueError("inverse iteration needs a positive definite K_bar, "
                         "and with mu_right_top = mu_left_bottom = 0 (pure "
                         "Neumann) it is singular")
    half = half_system(sys) or sys
    n = half.n_nodes
    phi = np.ones(n) / m_norm(half, np.ones(n))
    rhs = half.M @ phi
    history: list[float] = []
    warm: np.ndarray | None = None
    solver = choose_solver(half.K_bar, half.mesh)

    for it in range(1, MAX_SWEEPS + 1):
        inner = LOOSE_TOL if it <= 2 else min(LOOSE_TOL, max(
            INNER_TOL, TOL_FACTOR * abs(history[-1] - history[-2])
            / abs(history[-1])))
        try:
            psi, _ = cg_solve(solver, rhs, inner, x0=warm)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"inner solve failed at iteration {it} "
                "(is the operator positive definite?)",
                report=err.report, history=history) from err
        lam = float(phi @ rhs) / float(psi @ rhs)
        history.append(lam)
        previous, phi = phi, psi / m_norm(half, psi)
        warm = phi / lam
        rhs = half.M @ phi
        if it >= MIN_SWEEPS - 1:
            residual, theta, u = _ritz(half, phi, previous, rhs)
            if it >= MIN_SWEEPS and residual >= last / 2:
                break
            last = residual
    else:
        raise ConvergenceError(
            "inverse iteration's Ritz residual was still falling after "
            f"{MAX_SWEEPS} sweeps", history=history)

    if np.max(u) <= 0.0:
        u = -u
    if half.whole is not None:
        u, sys = u[fold(sys.mesh.n_side).slot], half.whole
    residual = float(np.linalg.norm(sys.K_bar @ u - theta * (sys.M @ u)))
    return EigenPair(lambda1_bar=theta, lambda1=theta + sys.coeffs.c, phi1=u,
                     residual=residual, iterations=len(history),
                     history=history)


def _ritz(sys: FemSystem, phi: np.ndarray, previous: np.ndarray,
          Mphi: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(||K_bar u - theta M u||_2, theta, u), (theta, u) the smaller Ritz
    pair of (K_bar, M) on span{phi, phi - previous}, phi M-unit."""
    # basis rows V = [phi, d]: d is phi - previous, M-orthogonalized against
    # phi (two passes) and M-normalized, so V M V^T = I; V = [phi] if d = 0
    V, MV = [phi], [Mphi]
    d = phi - previous
    if d.any():
        for _ in range(2):
            d -= (Mphi @ d) * phi
        Md = sys.M @ d
        scale = _mass_norm(sys.M, d, Md)
        V.append(d / scale)
        MV.append(Md / scale)
    V, MV = np.array(V), np.array(MV)
    KV = np.array([sys.K_bar @ v for v in V])
    thetas, vectors = np.linalg.eigh(V @ KV.T)
    theta, y = float(thetas[0]), vectors[:, 0]
    return float(np.linalg.norm(y @ KV - theta * (y @ MV))), theta, y @ V


def modal_decompose(sys: FemSystem) -> ModalBasis:
    """Dense generalized eigendecomposition of (K, M) for small systems.

    One ``eigh(Q^T K Q, Q^T M Q)`` per basis Q, kept by block; only the
    eigenvalues are merged, by a stable sort.  A system with a
    ``half_system`` has an even basis (e_d per diagonal node, then (e_a +
    e_b)/sqrt 2 per mirrored pair, a < b, by node order) and an odd one
    ((e_a - e_b)/sqrt 2); any other, a half too, has the identity.
    Refuses systems on more than DENSE_LIMIT nodes (a half counts its whole
    system's): the dense path is an oracle and the engine of the modal
    steppers, not a production eigensolver.
    """
    n = (sys.whole or sys).n_nodes
    if n > DENSE_LIMIT:
        raise ValueError(f"system has {n} nodes, above the dense limit "
                         f"{DENSE_LIMIT}")
    bases = _bases(sys)
    # lazily: in order, each block's arrays are made just before its solve
    solves = (_eigh(Q.T @ sys.K @ Q, Q.T @ sys.M @ Q) for Q in bases)
    blocks = tuple(_blockwise(lambda Q, solve: (Q, *solve()), bases, solves))
    evals = np.concatenate([lam for _, lam, _ in blocks])
    return ModalBasis(eigenvalues=evals[np.argsort(evals, kind="stable")],
                      blocks=blocks, mass=sys.M)


def _blockwise(work, *args) -> list:
    """``list(map(work, *args))``, one block per call.  While ``_overlap()``
    holds, the calling thread takes every block's arguments, then works the
    first block (callers put the largest first, so it finishes last) while
    each other block runs on a thread of its own."""
    if not _overlap():
        return list(map(work, *args))
    first, *rest = zip(*args)
    with ThreadPoolExecutor(max(len(rest), 1)) as pool:
        futures = [pool.submit(work, *block) for block in rest]
        return [work(*first)] + [future.result() for future in futures]


def _overlap() -> bool:
    """Whether the OpenBLAS that scipy's wheels bundle runs one thread (any
    other BLAS counts as multi-threaded) and the process may use two cores
    (``os.sched_getaffinity``, which only Linux has)."""
    threads = getattr(ctypes.CDLL(scipy.linalg.cython_lapack.__file__),
                      "scipy_openblas_get_num_threads", lambda: 0)()
    cores = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return threads == 1 and len(cores) >= 2


def _dsygvd():
    """LAPACK's dsygvd, the ``cython_lapack`` capsule's function pointer as a
    ctypes ``CFUNCTYPE``, which drops the GIL while it runs."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dsygvd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(pointer)


def _eigh(K: sp.spmatrix, M: sp.spmatrix):
    """A call that returns ``scipy.linalg.eigh(K.toarray(), M.toarray())``
    bit for bit, by ``_dsygvd`` without the GIL.  Its arrays are made now,
    on the calling thread: made on a worker, they stayed in its malloc
    arena (``pade_family`` peak RSS 149 MB against 139).  Inputs that eigh
    refuses, and a nonzero ``info``, go to eigh: every error is eigh's."""
    # Fortran-ordered, so that LAPACK overwrites them in place
    a, b = K.toarray(order="F"), M.toarray(order="F")
    n = len(a)
    valid = a.shape == b.shape == (n, n) and np.isfinite(a).all() \
        and np.isfinite(b).all()
    # eigh's itype 1 and n = lda = ldb, and its f2py wrapper's lwork and
    # liwork: LAPACK's blocking, and so the bits, depend on lwork
    ints = np.array([1, n, 1 + 6 * n + 2 * n * n, 5 * n + 3, 0], np.intc)
    lam, work = np.empty(n), np.empty(ints[2])
    iwork, p, s = np.empty(ints[3], np.intc), ints.ctypes.data, ints.itemsize

    def solve():
        if valid:
            _dsygvd()(p, b"V", b"L", p + s, a.ctypes.data, p + s,
                      b.ctypes.data, p + s, lam.ctypes.data, work.ctypes.data,
                      p + 2 * s, iwork.ctypes.data, p + 3 * s, p + 4 * s)
            if ints[4] == 0:
                return lam, a
        return scipy.linalg.eigh(K.toarray(), M.toarray())
    return solve


def _bases(sys: FemSystem) -> list[sp.csc_matrix]:
    """``modal_decompose``'s orthonormal bases Q, from the fold's maps."""
    if half_system(sys) is None:
        return [sp.identity(sys.n_nodes, format="csc")]
    f, n, nodes = fold(sys.mesh.n_side), sys.n_nodes, np.arange(sys.n_nodes)
    pair = np.bincount(f.slot)[f.slot] == 2         # off the diagonal
    # diagonal slots first, then pair slots, each in the node order of rep
    column = np.argsort(np.lexsort((f.rep, pair[f.rep])))[f.slot]
    s, n_diag = np.sqrt(0.5), 2 * len(f.rep) - n
    sign = np.where(f.rep[f.slot] == nodes, s, -s)
    return [sp.csc_matrix((np.where(pair, s, 1.0), (nodes, column)),
                          shape=(n, len(f.rep))),
            sp.csc_matrix((sign[pair], (nodes[pair], column[pair] - n_diag)),
                          shape=(n, n - len(f.rep)))]


def exact_semidiscrete_solution(basis: ModalBasis, w0: np.ndarray,
                                t: float) -> np.ndarray:
    """Evaluate the semi-discrete solution sum_k (w0, phi_k)_M e^{-lam_k t} phi_k."""
    w0 = np.asarray(w0, dtype=float)
    n = basis.mass.shape[0]
    if w0.shape != (n,):
        raise ValueError(f"w0 has shape {w0.shape}, expected ({n},)")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return basis.synthesize([np.exp(-lam * t) * c for (_, lam, _), c in zip(
        basis.blocks, basis.coordinates(basis.mass @ w0))])
