"""Fundamental eigenpair by inverse iteration, plus a dense modal oracle.

The inverse iteration solves K_bar phi_new = M phi with mass-weighted inner
products throughout; the eigenvalue estimate after each solve is
(phi, phi)_M / (phi_new, phi)_M, and a Rayleigh-Ritz step on the last two
iterates gives the returned pair, where its residual stops falling.  The
dense path computes the full generalized eigendecomposition of (K, M) and
backs both the cross-validation tests and the modal time steppers.  The
model problem's K and M are invariant under the node swap (ix, iy) -> (iy,
ix), so the dense path solves the even and odd subspaces of that swap
apart: two problems of half the size, kept apart so that a modal product
reads half the data of an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import FemSystem, _mass_norm, m_norm
from .sparse import ConvergenceError, cg_solve, choose_solver

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
# K and M count as mirror-symmetric when they match their mirror-permuted
# copy to within MIRROR_TOL max|A| (the assembly's roundoff reaches 1.56 eps)
MIRROR_TOL = 16 * np.finfo(float).eps


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

    ``blocks`` holds one ``(Q, lam, W)`` per ``_mirror_blocks`` basis Q:
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
            evecs[:, column[start:start + len(lam)]] = Q @ W
            start += len(lam)
        return evecs

    def coordinates(self, My: np.ndarray) -> list[np.ndarray]:
        """The modal coordinates W_b^T (Q_b^T M y) of y, block by block."""
        return [W.T @ (Q.T @ My) for Q, _, W in self.blocks]

    def synthesize(self, coords: list[np.ndarray]) -> np.ndarray:
        """sum_b Q_b (W_b c_b), the vector with modal coordinates ``coords``."""
        return sum(Q @ (W @ c) for (Q, _, W), c in zip(self.blocks, coords))


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
    n = sys.n_nodes
    phi = np.ones(n) / m_norm(sys, np.ones(n))
    rhs = sys.M @ phi
    history: list[float] = []
    warm: np.ndarray | None = None
    solver = choose_solver(sys.K_bar, sys.mesh)

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
        previous, phi = phi, psi / m_norm(sys, psi)
        warm = phi / lam
        rhs = sys.M @ phi
        if it >= MIN_SWEEPS - 1:
            residual, theta, u = _ritz(sys, phi, previous, rhs)
            if it >= MIN_SWEEPS and residual >= last / 2:
                break
            last = residual
    else:
        raise ConvergenceError(
            "inverse iteration's Ritz residual was still falling after "
            f"{MAX_SWEEPS} sweeps", history=history)

    if np.max(u) <= 0.0:
        u = -u
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


def _mirror_blocks(sys: FemSystem) -> list[sp.csc_matrix]:
    """Orthonormal bases Q of the subspaces that (K, M) leaves invariant.

    With a mesh, and K and M equal to their mirror-permuted copies
    ``mirror @ A @ mirror.T`` to within MIRROR_TOL max|A|: the even basis
    (e_d for each diagonal node, then (e_a + e_b)/sqrt 2 for each mirrored
    pair) and the odd one ((e_a - e_b)/sqrt 2).  Otherwise the identity.
    """
    n = sys.n_nodes
    eye, nodes = sp.identity(n, format="csc"), np.arange(n)
    if sys.mesh is not None:
        p = nodes.reshape(sys.mesh.n_side, -1).T.ravel()
        mirror, pairs, s = eye[p], p > nodes, np.sqrt(0.5)
        if all(abs(mirror @ A @ mirror.T - A).max()
               <= MIRROR_TOL * abs(A.data).max() for A in (sys.K, sys.M)):
            return [sp.hstack([eye[:, p == nodes],
                               s * (eye + mirror)[:, pairs]], format="csc"),
                    s * (eye - mirror)[:, pairs]]
    return [eye]


def modal_decompose(sys: FemSystem) -> ModalBasis:
    """Dense generalized eigendecomposition of (K, M) for small systems.

    One ``eigh(Q^T K Q, Q^T M Q)`` per ``_mirror_blocks`` basis Q (even and
    odd mirror subspaces, else the identity: the plain problem bit for bit),
    kept by block; only the eigenvalues are merged, by a stable sort.  Refuses
    systems above DENSE_LIMIT nodes; the dense path exists as an oracle and
    as the engine of the modal steppers, not as a production eigensolver.
    """
    n = sys.n_nodes
    if n > DENSE_LIMIT:
        raise ValueError(f"system has {n} nodes, above the dense limit "
                         f"{DENSE_LIMIT}")
    # Fortran-ordered temporaries, so that LAPACK overwrites them in place
    blocks = tuple((Q, *scipy.linalg.eigh(
        (Q.T @ sys.K @ Q).toarray(order="F"),
        (Q.T @ sys.M @ Q).toarray(order="F"),
        overwrite_a=True, overwrite_b=True)) for Q in _mirror_blocks(sys))
    evals = np.concatenate([lam for _, lam, _ in blocks])
    return ModalBasis(eigenvalues=evals[np.argsort(evals, kind="stable")],
                      blocks=blocks, mass=sys.M)


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
