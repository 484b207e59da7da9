"""P1 finite element assembly for the model diffusion-reaction problem.

The bilinear form combines a piecewise-constant diffusivity (one value in the
lower-left quarter of the square, another elsewhere), a Robin boundary term
with side-dependent coefficient mu, and a constant reaction c.  Diffusivity is
sampled at triangle centroids, which is unambiguous even when the quarter
interface cuts through cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, triangle_areas

# exact P1 integrals on a reference triangle / edge, scaled by area / length
ELEMENT_MASS = np.array([[2.0, 1.0, 1.0],
                         [1.0, 2.0, 1.0],
                         [1.0, 1.0, 2.0]]) / 12.0
EDGE_MASS = np.array([[2.0, 1.0],
                      [1.0, 2.0]]) / 6.0


@dataclass(frozen=True)
class ProblemCoefficients:
    """Coefficients of the model problem.

    k_inner applies where both centroid coordinates are below 1/2, k_outer
    elsewhere.  mu_right_top is the Robin coefficient on the right and top
    sides, mu_left_bottom on the left and bottom.  c is the constant reaction.
    """

    k_inner: float = 10.0
    k_outer: float = 1.0
    c: float = 0.0
    mu_right_top: float = 10.0
    mu_left_bottom: float = 0.0

    def __post_init__(self):
        if self.k_inner <= 0.0 or self.k_outer <= 0.0:
            raise ValueError("diffusivities must be positive")
        if self.mu_right_top < 0.0 or self.mu_left_bottom < 0.0:
            raise ValueError("boundary coefficients must be nonnegative")

    def diffusivity_at(self, x, y):
        """Diffusivity at points (x, y); accepts scalars or arrays."""
        return np.where((x < 0.5) & (y < 0.5), self.k_inner, self.k_outer)

    def mu_for_side(self, side: str) -> float:
        if side in ("right", "top"):
            return self.mu_right_top
        if side in ("left", "bottom"):
            return self.mu_left_bottom
        raise ValueError(f"unknown side {side!r}")


@dataclass(frozen=True)
class FemSystem:
    """Assembled FEM pair plus the reaction-free stiffness.

    M is the mass matrix, K_bar the stiffness of the diffusion + boundary
    terms, and K = K_bar + c M the full operator matrix.  All three are
    symmetric CSR matrices.
    """

    mesh: Mesh | None
    M: sp.csr_matrix
    K_bar: sp.csr_matrix
    K: sp.csr_matrix
    coeffs: ProblemCoefficients

    @property
    def n_nodes(self) -> int:
        return self.M.shape[0]


def assemble(mesh: Mesh,
             coeffs: ProblemCoefficients | None = None) -> FemSystem:
    """Assemble mass and stiffness matrices on a mesh."""
    if coeffs is None:
        coeffs = ProblemCoefficients()

    n = mesh.n_nodes
    tri = mesh.triangles
    pts = mesh.nodes[tri]                      # (T, 3, 2)
    areas = triangle_areas(mesh)               # (T,)
    centroids = pts.mean(axis=1)               # (T, 2)

    k_elem = coeffs.diffusivity_at(centroids[:, 0], centroids[:, 1])

    # P1 basis gradients: grad(lambda_i) = (b_i, c_i) with cyclic differences
    x, y = pts[:, :, 0], pts[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    inv4a = k_elem / (4.0 * areas)
    ke = inv4a[:, None, None] * (b[:, :, None] * b[:, None, :]
                                 + c[:, :, None] * c[:, None, :])
    me = areas[:, None, None] * ELEMENT_MASS[None, :, :]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, 3).ravel()
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K_bar = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    # Robin term: exact edge-mass integration, each side contributing its own mu
    edge_rows, edge_cols, edge_vals = [], [], []
    for (i, j), side in mesh.boundary_edges:
        mu = coeffs.mu_for_side(side)
        if mu == 0.0:
            continue
        length = float(np.linalg.norm(mesh.nodes[j] - mesh.nodes[i]))
        block = mu * length * EDGE_MASS
        edge_rows += [i, i, j, j]
        edge_cols += [i, j, i, j]
        edge_vals += [block[0, 0], block[0, 1], block[1, 0], block[1, 1]]
    if edge_vals:
        K_bar = (K_bar + sp.coo_matrix((edge_vals, (edge_rows, edge_cols)),
                                       shape=(n, n)).tocsr()).tocsr()

    K = (K_bar + coeffs.c * M).tocsr()
    return FemSystem(mesh=mesh, M=M, K_bar=K_bar, K=K, coeffs=coeffs)


def m_inner(sys: FemSystem, u: np.ndarray, v: np.ndarray) -> float:
    """Mass-weighted inner product u^T M v (discrete L2 product)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = sys.n_nodes
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"expected vectors of length {n}, "
                         f"got {u.shape} and {v.shape}")
    return float(u @ (sys.M @ v))


def m_norm(sys: FemSystem, u: np.ndarray) -> float:
    """Mass-weighted norm sqrt(u^T M u)."""
    return float(np.sqrt(m_inner(sys, u, u)))
