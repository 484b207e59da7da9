"""P1 finite element assembly for the model diffusion-reaction problem.

The bilinear form combines a piecewise-constant diffusivity (one value in the
lower-left quarter of the square, another elsewhere), a Robin boundary term
with side-dependent coefficient mu, and a constant reaction c.  Diffusivity is
sampled at triangle centroids, which is unambiguous even when the quarter
interface cuts through cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, triangle_areas
from .sparse import _dia_sum, _in_range, _scaled

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"coefficient {f.name} must be finite")
        if self.k_inner <= 0.0 or self.k_outer <= 0.0:
            raise ValueError("diffusivities must be positive")
        if min(self.mu_right_top, self.mu_left_bottom, self.c) < 0.0:
            raise ValueError("boundary coefficients and c must be nonnegative")

    def diffusivity_at(self, x, y):
        """Diffusivity at points (x, y); accepts scalars or arrays."""
        return np.where((x < 0.5) & (y < 0.5), self.k_inner, self.k_outer)


@dataclass(frozen=True)
class FemSystem:
    """Assembled FEM pair plus the reaction-free stiffness.

    M is the mass matrix, K_bar the stiffness of the diffusion + boundary
    terms, and K = K_bar + c M the full operator matrix.  All three are
    symmetric DIA matrices, summed into the diagonals element by element
    (``sparse._dia_sum``; K_bar has 5), the Robin edges' sum by a DIA add.
    """

    mesh: Mesh | None
    M: sp.dia_matrix
    K_bar: sp.dia_matrix
    K: sp.dia_matrix
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
    rows, cols = tri[:, :, None], tri[:, None, :]
    pts = mesh.nodes[tri]                      # (T, 3, 2)
    areas = triangle_areas(mesh)               # (T,)
    centroids = pts.mean(axis=1)               # (T, 2)
    # each (T, 3, 3) array of element blocks lives only through its own sum
    M = _dia_sum(rows, cols, areas[:, None, None] * ELEMENT_MASS, (n, n))

    k_elem = coeffs.diffusivity_at(centroids[:, 0], centroids[:, 1])

    # P1 basis gradients: grad(lambda_i) = (b_i, c_i) with cyclic differences
    x, y = pts[:, :, 0], pts[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    inv4a = k_elem / (4.0 * areas)
    K_bar = _dia_sum(rows, cols, inv4a[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]), (n, n))

    # Robin term: exact edge-mass integration, each side contributing its own mu
    mu = {"left": coeffs.mu_left_bottom, "bottom": coeffs.mu_left_bottom,
          "right": coeffs.mu_right_top, "top": coeffs.mu_right_top}
    robin = [side for side in mesh.boundary_edges if mu[side] != 0.0]
    if robin:
        edges = np.concatenate([mesh.boundary_edges[side] for side in robin])
        mu_edge = np.repeat([mu[side] for side in robin], mesh.n_side - 1)
        p = mesh.nodes[edges]
        length = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        blocks = (mu_edge * length)[:, None, None] * EDGE_MASS
        K_bar = K_bar + _dia_sum(edges[:, :, None], edges[:, None, :],
                                 blocks, (n, n))

    return FemSystem(mesh, M, K_bar, K_bar + coeffs.c * M, coeffs)


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
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n_nodes,):
        raise ValueError(f"expected a vector of length {sys.n_nodes}, "
                         f"got {u.shape}")
    return _mass_norm(sys.M, u)


def _mass_norm(M, u: np.ndarray, Mu: np.ndarray | None = None) -> float:
    """sqrt(u^T M u), from ``Mu`` = M u when the caller has it.

    A state that decays like exp(-lambda_1 t) leaves u^T M u's range long
    before u itself, so the norm follows the range rule of ``sparse``: a
    norm outside [2^-256, 2^256] is taken of 2^e u instead, e the exponent
    ``sparse._scaled`` gives (max|2^e u| in [1/2, 1)), and scaled back by
    2^-e.  That is exact, so an in-range norm keeps its bits.  np.vdot, not
    ``@``, forms u^T M u: it gives the same bits without numpy's overflow
    warnings on a huge u.
    """
    # abs: a sum of products that overflow can end at -inf
    norm = math.sqrt(abs(float(np.vdot(u, M @ u if Mu is None else Mu))))
    if _in_range(norm) or not u.any():
        return norm
    u, e = _scaled(u)
    return float(_scaled(math.sqrt(float(np.vdot(u, M @ u))), -e)[0])
