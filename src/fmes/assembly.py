"""P1 finite element assembly for the model diffusion-reaction problem.

The bilinear form combines a piecewise-constant diffusivity (one value in the
lower-left quarter of the square, another elsewhere), a Robin boundary term
with side-dependent coefficient mu, and a constant reaction c.  Diffusivity is
sampled at triangle centroids, which is unambiguous even when the quarter
interface cuts through cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .sparse import _dia, _dia_sum, _mass_norm, fold

# exact P1 integrals on a reference triangle / edge, scaled by area / length
ELEMENT_MASS = np.array([[2.0, 1.0, 1.0],
                         [1.0, 2.0, 1.0],
                         [1.0, 1.0, 2.0]]) / 12.0
EDGE_MASS = np.array([[2.0, 1.0],
                      [1.0, 2.0]]) / 6.0
# local nodes (x, y) of a cell's lower triangle (ll, lr, ur) and upper one
# (ll, ur, ul), in steps from its lower-left node ll
CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


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
    symmetric DIA matrices (K_bar has 5 diagonals, and so has K at c = 0),
    summed by ``assemble``.  A ``half_system`` keeps the whole mesh, and
    ``whole`` is the system it was folded from (None for any other).
    """

    mesh: Mesh | None
    M: sp.dia_matrix
    K_bar: sp.dia_matrix
    K: sp.dia_matrix
    coeffs: ProblemCoefficients
    whole: FemSystem | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.M.shape[0]


@np.errstate(over="ignore", invalid="ignore")     # overflow is refused below
def assemble(mesh: Mesh,
             coeffs: ProblemCoefficients | None = None) -> FemSystem:
    """Assemble mass and stiffness matrices on a ``build_mesh`` mesh.

    The element terms fall into 18 classes (triangle parity x local row x
    local column); each is computed on views of the node grid and added
    into its diagonal as one (n_side - 1)^2 grid slice, in the order that
    keeps every entry bit for bit the element-by-element sum
    (``sparse._dia_sum`` of the (T, 3, 3) element blocks).
    """
    if coeffs is None:
        coeffs = ProblemCoefficients()

    n, m = mesh.n_side, mesh.n_side - 1
    X, Y = np.ascontiguousarray(mesh.nodes.T).reshape(2, n, n)
    elements = []
    for corners in CORNERS:
        x0, x1, x2 = (X[dy:dy + m, dx:dx + m] for dx, dy in corners)
        y0, y1, y2 = (Y[dy:dy + m, dx:dx + m] for dx, dy in corners)
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        k_elem = coeffs.diffusivity_at((x0 + x1 + x2) / 3.0,
                                       (y0 + y1 + y2) / 3.0)
        # P1 basis gradients: grad(lambda_i) = (b_i, c_i), cyclic differences
        elements.append((area, k_elem / (4.0 * area),
                         (y1 - y2, y2 - y0, y0 - y1),
                         (x2 - x1, x0 - x2, x1 - x0)))

    # cell (ix, iy) owns triangles 2 (iy m + ix) + s, so class (s, i, j)
    # adds triangle 2 (jy m + jx) + s - 2 (yj m + xj) at column node (jx,
    # jy): sorted by that offset, the classes add in triangle order
    classes = sorted((s - 2 * (corners[j][1] * m + corners[j][0]), s, i, j)
                     for s, corners in enumerate(CORNERS)
                     for i in range(3) for j in range(3))
    offsets = np.array([-n - 1, -n, -1, 0, 1, n, n + 1])
    M, K_bar = (np.zeros((len(offsets), n, n)) for _ in range(2))
    for _, s, i, j in classes:
        area, inv4a, b, c = elements[s]
        (xi, yi), (xj, yj) = CORNERS[s][i], CORNERS[s][j]
        d = np.searchsorted(offsets, (yj - yi) * n + xj - xi)
        M[d, yj:yj + m, xj:xj + m] += area * ELEMENT_MASS[i, j]
        K_bar[d, yj:yj + m, xj:xj + m] += inv4a * (b[i] * b[j] + c[i] * c[j])
    M, K_bar = (_dia(data.reshape(len(offsets), -1), offsets, (n * n,) * 2)
                for data in (M, K_bar))

    # Robin term: exact edge-mass integration, each side contributing its own mu
    mu = {"left": coeffs.mu_left_bottom, "bottom": coeffs.mu_left_bottom,
          "right": coeffs.mu_right_top, "top": coeffs.mu_right_top}
    robin = [side for side in mesh.boundary_edges if mu[side] != 0.0]
    if robin:
        edges = np.concatenate([mesh.boundary_edges[side] for side in robin])
        mu_edge = np.repeat([mu[side] for side in robin], m)
        p = mesh.nodes[edges]
        length = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        blocks = (mu_edge * length)[:, None, None] * EDGE_MASS
        K_bar = K_bar + _dia_sum(edges[:, :, None], edges[:, None, :],
                                 blocks, (n * n,) * 2)

    # K_bar's diagonals are some of M's; _dia drops the rest at c = 0
    K = coeffs.c * M.data
    K[np.searchsorted(M.offsets, K_bar.offsets)] += K_bar.data
    K = _dia(K, M.offsets, M.shape)
    if not all(np.isfinite(A.data).all() for A in (M, K_bar, K)):
        raise ValueError("the coefficients overflow the assembled matrices")
    return FemSystem(mesh, M, K_bar, K, coeffs)


def half_system(sys: FemSystem) -> FemSystem | None:
    """F^T sys F: sys on its mirror-even half, each matrix folded by its
    mesh's ``sparse.fold``, with ``whole`` = sys; None without a mesh, for
    a half, or when M, K_bar or K fails the fold's mirror test."""
    if sys.mesh is None or sys.whole is not None:
        return None
    halves = fold(sys.mesh.n_side).halves(sys.M, sys.K_bar, sys.K)
    return None if halves is None else FemSystem(sys.mesh, *halves,
                                                 sys.coeffs, whole=sys)


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
