"""Uniform right-triangle meshes of the unit square."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Structured triangulation of [0,1] x [0,1] with ``n_side`` nodes per side.

    Nodes are numbered row by row, x varying fastest, so node (ix, iy) has
    index ``iy * n_side + ix``.  Each grid cell is split by its lower-left to
    upper-right diagonal into a lower triangle (ll, lr, ur) and an upper one
    (ll, ur, ul); cell (ix, iy) owns triangle rows ``2 (iy (n_side - 1) + ix)``
    and the one after it.  Both triangles are counterclockwise and have
    signed area h**2 / 2.

    Attributes
    ----------
    n_side : nodes per side (mesh width h = 1 / (n_side - 1))
    nodes : (n_nodes, 2) array of coordinates
    triangles : (n_triangles, 3) int array of node indices
    boundary_edges : side ("left", "right", "bottom", "top") -> (n_side - 1, 2)
        int array of node pairs, ordered along the side by increasing x or y
    """

    n_side: int
    h: float
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: dict[str, np.ndarray]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def build_mesh(n_side: int) -> Mesh:
    """Triangulate the unit square uniformly.

    Produces n_side**2 nodes, 2 (n_side - 1)**2 triangles and
    4 (n_side - 1) labeled boundary edges.

    Raises
    ------
    ValueError
        If n_side < 2.
    """
    if n_side < 2:
        raise ValueError(f"n_side must be >= 2, got {n_side}")

    h = 1.0 / (n_side - 1)

    xs = np.linspace(0.0, 1.0, n_side)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    idx = np.arange(n_side ** 2, dtype=np.int64).reshape(n_side, n_side)
    ll, lr = idx[:-1, :-1], idx[:-1, 1:]
    ul, ur = idx[1:, :-1], idx[1:, 1:]
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=-1).reshape(-1, 3)

    lines = {"left": idx[:, 0], "right": idx[:, -1],
             "bottom": idx[0], "top": idx[-1]}
    boundary_edges = {side: np.column_stack([line[:-1], line[1:]])
                      for side, line in lines.items()}

    nodes.setflags(write=False)
    triangles.setflags(write=False)
    for edges in boundary_edges.values():
        edges.setflags(write=False)
    return Mesh(n_side=n_side, h=h, nodes=nodes, triangles=triangles,
                boundary_edges=boundary_edges)

