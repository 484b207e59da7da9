import numpy as np
import pytest

from fmes.mesh import build_mesh


def triangle_areas(mesh):
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _n_boundary_edges(mesh):
    return sum(len(edges) for edges in mesh.boundary_edges.values())


def test_single_cell_counts():
    mesh = build_mesh(2)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert _n_boundary_edges(mesh) == 4
    assert mesh.h == 1.0


def test_table_grid_counts():
    mesh = build_mesh(26)
    assert mesh.h == pytest.approx(1.0 / 25, abs=0)
    assert mesh.n_nodes == 676
    assert mesh.n_triangles == 1250
    assert _n_boundary_edges(mesh) == 100


def test_areas_single_value():
    mesh = build_mesh(3)
    areas = triangle_areas(mesh)
    assert np.allclose(areas, 1.0 / 8, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_side", [2, 3, 5, 8, 13])
def test_areas_positive_and_sum_to_one(n_side):
    mesh = build_mesh(n_side)
    areas = triangle_areas(mesh)
    expected = mesh.h ** 2 / 2
    assert np.all(areas > 0)
    assert areas == pytest.approx(np.full(mesh.n_triangles, expected), rel=1e-14)
    assert areas.sum() == pytest.approx(1.0, rel=1e-13)


def test_counts_formulae():
    for n_side in (2, 4, 9):
        mesh = build_mesh(n_side)
        assert mesh.n_nodes == n_side ** 2
        assert mesh.n_triangles == 2 * (n_side - 1) ** 2
        assert _n_boundary_edges(mesh) == 4 * (n_side - 1)
        for edges in mesh.boundary_edges.values():
            assert edges.shape == (n_side - 1, 2)


def test_interior_node_in_six_triangles():
    mesh = build_mesh(5)
    counts = np.zeros(mesh.n_nodes, dtype=int)
    for tri in mesh.triangles:
        counts[tri] += 1
    interior = [i for i, (x, y) in enumerate(mesh.nodes)
                if 0 < x < 1 and 0 < y < 1]
    assert np.all(counts[interior] == 6)


def test_edge_manifold_property():
    mesh = build_mesh(6)
    edge_count = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    boundary = {(min(i, j), max(i, j))
                for edges in mesh.boundary_edges.values() for i, j in edges}
    for key, count in edge_count.items():
        if count == 1:
            assert key in boundary
        else:
            assert count == 2
            assert key not in boundary
    assert boundary <= set(edge_count)


def test_boundary_edges_lie_on_their_side():
    mesh = build_mesh(7)
    coord = {"left": (0, 0.0), "right": (0, 1.0),
             "bottom": (1, 0.0), "top": (1, 1.0)}
    assert set(mesh.boundary_edges) == set(coord)
    for side, edges in mesh.boundary_edges.items():
        axis, value = coord[side]
        assert np.all(mesh.nodes[edges][:, :, axis] == value)


def test_row_major_numbering():
    mesh = build_mesh(4)
    # node (ix, iy) sits at index iy*4 + ix
    assert mesh.nodes[0] == pytest.approx([0.0, 0.0])
    assert mesh.nodes[3] == pytest.approx([1.0, 0.0])
    assert mesh.nodes[4] == pytest.approx([0.0, 1.0 / 3])


def test_triangle_order():
    # the CSV bytes depend on this order: cell (ix, iy) owns rows
    # 2 (3 iy + ix) and the one after it, lower (ll, lr, ur) then upper
    # (ll, ur, ul)
    mesh = build_mesh(4)
    for iy in range(3):
        for ix in range(3):
            ll, lr = 4 * iy + ix, 4 * iy + ix + 1
            ul, ur = ll + 4, lr + 4
            row = 2 * (3 * iy + ix)
            assert mesh.triangles[row].tolist() == [ll, lr, ur]
            assert mesh.triangles[row + 1].tolist() == [ll, ur, ul]


def test_invalid_n_side():
    with pytest.raises(ValueError):
        build_mesh(1)
    with pytest.raises(ValueError):
        build_mesh(0)
