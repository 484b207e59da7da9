import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fmes import sparse
from fmes.assembly import (EDGE_MASS, ELEMENT_MASS, ProblemCoefficients,
                           assemble, half_system, m_inner, m_norm)
from fmes.mesh import build_mesh
from fmes.spectral import inverse_iteration

UNIT_COEFFS = ProblemCoefficients(k_inner=1.0, k_outer=1.0, mu_right_top=0.0)


def _element_terms(mesh, coeffs):
    """(rows, cols, vals) of M's element terms, of K_bar's, and a list of
    the Robin edges' (empty without a Robin side), formed as the element-
    by-element assembly formed them: one (T, 3, 3) block per triangle, in
    triangle order, from gathered coordinates."""
    tri = mesh.triangles
    rows, cols = tri[:, :, None], tri[:, None, :]
    pts = mesh.nodes[tri]
    d1, d2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    centroids = pts.mean(axis=1)
    k_elem = coeffs.diffusivity_at(centroids[:, 0], centroids[:, 1])
    x, y = pts[:, :, 0], pts[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1)
    inv4a = k_elem / (4.0 * areas)
    M = rows, cols, areas[:, None, None] * ELEMENT_MASS
    K_bar = rows, cols, inv4a[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])

    mu = {"left": coeffs.mu_left_bottom, "bottom": coeffs.mu_left_bottom,
          "right": coeffs.mu_right_top, "top": coeffs.mu_right_top}
    sides = [side for side in mesh.boundary_edges if mu[side] != 0.0]
    if not sides:
        return M, K_bar, []
    edges = np.concatenate([mesh.boundary_edges[side] for side in sides])
    mu_edge = np.repeat([mu[side] for side in sides], mesh.n_side - 1)
    p = mesh.nodes[edges]
    length = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    return M, K_bar, [(edges[:, :, None], edges[:, None, :],
                       (mu_edge * length)[:, None, None] * EDGE_MASS)]


def _assert_element_sums(mesh, coeffs):
    # the reference: sparse._dia_sum of the (T, 3, 3) element blocks, which
    # adds each entry's terms in triangle order, the Robin edges' own sum
    # joined by a DIA add, and K = K_bar + c M by a DIA add, its all-zero
    # diagonals dropped
    shape = (mesh.n_nodes, mesh.n_nodes)
    M, K_bar, robin = _element_terms(mesh, coeffs)
    M, K_bar = sparse._dia_sum(*M, shape), sparse._dia_sum(*K_bar, shape)
    for terms in robin:
        K_bar = K_bar + sparse._dia_sum(*terms, shape)
    K = K_bar + coeffs.c * M
    sys = assemble(mesh, coeffs)
    for stored, reference in ((sys.M, M), (sys.K_bar, K_bar),
                              (sys.K, sparse._dia(K.data, K.offsets, shape))):
        assert stored.format == "dia"
        assert np.array_equal(stored.offsets, reference.offsets)
        assert np.array_equal(stored.data, reference.data)


COEFFS = [ProblemCoefficients(), ProblemCoefficients(mu_right_top=0.0),
          ProblemCoefficients(c=2.5, mu_left_bottom=3.0)]
COEFF_IDS = ["robin", "no_robin", "reaction"]


@pytest.mark.parametrize("n_side", [2, 3, 5, 26, 27, 201])
@pytest.mark.parametrize("coeffs", COEFFS, ids=COEFF_IDS)
def test_system_matrices_are_the_element_sums_bit_for_bit(n_side, coeffs):
    _assert_element_sums(build_mesh(n_side), coeffs)


@pytest.mark.parametrize("n_side", [2, 3, 26, 27])
@pytest.mark.parametrize("coeffs", COEFFS, ids=COEFF_IDS)
def test_K_keeps_the_products_of_the_dia_add(n_side, coeffs, rng):
    # K is K_bar + c M as a DIA add stored it, less the two diagonals that
    # are zero at c = 0, so every product keeps its bits
    sys = assemble(build_mesh(n_side), coeffs)
    added = sys.K_bar + coeffs.c * sys.M
    assert len(added.offsets) == 7
    assert np.array_equal(sys.K.offsets, sys.K_bar.offsets if coeffs.c == 0.0
                          else added.offsets)
    X = rng.standard_normal((sys.n_nodes, 3))
    for x in (*X.T, X, 1e300 * X[:, 0], 1e-300 * X[:, 0]):
        assert np.array_equal(sys.K @ x, added @ x)


# log-uniform in [1e-3, 1e3], as the eigenpair property draws them
_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(n_side=st.integers(2, 40), k_inner=_LOG_UNIFORM, k_outer=_LOG_UNIFORM,
       c=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
       mu_right_top=st.one_of(st.just(0.0), _LOG_UNIFORM),
       mu_left_bottom=st.one_of(st.just(0.0), _LOG_UNIFORM))
def test_element_sums_bit_for_bit_property(n_side, **coeffs):
    _assert_element_sums(build_mesh(n_side), ProblemCoefficients(**coeffs))


@pytest.mark.parametrize("n_side", [2, 5, 26])
@pytest.mark.parametrize("coeffs", COEFFS, ids=COEFF_IDS)
def test_system_matrices_are_the_csr_sums_by_diagonals(n_side, coeffs):
    # the reference is scipy's COO -> CSR sum of the same element terms (and
    # the CSR add of the Robin term), which sums each entry in another
    # order: any order of t terms is off the exact sum by at most
    # gamma_(t-1) sum|terms| (Higham, 2nd ed., §4.2), so two orders differ
    # by at most twice that
    mesh = build_mesh(n_side)
    sys = assemble(mesh, coeffs)

    def coo(rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             sys.M.shape)

    M, K_bar, robin = _element_terms(mesh, coeffs)
    assert len(robin) == (coeffs.mu_right_top != 0.0)
    u = np.finfo(float).eps / 2
    for stored, parts in ((sys.M, [coo(*M)]),
                          (sys.K_bar, [coo(*t) for t in [K_bar] + robin])):
        assert stored.format == "dia"
        csr = sum(part.tocsr() for part in parts)
        csr.eliminate_zeros()
        # the diagonals that hold a nonzero: K_bar's 5, M's 7
        assert np.array_equal(stored.offsets, sp.dia_matrix(csr).offsets)
        count = sum(sp.coo_matrix((np.ones(part.nnz), (part.row, part.col)),
                                  part.shape).toarray() for part in parts)
        abs_sum = sum(abs(part).toarray() for part in parts)
        gamma = (count - 1) * u / (1 - (count - 1) * u)
        assert np.all(np.abs(stored.toarray() - csr.toarray())
                      <= 2 * gamma * abs_sum)
    assert sys.K.format == "dia"
    assert np.array_equal(sys.K.toarray(),
                          sys.K_bar.toarray() + coeffs.c * sys.M.toarray())


def test_mass_sums_to_domain_area(sys26):
    ones = np.ones(sys26.n_nodes)
    assert m_inner(sys26, ones, ones) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("n_side", [2, 7])
def test_pure_neumann_nullspace(n_side):
    sys = assemble(build_mesh(n_side), UNIT_COEFFS)
    ones = np.ones(sys.n_nodes)
    assert np.abs(sys.K_bar @ ones).max() < 1e-13


def test_dirichlet_energy_of_linear_function():
    # integral of |grad x1|^2 over the unit square is exactly 1, and P1
    # interpolation of a linear function is exact
    sys = assemble(build_mesh(9), UNIT_COEFFS)
    x1 = sys.mesh.nodes[:, 0]
    assert x1 @ (sys.K_bar @ x1) == pytest.approx(1.0, rel=1e-12)


def test_m_inner_basics(sys6):
    ones = np.ones(sys6.n_nodes)
    assert m_inner(sys6, ones, np.zeros(sys6.n_nodes)) == 0.0
    assert m_inner(sys6, ones, ones) == pytest.approx(1.0, rel=1e-13)


def test_half_system_carries_its_whole_system():
    # the half holds the system it was folded from, a half folds no
    # further, and the whole system keeps nothing of its half (5 MB at
    # n_side 201)
    sys = assemble(build_mesh(6))
    before = dict(vars(sys))
    half = half_system(sys)
    assert half.whole is sys and half.mesh is sys.mesh
    assert half.n_nodes == 21 and sys.whole is None
    assert half_system(half) is None
    assert vars(sys) == before
    assert "whole" not in repr(half)


def test_m_norm_of_sine_interpolant():
    # ||sin(pi x1)||^2 = 1/2 on the unit square; interpolation error is O(h^2)
    mesh = build_mesh(41)
    sys = assemble(mesh)
    u = np.sin(np.pi * mesh.nodes[:, 0])
    assert m_norm(sys, u) ** 2 == pytest.approx(0.5, abs=5 * mesh.h ** 2)


def test_m_inner_dimension_mismatch(sys6):
    with pytest.raises(ValueError):
        m_inner(sys6, np.ones(3), np.ones(sys6.n_nodes))


def test_symmetry(sys26):
    for mat in (sys26.M, sys26.K_bar, sys26.K):
        diff = (mat - mat.T).tocoo()
        scale = np.abs(mat.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-14 * scale


def test_positive_definiteness(sys26, rng):
    n = sys26.n_nodes
    for _ in range(100):
        x = rng.standard_normal(n)
        assert x @ (sys26.M @ x) > 0.0
        assert x @ (sys26.K @ x) > 0.0


def test_k_bar_positive_semidefinite(sys26, rng):
    n = sys26.n_nodes
    for _ in range(100):
        x = rng.standard_normal(n)
        q = x @ (sys26.K_bar @ x)
        assert q > -1e-12 * (x @ x)


def test_diffusion_scaling_linearity():
    mesh = build_mesh(8)
    base = ProblemCoefficients(k_inner=10.0, k_outer=1.0, mu_right_top=0.0)
    double = ProblemCoefficients(k_inner=20.0, k_outer=2.0, mu_right_top=0.0)
    k1 = assemble(mesh, base).K_bar
    k2 = assemble(mesh, double).K_bar
    diff = (k2 - 2.0 * k1).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-13


def test_reaction_term():
    mesh = build_mesh(6)
    sys = assemble(mesh, ProblemCoefficients(c=3.0))
    diff = (sys.K - (sys.K_bar + 3.0 * sys.M)).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) == 0.0


def test_boundary_term_restricted_to_robin_sides():
    mesh = build_mesh(5)
    with_mu = assemble(mesh).K_bar
    without_mu = assemble(mesh, ProblemCoefficients(mu_right_top=0.0)).K_bar
    extra = (with_mu - without_mu).tocoo()
    # every extra entry couples nodes on the right or top side
    on_robin = (mesh.nodes[:, 0] == 1.0) | (mesh.nodes[:, 1] == 1.0)
    assert extra.nnz > 0
    assert np.all(on_robin[extra.row]) and np.all(on_robin[extra.col])
    # total Robin energy of u=1 equals mu * (length of Robin boundary)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (extra.tocsr() @ ones) == pytest.approx(20.0, rel=1e-13)


def test_boundary_term_on_left_and_bottom_sides():
    mesh = build_mesh(5)
    without_mu = ProblemCoefficients(mu_right_top=0.0)
    with_mu = ProblemCoefficients(mu_right_top=0.0, mu_left_bottom=3.0)
    extra = (assemble(mesh, with_mu).K_bar
             - assemble(mesh, without_mu).K_bar).tocoo()
    # every extra entry couples nodes on the left or bottom side
    on_robin = (mesh.nodes[:, 0] == 0.0) | (mesh.nodes[:, 1] == 0.0)
    assert extra.nnz > 0
    assert np.all(on_robin[extra.row]) and np.all(on_robin[extra.col])
    ones = np.ones(mesh.n_nodes)
    assert ones @ (extra.tocsr() @ ones) == pytest.approx(6.0, rel=1e-13)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        ProblemCoefficients(k_inner=0.0)
    with pytest.raises(ValueError):
        ProblemCoefficients(k_outer=-1.0)
    with pytest.raises(ValueError):
        ProblemCoefficients(mu_right_top=-0.5)
    # c < 0 can make K indefinite (lambda1 < 0), where no scheme is stable
    with pytest.raises(ValueError, match="^boundary coefficients and c must "
                                         "be nonnegative$"):
        ProblemCoefficients(c=-1000.0)


@pytest.mark.parametrize("name", ["k_inner", "k_outer", "c", "mu_right_top",
                                  "mu_left_bottom"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_coefficients_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
        ProblemCoefficients(**{name: value})


def test_assembly_refuses_only_entries_that_overflow():
    # at n_side 21, k / (4 area) is 200 k and overflows from k = 9e305,
    # long before the entries of K (at most 4 k) do; K_bar keeps the bits
    # of the same system 2^100 times smaller (no Robin term, which would
    # not scale), and 1e308 is refused
    mesh = build_mesh(21)
    big = ProblemCoefficients(k_inner=1e306, mu_right_top=0.0)
    small = ProblemCoefficients(k_inner=1e306 / 2.0 ** 100,
                                k_outer=2.0 ** -100, mu_right_top=0.0)
    system = assemble(mesh, big)
    assert np.array_equal(system.K_bar.data,
                          assemble(mesh, small).K_bar.data * 2.0 ** 100)
    assert np.abs(system.K.data).max() == pytest.approx(4e306, rel=1e-12)
    with pytest.raises(ValueError, match="^the coefficients overflow the "
                                         "assembled matrices$"):
        assemble(mesh, ProblemCoefficients(k_inner=1e308))


def test_diffusivity_placement():
    coeffs = ProblemCoefficients()
    assert coeffs.diffusivity_at(0.25, 0.25) == 10.0
    assert coeffs.diffusivity_at(0.75, 0.25) == 1.0
    assert coeffs.diffusivity_at(0.25, 0.75) == 1.0
    assert coeffs.diffusivity_at(0.5, 0.5) == 1.0


def test_eigenvalue_refinement_consistency():
    # the fundamental eigenvalue decreases monotonically under refinement
    values = [inverse_iteration(assemble(build_mesh(n))).lambda1_bar
              for n in (6, 11, 21)]
    assert values[0] > values[1] > values[2]
