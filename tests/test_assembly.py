import numpy as np
import pytest
import scipy.sparse as sp

from fmes import assembly
from fmes.assembly import ProblemCoefficients, assemble, m_inner, m_norm
from fmes.mesh import build_mesh
from fmes.spectral import inverse_iteration

UNIT_COEFFS = ProblemCoefficients(k_inner=1.0, k_outer=1.0, mu_right_top=0.0)


@pytest.mark.parametrize("n_side", [2, 5, 26])
@pytest.mark.parametrize("coeffs", [
    ProblemCoefficients(),
    ProblemCoefficients(mu_right_top=0.0),
    ProblemCoefficients(c=2.5, mu_left_bottom=3.0)],
    ids=["robin", "no_robin", "reaction"])
def test_system_matrices_are_the_csr_sums_by_diagonals(monkeypatch, n_side,
                                                      coeffs):
    # M and K_bar are converted once, after the CSR sums and the Robin add,
    # and K = K_bar + c M is formed by diagonals from them
    sums = []
    scatter = assembly._scatter

    def recording(conn, n, *blocks):
        out = scatter(conn, n, *blocks)
        sums.extend(out)
        return out

    monkeypatch.setattr(assembly, "_scatter", recording)
    sys = assemble(build_mesh(n_side), coeffs)
    M, K_bar, *robin = sums
    assert len(robin) == (coeffs.mu_right_top != 0.0)
    if robin:
        K_bar = K_bar + robin[0]
    for stored, csr in ((sys.M, M), (sys.K_bar, K_bar)):
        assert stored.format == "dia"
        expected = sp.dia_matrix(csr)
        assert np.array_equal(stored.offsets, expected.offsets)
        assert stored.data.tobytes() == expected.data.tobytes()
    assert sys.K.format == "dia"
    assert np.array_equal(sys.K.toarray(), (K_bar + coeffs.c * M).toarray())


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
