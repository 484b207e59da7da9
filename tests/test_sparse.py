import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fmes.sparse import BandedSolver, ConvergenceError, bandwidth, cg_solve


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(12)
    x, report = cg_solve(sp.eye(12, format="csr"), b, tol=1e-12)
    assert x == pytest.approx(b, rel=1e-12)
    assert report.iterations == 1
    assert report.converged


def test_diagonal_solve():
    n = 9
    d = np.arange(1.0, n + 1)
    x, report = cg_solve(sp.diags(d), np.ones(n), tol=1e-13)
    assert x == pytest.approx(1.0 / d, rel=1e-12)
    assert report.converged


def test_mass_solve_recovers_ones(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(sys6.M, rhs, tol=1e-12)
    assert x == pytest.approx(ones, rel=1e-9)
    assert report.converged and report.relative_residual <= 1e-12


def test_zero_rhs():
    x, report = cg_solve(sp.eye(5, format="csr"), np.zeros(5), tol=1e-10)
    assert np.all(x == 0.0)
    assert report.converged and report.iterations == 0


def test_warm_start_already_converged(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(sys6.M, rhs, tol=1e-8, x0=ones)
    assert report.iterations == 0
    assert x == pytest.approx(ones, abs=0)


def test_converged_reports_satisfy_tolerance(sys26, rng):
    for tol in (1e-6, 1e-10, 1e-12):
        rhs = rng.standard_normal(sys26.n_nodes)
        _, report = cg_solve(sys26.K, rhs, tol=tol)
        assert report.converged
        assert report.relative_residual <= tol


def test_nonconvergence_raises_with_report(sys26, rng):
    rhs = rng.standard_normal(sys26.n_nodes)
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(sys26.K, rhs, tol=1e-12, max_iter=3)
    report = exc.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 3
    assert report.relative_residual > 1e-12


def test_indefinite_operator_raises():
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.array([0.0, 1.0]), tol=1e-10)


def test_rhs_shape_validation(sys6):
    with pytest.raises(ValueError):
        cg_solve(sys6.M, np.ones(3), tol=1e-10)
    with pytest.raises(ValueError):
        cg_solve(sys6.M, np.ones(sys6.n_nodes), tol=0.0)


def test_complex_symmetric_solve(sys6, rng):
    # conjugate orthogonal CG on (K + (1 - 1j) M), a complex-symmetric
    # matrix with a positive definite Hermitian part
    A = (sys6.K + (1.0 - 1.0j) * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes)
    x, report = cg_solve(A, b, tol=1e-12)
    assert report.converged
    expected = spla.spsolve(A.tocsc(), b.astype(complex))
    assert np.abs(x - expected).max() <= 1e-9 * np.abs(expected).max()


def test_complex_indefinite_hermitian_part_raises(sys6):
    # symmetric, but the Hermitian part K - 100 M is indefinite
    A = (sys6.K - (100.0 + 1.0j) * sys6.M).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.ones(sys6.n_nodes), tol=1e-10)


def test_bandwidth_of_structured_mesh(sys6):
    # row-by-row numbering: the farthest neighbour is one row up, one right
    assert bandwidth(sys6.K + sys6.M) == sys6.mesh.n_side + 1
    assert bandwidth(sp.eye(4)) == 0


@pytest.mark.parametrize("shift", [-1.0, -1.0 + 1.0j])
def test_banded_solver_matches_spsolve(sys6, rng, shift):
    A = (0.01 * sys6.K - shift * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes) * (1.0 - 2.0j if shift.imag else 1.0)
    solver = BandedSolver(A)
    x, report = solver.solve(b, tol=1e-12)
    assert report.converged and report.relative_residual <= 1e-12
    expected = spla.spsolve(A.tocsc(), b)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
    # factored on the first solve, reused by later ones
    factor = solver._factor
    solver.solve(2.0 * b, tol=1e-12)
    assert solver._factor is factor


@pytest.mark.parametrize("shift", [100.0, 100.0 + 1.0j])
def test_banded_solver_indefinite_raises(sys6, shift):
    # K - 100 M (for a complex shift, its Hermitian part) is indefinite
    solver = BandedSolver((sys6.K - shift * sys6.M).tocsr())
    with pytest.raises(ConvergenceError, match="not positive definite"):
        solver.solve(np.ones(sys6.n_nodes), tol=1e-10)


def test_banded_solver_checks_true_residual(sys6):
    solver = BandedSolver(sys6.M)
    with pytest.raises(ConvergenceError) as exc:
        solver.solve(np.ones(sys6.n_nodes), tol=1e-30)
    assert not exc.value.report.converged
    assert 0.0 < exc.value.report.relative_residual < 1e-12


def test_compose_shifted_annihilates_fundamental_mode(sys6, pair6):
    # the shifted stiffness leaves exactly the eigensolver residual
    Kt = sys6.K_bar - pair6.lambda1_bar * sys6.M
    residual = np.linalg.norm(Kt @ pair6.phi1)
    assert residual == pytest.approx(pair6.residual, rel=1e-9)
    assert residual <= 1e-7


def test_shifted_nonnegative_after_projection(sys6, pair6, rng):
    Kt = sys6.K_bar - pair6.lambda1_bar * sys6.M
    M, phi = sys6.M, pair6.phi1
    for _ in range(100):
        v = rng.standard_normal(sys6.n_nodes)
        v = v - (phi @ (M @ v)) * phi       # project out the fundamental mode
        assert v @ (Kt @ v) >= -1e-8 * (v @ (M @ v))
