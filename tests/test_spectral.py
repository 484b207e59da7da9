import numpy as np
import pytest
import scipy.sparse as sp

from fmes.assembly import FemSystem, ProblemCoefficients, assemble, m_norm
from fmes.mesh import build_mesh
from fmes.sparse import ConvergenceError
from fmes.spectral import (exact_semidiscrete_solution, inverse_iteration,
                           modal_decompose)


def _scalar_system(kbar, mass, c=0.0):
    coeffs = ProblemCoefficients(c=c)
    M = sp.csr_matrix(np.atleast_2d(np.asarray(mass, dtype=float)))
    Kb = sp.csr_matrix(np.atleast_2d(np.asarray(kbar, dtype=float)))
    return FemSystem(mesh=None, M=M, K_bar=Kb, K=(Kb + c * M).tocsr(),
                     coeffs=coeffs)


def test_scalar_system_converges_after_one_update():
    sys = _scalar_system([[5.0]], [[1.0]])
    pair = inverse_iteration(sys)
    assert pair.history[0] == pytest.approx(5.0, rel=1e-13)
    assert pair.lambda1_bar == pytest.approx(5.0, rel=1e-13)
    assert pair.phi1 == pytest.approx([1.0], rel=1e-13)


def test_reaction_shift_is_analytic():
    sys = _scalar_system([[5.0]], [[1.0]], c=2.5)
    pair = inverse_iteration(sys)
    assert pair.lambda1_bar == pytest.approx(5.0, rel=1e-13)
    assert pair.lambda1 == pytest.approx(7.5, rel=1e-13)


def test_phi1_properties(sys26, pair26):
    phi = pair26.phi1
    assert m_norm(sys26, phi) == pytest.approx(1.0, abs=1e-12)
    # sign-definite after normalization to positive maximum
    assert phi.max() > 0
    assert phi.min() * phi.max() > 0
    resid = np.linalg.norm(sys26.K_bar @ phi
                           - pair26.lambda1_bar * (sys26.M @ phi))
    assert resid == pytest.approx(pair26.residual, rel=1e-6)
    assert resid < 1e-8


def test_history_monotone_after_first_step(pair26):
    hist = pair26.history
    assert len(hist) >= 8
    assert all(a >= b - 1e-12 for a, b in zip(hist[1:], hist[2:]))


def test_history_matches_published_iteration_pattern(pair26):
    # published values for this grid: first iterate 5.48146728860 converging
    # to 4.61202748099; the unstated triangulation detail shifts low-order
    # digits, so agreement is asserted at the percent level only
    assert pair26.history[0] == pytest.approx(5.48146728860, rel=0.02)
    assert pair26.lambda1_bar == pytest.approx(4.61202748099, rel=0.01)


def test_eigenvalue_error_contraction_rate(sys11, basis11):
    # eigenvalue estimates contract like (lam1/lam2)^2 per iteration (the
    # eigenvector error contracts like lam1/lam2 and the estimate is
    # quadratic in it)
    pair = inverse_iteration(sys11, min_iter=10)
    lam_star = basis11.eigenvalues[0]
    errs = np.abs(np.array(pair.history) - lam_star)
    ratios = errs[2:6] / errs[1:5]
    expected = (basis11.eigenvalues[0] / basis11.eigenvalues[1]) ** 2
    assert np.all(ratios < 2.0 * expected)
    assert np.all(ratios > 0.5 * expected)


def test_min_iter_extends_history(sys6):
    pair = inverse_iteration(sys6, min_iter=10)
    assert pair.iterations >= 10
    assert len(pair.history) == pair.iterations


def test_cross_validation_against_dense_oracle(sys11, basis11):
    pair = inverse_iteration(sys11)
    assert pair.lambda1_bar == pytest.approx(basis11.eigenvalues[0], rel=1e-9)


def test_nonconvergence_carries_history(sys26):
    with pytest.raises(ConvergenceError) as exc:
        inverse_iteration(sys26, tol=1e-16, max_iter=3)
    assert exc.value.history is not None
    assert len(exc.value.history) == 3


def test_singular_operator_fails():
    sys = assemble(build_mesh(4),
                   ProblemCoefficients(k_inner=1.0, k_outer=1.0,
                                       mu_right_top=0.0))
    with pytest.raises(ConvergenceError):
        inverse_iteration(sys)


def test_modal_scalar_case():
    basis = modal_decompose(_scalar_system([[3.0]], [[1.0]]))
    assert basis.eigenvalues == pytest.approx([3.0], abs=1e-14)
    assert abs(basis.eigenvectors[0, 0]) == pytest.approx(1.0, rel=1e-14)


def test_modal_two_by_two_diagonal():
    basis = modal_decompose(_scalar_system(np.diag([1.0, 2.0]), np.eye(2)))
    assert basis.eigenvalues == pytest.approx([1.0, 2.0], abs=1e-14)
    assert np.abs(basis.eigenvectors) == pytest.approx(np.eye(2), abs=1e-14)


def test_modal_orthonormality_and_residual(sys11, basis11):
    V, lam = basis11.eigenvectors, basis11.eigenvalues
    gram = V.T @ (sys11.M @ V)
    assert np.abs(gram - np.eye(len(lam))).max() < 1e-10
    resid = sys11.K @ V - (sys11.M @ V) * lam
    assert np.abs(resid).max() < 1e-8
    assert np.all(np.diff(lam) >= 0)


def test_modal_reconstruction(sys11, basis11, rng):
    y = rng.standard_normal(sys11.n_nodes)
    coeffs = basis11.eigenvectors.T @ (sys11.M @ y)
    ricochet = basis11.eigenvectors @ coeffs
    assert np.linalg.norm(ricochet - y) <= 1e-9 * np.linalg.norm(y)


def test_dense_limit_refusal():
    # n_side 51 has 2,601 nodes, just above the 2,500-node dense limit
    with pytest.raises(ValueError, match="dense limit"):
        modal_decompose(assemble(build_mesh(51)))


def test_exact_solution_at_time_zero(sys6, basis6, rng):
    w0 = rng.standard_normal(sys6.n_nodes)
    w = exact_semidiscrete_solution(basis6, w0, 0.0)
    assert np.abs(w - w0).max() < 1e-10


def test_exact_solution_single_mode(sys6, basis6, pair6):
    # pair6.phi1 carries ~1e-8 of higher modes (eigenvalue-based stopping),
    # which bounds the agreement here
    t = 0.05
    w = exact_semidiscrete_solution(basis6, pair6.phi1, t)
    expected = np.exp(-pair6.lambda1 * t) * pair6.phi1
    assert w == pytest.approx(expected, abs=1e-7)


def test_exact_solution_decay_bound(sys6, basis6, rng):
    w0 = rng.standard_normal(sys6.n_nodes)
    lam1 = basis6.eigenvalues[0]
    n0 = m_norm(sys6, w0)
    for t in (0.01, 0.05, 0.1):
        wt = exact_semidiscrete_solution(basis6, w0, t)
        assert m_norm(sys6, wt) <= np.exp(-lam1 * t) * n0 * (1 + 1e-12)
