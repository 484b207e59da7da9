import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fmes import ProblemCoefficients, assemble, build_mesh, sparse
from fmes.sparse import (BandedSolver, ConvergenceError, Multigrid, bandwidth,
                         cg_solve, choose_solver, multigrid, prolongation)
from fmes.spectral import INNER_TOL


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


class _Counting:
    """A matrix that counts its products with a vector."""

    def __init__(self, A):
        self.A, self.shape, self.dtype, self.products = A, A.shape, A.dtype, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("jacobi", [True, False], ids=["jacobi", "band"])
def test_cg_work_per_iteration(sys26, rng, warm, jacobi):
    # one product with A per iteration, plus A x0 for a warm start only, and
    # no preconditioning of the residual that met the tolerance
    A = _Counting(sys26.K_bar)
    applied = []
    band = BandedSolver(sys26.K_bar)

    def precondition(r):
        applied.append(r)
        return r / sys26.K_bar.diagonal() if jacobi else band.substitute(r)

    x0 = rng.standard_normal(sys26.n_nodes) if warm else None
    rhs = sys26.M @ np.ones(sys26.n_nodes)
    _, report = cg_solve(A, rhs, tol=INNER_TOL, x0=x0,
                         precondition=precondition)
    assert report.converged and report.iterations >= 1
    assert len(applied) == report.iterations
    assert A.products == report.iterations + warm


def test_substitute_complex_rhs_on_real_factor(sys6, rng):
    # multigrid's coarsest level gets complex vectors for complex poles
    solver = BandedSolver(sys6.K_bar + sys6.M)
    re, im = rng.standard_normal((2, sys6.n_nodes))
    x = solver.substitute(re + 1j * im)
    assert np.array_equal(x.real, solver.substitute(re))
    assert np.array_equal(x.imag, solver.substitute(im))


def test_choose_solver_follows_the_budget(sys6, sys21, monkeypatch):
    direct, A, precondition = choose_solver(sys21.K_bar, sys21.mesh)
    assert isinstance(direct, BandedSolver) and precondition is None
    assert A is sys21.K_bar
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", direct.nbytes - 1)
    direct, A, precondition = choose_solver(sys21.K_bar, sys21.mesh)
    assert direct is None and isinstance(precondition, Multigrid)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    direct, A, precondition = choose_solver(sys6.K_bar, sys6.mesh)
    assert direct is None and precondition is None   # Jacobi
    assert A.format == "dia"


def _mesh_offsets(n_side):
    # row-by-row numbering: x neighbours, y neighbours, the cell diagonal
    return [-(n_side + 1), -n_side, -1, 0, 1, n_side, n_side + 1]


def test_cg_operator_is_stored_by_diagonals(sys21, monkeypatch):
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    for z in (-1.0, -1.0 + 1.0j):           # a real and a complex pole system
        A = 0.01 * sys21.K - z * sys21.M
        _, op, mg = choose_solver(A, sys21.mesh)
        assert op.format == "dia"
        assert sorted(op.offsets) == _mesh_offsets(21)
        assert abs(op - A).max() == 0.0
        # a real matrix is its V-cycle's level-0 operator, converted once
        assert (op is mg.levels[0][0]) == (z.imag == 0.0)
    # without a mesh the sparsity can be arbitrary: the format is kept
    A = sys21.K_bar.tocsc()
    assert choose_solver(A, None) == (None, A, None)


def test_multigrid_levels_are_stored_by_diagonals(rng):
    sys = assemble(build_mesh(41))
    mg = multigrid(sys.K_bar + sys.M, sys.mesh)
    assert [level[0].shape[0] for level in mg.levels] == [41 ** 2, 21 ** 2]
    for (A, _, P, R), n_side in zip(mg.levels, (41, 21)):
        assert A.format == "dia"
        assert sorted(A.offsets) == _mesh_offsets(n_side)
        assert R.format == "csr" and abs(R - P.T).max() == 0.0
    # the same V-cycle on CSR operators and the CSC transposed view P.T
    reference = copy.copy(mg)
    reference.levels = [(A.tocsr(), jacobi, P, P.T)
                        for A, jacobi, P, _ in mg.levels]
    r = rng.standard_normal(sys.n_nodes)
    expected = reference(r)
    eps = np.finfo(float).eps
    assert np.abs(mg(r) - expected).max() <= 4 * eps * np.abs(expected).max()


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


@pytest.mark.parametrize("n_side", [41, 201])
def test_prolongation_is_exact_for_nested_meshes(n_side):
    # nested P1 spaces: P^T A P is the coarse assembly, for the reaction and
    # for Robin terms on both pairs of sides
    coeffs = ProblemCoefficients(c=2.5, mu_left_bottom=3.0)
    fine = assemble(build_mesh(n_side), coeffs)
    coarse = assemble(build_mesh((n_side + 1) // 2), coeffs)
    P = prolongation(n_side)
    for name in ("M", "K_bar", "K"):
        A, B = getattr(fine, name), getattr(coarse, name)
        assert abs(P.T @ A @ P - B).max() <= 1e-13 * abs(B).max(), name


def test_multigrid_needs_a_coarsenable_mesh(sys6, sys11, sys21, sys26):
    # n_side - 1 must be even and n_side above 20 for one coarsening
    for sys in (sys6, sys11, sys26):
        assert multigrid(sys.K_bar, sys.mesh) is None
    assert multigrid(sys21.K_bar, None) is None
    assert len(multigrid(sys21.K_bar, sys21.mesh).levels) == 1


def test_vcycle_is_symmetric_positive_definite(sys21):
    # CG needs a symmetric positive definite preconditioner
    mg = multigrid(sys21.K_bar, sys21.mesh)
    B = np.column_stack([mg(e) for e in np.eye(sys21.n_nodes)])
    assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()
    assert np.linalg.eigvalsh(B).min() > 0.0
    # a complex vector gets the same real matrix
    r = np.arange(sys21.n_nodes) * (1.0 - 2.0j)
    expected = B @ r
    assert np.abs(mg(r) - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n_side", [41, 101, 201])
def test_multigrid_cg_iterations_are_mesh_independent(n_side):
    # Jacobi-scaled CG takes 518 iterations at n_side 101 and 1,041 at 201
    sys = assemble(build_mesh(n_side))
    rhs = sys.M @ np.ones(sys.n_nodes)
    _, report = cg_solve(sys.K_bar, rhs, tol=INNER_TOL,
                         precondition=multigrid(sys.K_bar, sys.mesh))
    assert report.converged and report.iterations <= 20


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
