import copy
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fmes import ProblemCoefficients, assemble, build_mesh, sparse
from fmes.sparse import (BandedSolver, ConvergenceError, Multigrid,
                         SolveReport, cg_solve, choose_solver, prolongation)
from fmes.schemes import OUTER_TOL
from fmes.spectral import INNER_TOL


class _Solver:
    """A solver for ``cg_solve``: ``operator`` A and a preconditioner, by
    default diagonal scaling, a weak one that leaves CG many steps."""

    def __init__(self, A, precondition=None):
        self.operator, self.precondition = A, precondition
        self.diagonal = A.diagonal() if precondition is None else None

    def __call__(self, r):
        if self.precondition is None:
            return r / self.diagonal
        return self.precondition(r)


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(12)
    A = sp.eye(12, format="csr")
    x, report = cg_solve(_Solver(A), b, 1e-12)
    assert x == pytest.approx(b, rel=1e-12)
    assert report.iterations == 1


def test_diagonal_solve():
    n = 9
    d = np.arange(1.0, n + 1)
    A = sp.diags(d)
    x, report = cg_solve(_Solver(A), np.ones(n), 1e-13)
    assert x == pytest.approx(1.0 / d, rel=1e-12)


def test_mass_solve_recovers_ones(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(_Solver(sys6.M), rhs, 1e-12)
    assert x == pytest.approx(ones, rel=1e-9)
    assert report.relative_residual <= 1e-12


def test_zero_rhs():
    A = sp.eye(5, format="csr")
    x, report = cg_solve(_Solver(A), np.zeros(5), 1e-10)
    assert np.all(x == 0.0)
    assert report == SolveReport(0, 0.0)
    x, report = BandedSolver(A).solve(np.zeros(5), tol=1e-10)
    assert np.all(x == 0.0)
    assert report == SolveReport(0, 0.0)


def test_warm_start_already_converged(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(_Solver(sys6.M), rhs, 1e-8, x0=ones)
    assert report.iterations == 0
    assert x == pytest.approx(ones, abs=0)


def test_warm_start_worse_than_zero_is_dropped(sys26, rng):
    # ||rhs - A x0|| > ||rhs||: CG starts from zero, as without x0, and
    # only the product A x0 that found out is extra
    A = sys26.K_bar
    band = BandedSolver(A)
    rhs = sys26.M @ np.ones(sys26.n_nodes)
    cold, cold_report = cg_solve(band, rhs, INNER_TOL)
    x0 = 3.0 * band(rhs) + 0.1 * rng.standard_normal(sys26.n_nodes)
    assert np.linalg.norm(rhs - A @ x0) > np.linalg.norm(rhs)
    x, report = cg_solve(band, rhs, INNER_TOL, x0=x0)
    assert report == cold_report and np.array_equal(x, cold)


def test_converged_reports_satisfy_tolerance(sys26, rng):
    for tol in (1e-6, 1e-10, 1e-12):
        rhs = rng.standard_normal(sys26.n_nodes)
        _, report = cg_solve(_Solver(sys26.K), rhs, tol)
        assert report.relative_residual <= tol


def test_nonconvergence_raises_with_report(sys26, rng, monkeypatch):
    monkeypatch.setattr(sparse, "CG_MAX_ITER", 3)
    rhs = rng.standard_normal(sys26.n_nodes)
    with pytest.raises(ConvergenceError, match="in 3 iterations") as exc:
        cg_solve(_Solver(sys26.K), rhs, 1e-12)
    report = exc.value.report
    assert report is not None
    assert report.iterations == 3
    assert report.relative_residual > 1e-12


def test_stagnating_solve_stops_at_the_default_cap():
    # unpreconditioned CG on a spectrum spread over 12 decades stagnates
    # (its residual still exceeds ||b|| after 100,000 iterations); the cap
    # is 1000 whatever the dimension, not 20 n (here 40,000)
    assert sparse.CG_MAX_ITER == 1000
    A = sp.diags(np.geomspace(1.0, 1e12, 2000)).tocsr()
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(_Solver(A, lambda r: r), np.ones(2000), 1e-14)
    assert exc.value.report.iterations == 1000


def test_indefinite_operator_raises():
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(_Solver(A), np.array([0.0, 1.0]), 1e-10)


def test_rhs_shape_validation(sys6):
    with pytest.raises(ValueError):
        cg_solve(_Solver(sys6.M), np.ones(3), 1e-10)
    with pytest.raises(ValueError):
        cg_solve(_Solver(sys6.M), np.ones(sys6.n_nodes), 0.0)
    with pytest.raises(ValueError, match=r"^operator must be square, got "
                                         r"shape \(3, 4\)$"):
        cg_solve(_Solver(sp.csr_matrix((3, 4)), lambda r: r), np.ones(3),
                 1e-10)


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf")])
def test_cg_refuses_a_non_finite_tolerance(sys11, tol):
    # tol = nan used to end as "operator is not positive definite"
    rhs = sys11.M @ np.ones(sys11.n_nodes)
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        cg_solve(_Solver(sys11.K_bar), rhs, tol)


def test_complex_symmetric_solve(sys6, rng):
    # conjugate orthogonal CG on (K + (1 - 1j) M), a complex-symmetric
    # matrix with a positive definite Hermitian part
    A = (sys6.K + (1.0 - 1.0j) * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes)
    x, report = cg_solve(_Solver(A), b, 1e-12)
    expected = spla.spsolve(A.tocsc(), b.astype(complex))
    assert np.abs(x - expected).max() <= 1e-9 * np.abs(expected).max()


def test_complex_indefinite_hermitian_part_raises(sys6):
    # symmetric, but the Hermitian part K - 100 M is indefinite
    A = (sys6.K - (100.0 + 1.0j) * sys6.M).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(_Solver(A), np.ones(sys6.n_nodes), 1e-10)


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
        return r / sys26.K_bar.diagonal() if jacobi else band(r)

    x0 = rng.standard_normal(sys26.n_nodes) if warm else None
    rhs = sys26.M @ np.ones(sys26.n_nodes)
    _, report = cg_solve(_Solver(A, precondition), rhs, INNER_TOL, x0=x0)
    assert report.iterations >= 1
    assert len(applied) == report.iterations
    assert A.products == report.iterations + warm


def test_choose_solver_follows_the_budget(sys6, sys28, monkeypatch):
    direct = choose_solver(sys28.K_bar, sys28.mesh)
    assert isinstance(direct, BandedSolver)
    assert abs(direct.operator - sys28.K_bar).tocsr().max() == 0.0
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", direct.nbytes - 1)
    mg = choose_solver(sys28.K_bar, sys28.mesh)
    assert isinstance(mg, Multigrid) and len(mg.levels) == 1
    # a mesh that does not coarsen gets a V-cycle of one band factor
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    mg = choose_solver(sys6.K_bar, sys6.mesh)
    assert isinstance(mg, Multigrid) and mg.levels == []
    assert mg.operator.format == "dia"


def test_choose_solver_refuses_a_large_matrix_without_mesh(sys6,
                                                           monkeypatch):
    # its band factor fits: the band path, multiplying by A in DIA
    A = sys6.K_bar.tocsc()
    direct = choose_solver(A, None)
    assert isinstance(direct, BandedSolver)
    assert direct.operator.format == "dia"
    assert abs(direct.operator - A).max() == 0.0
    # above the budget it has no other path
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    with pytest.raises(ValueError, match="no mesh"):
        choose_solver(A, None)


def _mesh_offsets(n_side):
    # row-by-row numbering: x neighbours, y neighbours, the cell diagonal
    return [-(n_side + 1), -n_side, -1, 0, 1, n_side, n_side + 1]


def test_cg_operator_is_stored_by_diagonals(sys28, sys31, monkeypatch):
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    for sys in (sys28, sys31):
        for z in (-1.0, -1.0 + 1.0j):       # a real and a complex pole system
            A = 0.01 * sys.K - z * sys.M
            mg = choose_solver(A, sys.mesh)
            op = mg.operator
            assert op.format == "dia"
            assert sorted(op.offsets) == _mesh_offsets(sys.mesh.n_side)
            assert abs(op - A).tocsr().max() == 0.0
            # the V-cycle's float32 level 0 keeps the same diagonals
            level0 = mg.levels[0][0]
            assert level0.dtype == np.float32
            assert np.array_equal(level0.offsets, op.offsets)
            assert np.array_equal(level0.data, op.data.real.astype(np.float32))


def test_complex_system_is_converted_once(sys28, todia_calls, monkeypatch):
    # a pole matrix of the assembled DIA system is DIA already, so the band
    # path converts nothing and the multigrid path only its coarsest
    # Galerkin operator; the V-cycle's real level 0 is a contiguous float32
    # copy of A's real part
    A = 0.01 * sys28.K - (-1.0 + 1.0j) * sys28.M
    assert isinstance(choose_solver(A, sys28.mesh), BandedSolver)
    assert todia_calls == []
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    mg = choose_solver(A, sys28.mesh)
    assert [dtype.kind for dtype in todia_calls] == ["f"]
    level0 = mg.levels[0][0]
    assert level0.dtype == np.float32 and level0.data.flags.c_contiguous
    assert np.array_equal(level0.offsets, mg.operator.offsets)
    assert np.array_equal(level0.data,
                          mg.operator.data.real.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cocg_breakdown_raises_at_once(sys28, dtype):
    # asked for 1e-300, r^T z leaves the normal range after 182 (float64
    # levels) or 211 (float32) iterations; dividing by it overflowed, and the
    # loop ran on NaN to the 1000-iteration cap
    A = 0.01 * sys28.K - (-1.0 + 1.0j) * sys28.M
    mg = Multigrid(A, sys28.mesh.n_side, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="^CG breakdown: r\\^T z"
                           ) as err:
            cg_solve(mg, sys28.M @ np.ones(sys28.n_nodes), 1e-300)
    assert err.value.report.iterations < 1000
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("name", ["sys28", "sys31"])
def test_multigrid_splits_a_complex_vector(request, rng, name):
    # the cycle is real: a complex vector's halves go through it one by one
    sys = request.getfixturevalue(name)
    mg = Multigrid(0.01 * sys.K + (1.0 + 1.0j) * sys.M, sys.mesh.n_side)
    assert len(mg.levels) == 1
    r = rng.standard_normal(sys.n_nodes) + 1j * rng.standard_normal(
        sys.n_nodes)
    assert np.array_equal(mg(r), mg(r.real) + 1j * mg(r.imag))


def test_multigrid_levels_are_stored_by_diagonals(rng):
    for n_side in (53, 54):
        sys = assemble(build_mesh(n_side))
        mg = Multigrid(sys.K_bar + sys.M, n_side)
        assert [A.shape[0] for A, *_ in mg.levels] == [n_side ** 2, 27 ** 2]
        for (A, _, P, R), n in zip(mg.levels, (n_side, 27)):
            assert A.format == "dia"
            if n_side == 54 and n == 27:
                # the non-nested Galerkin operator couples more neighbours
                assert set(_mesh_offsets(n)) < set(A.offsets)
                assert 17 <= len(A.offsets) <= 19
            else:
                assert sorted(A.offsets) == _mesh_offsets(n)
            assert R.format == "csr" and abs(R - P.T).max() == 0.0
        # the same V-cycle on CSR operators and the CSC transposed view P.T
        reference = copy.copy(mg)
        reference.levels = [(A.tocsr(), jacobi, P, P.T)
                            for A, jacobi, P, _ in mg.levels]
        r = rng.standard_normal(sys.n_nodes)
        expected = reference(r)
        eps = np.finfo(float).eps
        assert (np.abs(mg(r) - expected).max()
                <= 4 * eps * np.abs(expected).max())


def _out_of_place_cycle(mg, r, level=0):
    """The V(2,2)-cycle with every sweep written x += jacobi * (r - A @ x)."""
    if level == len(mg.levels):
        return mg.coarsest(r)
    A, jacobi, P, R = mg.levels[level]
    x = jacobi * r
    x += jacobi * (r - A @ x)
    x += P @ _out_of_place_cycle(mg, R @ (r - A @ x), level + 1)
    for _ in range(2):
        x += jacobi * (r - A @ x)
    return x


@pytest.mark.parametrize("n_side", [53, 54])
def test_galerkin_levels_are_stored_as_todia_stores_them(n_side):
    # the same offsets in the same ascending order and the same data: the
    # order in which a DIA product sums each row
    sys = assemble(build_mesh(n_side))
    mg = Multigrid(sys.K_bar + sys.M, n_side)
    P, _ = sparse._transfers(n_side)
    product = P.T @ mg.levels[0][0].tocsr() @ P
    expected = product.todia()
    coarse = mg.levels[1][0]
    assert np.array_equal(coarse.offsets, expected.offsets)
    assert np.all(np.diff(coarse.offsets) > 0)
    assert coarse.data.shape == expected.data.shape
    assert np.array_equal(coarse.data, expected.data)


def test_transfers_are_built_once_per_grid(sys28):
    # the eigensolve's and every stepper's hierarchy share P and P^T; the
    # shared arrays are read-only
    first = Multigrid(sys28.K_bar, 28)
    second = Multigrid(sys28.K_bar + sys28.M, 28)
    assert first.levels[0][2] is second.levels[0][2]
    assert first.levels[0][3] is second.levels[0][3]
    assert not first.levels[0][2].data.flags.writeable
    assert np.array_equal(first.levels[0][2].toarray(),
                          prolongation(28).toarray())
    assert np.array_equal(first.levels[0][3].toarray(),
                          prolongation(28).T.toarray())


@pytest.mark.parametrize("n_side", [53, 54])
def test_float64_cycle_equals_the_out_of_place_cycle(n_side, rng):
    # the in-place sweeps make the same operations in the same order
    sys = assemble(build_mesh(n_side))
    mg = Multigrid(sys.K_bar + sys.M, n_side)
    r = rng.standard_normal(sys.n_nodes)
    assert np.array_equal(mg(r), _out_of_place_cycle(mg, r))


@pytest.mark.parametrize("z", [-1.0, -1.0 + 1.0j])
def test_float32_levels_keep_float64_at_the_ends(sys28, rng, z):
    A = 0.01 * sys28.K - z * sys28.M
    mg = Multigrid(A, sys28.mesh.n_side, np.float32)
    assert {a.dtype for level in mg.levels for a in level} == {
        np.dtype(np.float32)}
    assert mg.operator.dtype == np.result_type(z, float)
    assert mg.coarsest.operator.dtype == np.float64
    r = rng.standard_normal(sys28.n_nodes)
    expected = Multigrid(A, sys28.mesh.n_side)(r)
    assert mg(r).dtype == np.float64
    assert np.abs(mg(r) - expected).max() <= 1e-5 * np.abs(expected).max()
    assert mg(r + 1j * r).dtype == np.complex128
    # r is scaled by a power of 2 into float32's range (1e-60 would flush
    # to zero, 1e60 overflow), and the scale is exact
    for k in (-200, 200):
        assert np.array_equal(mg(np.ldexp(r, k)), np.ldexp(mg(r), k))


@pytest.mark.parametrize("n_side", [72, 128])
def test_float32_levels_keep_the_cg_iterations(n_side):
    # iterations with float64 / float32 levels, tol OUTER_TOL: 9/9 (real
    # pole) and 16/16 (complex) at n_side 72, 10/10 and 16/16 at 128
    sys = assemble(build_mesh(n_side))
    rhs = sys.M @ np.random.default_rng(n_side).uniform(0.5, 1.5, sys.n_nodes)
    for z in (-1.0, -1.0 + 1.0j):
        A = 0.01 * sys.K - z * sys.M
        iterations = []
        for dtype in (np.float64, np.float32):
            mg = Multigrid(A, n_side, dtype)
            x, report = cg_solve(mg, rhs, OUTER_TOL)
            residual = np.linalg.norm(mg.operator @ x - rhs)
            assert residual <= 10 * OUTER_TOL * np.linalg.norm(rhs)
            iterations.append(report.iterations)
        assert iterations[1] <= iterations[0] + 1


@pytest.mark.parametrize("shift", [-1.0, -1.0 + 1.0j])
def test_banded_solver_reads_any_sparse_format(sys6, rng, shift):
    # the band arrays are the DIA rows, whatever format A comes in; the
    # out-of-matrix slots of a diagonal are padding that LAPACK never reads
    A = (0.01 * sys6.K - shift * sys6.M).tocsr()
    padded = A.todia()
    for k, offset in enumerate(padded.offsets):
        out = (slice(offset) if offset > 0
               else slice(sys6.n_nodes + offset, None))
        padded.data[k, out] = 7.0 * shift
    # slots past the last column are padding too (sp.spdiags makes them)
    wide = sp.dia_matrix((np.pad(padded.data, ((0, 0), (0, 3)),
                                 constant_values=5.0), padded.offsets),
                         shape=A.shape)
    assert abs(padded - A).max() == abs(wide - A).max() == 0.0
    b = rng.standard_normal(sys6.n_nodes) * (1.0 - 2.0j if shift.imag else 1.0)
    expected = BandedSolver(A)(b)
    for same in (A.tocsc(), A.todia(), padded, wide):
        solver = BandedSolver(same)
        # row-by-row numbering: the farthest neighbour is one row up, one right
        assert solver.bandwidth == sys6.mesh.n_side + 1
        assert np.array_equal(solver(b), expected)
    assert BandedSolver(sp.eye(4)).bandwidth == 0


@pytest.mark.parametrize("shift", [-1.0, -1.0 + 1.0j])
def test_banded_solver_matches_spsolve(sys6, rng, shift):
    A = (0.01 * sys6.K - shift * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes) * (1.0 - 2.0j if shift.imag else 1.0)
    solver = BandedSolver(A)
    x, report = solver.solve(b, tol=1e-12)
    assert report.relative_residual <= 1e-12
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
    assert 0.0 < exc.value.report.relative_residual < 1e-12


def _weakly_damped_pole_system(tau=1000.0):
    # tau (K - lambda1 M) + M with mu 0.01 on the right and top: lambda1
    # tau is about 20, and M 1 scaled by exp(-lambda1 tau) is its step's rhs
    sys = assemble(build_mesh(26), ProblemCoefficients(mu_right_top=0.01))
    lambda1 = 0.019938465193261062
    A = tau * (sys.K - lambda1 * sys.M) + sys.M
    return A, math.exp(-lambda1 * tau) * (sys.M @ np.ones(sys.n_nodes))


def test_banded_solver_accepts_by_the_normwise_backward_error():
    A, b = _weakly_damped_pole_system()
    solver = BandedSolver(A)
    x, report = solver.solve(b, OUTER_TOL)
    assert np.array_equal(x, solver(b))
    # the relative residual misses the tolerance, the backward error, with
    # ||A||_inf for ||A||_2, meets it by far
    assert report.relative_residual > OUTER_TOL
    r = np.linalg.norm(A @ x - b)
    assert solver.norm_inf == pytest.approx(abs(A).sum(axis=1).max(),
                                            rel=1e-15)
    assert r / (solver.norm_inf * np.linalg.norm(x)
                + np.linalg.norm(b)) <= 1e-15
    assert np.linalg.norm(A.toarray(), 2) <= solver.norm_inf


def test_banded_solver_takes_no_matrix_norm_when_the_residual_passes(sys6):
    # the fast accept: one substitution, one residual product, one norm
    A, b = 0.01 * sys6.K + sys6.M, np.ones(sys6.n_nodes)
    solver = BandedSolver(A)
    x, report = solver.solve(b, OUTER_TOL)
    assert report == SolveReport(
        0, float(np.linalg.norm(A @ x - b)) / float(np.linalg.norm(b)))
    assert report.relative_residual <= OUTER_TOL
    assert "norm_inf" not in vars(solver)


def test_banded_solver_refuses_a_perturbed_substitution(monkeypatch, rng):
    # each entry of x off by 1e-6 relative: a normwise backward error of
    # about 3e-7, far above the tolerance
    A, b = _weakly_damped_pole_system()
    solver = BandedSolver(A)
    substitute = BandedSolver.__call__
    signs = rng.choice([-1.0, 1.0], size=b.size)
    monkeypatch.setattr(BandedSolver, "__call__", lambda self, r: (
        substitute(self, r) * (1.0 + 1e-6 * signs)))
    with pytest.raises(ConvergenceError,
                       match=r"^banded solve missed tol=1e-10 \(normwise "
                             r"backward error [0-9.]+e-07, relative residual"):
        solver.solve(b, OUTER_TOL)


def test_banded_solver_reports_lapack_failures(sys6, monkeypatch):
    # LAPACK's info != 0: a zero pivot in zgbtrf (info > 0), an illegal
    # argument to a substitution (info < 0)
    zgbtrf = scipy.linalg.lapack.zgbtrf
    dpbtrs = scipy.linalg.lapack.dpbtrs
    monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf",
                        lambda *args: (*zgbtrf(*args)[:2], 3))
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                        lambda *args: (dpbtrs(*args)[0], -2))
    b = np.ones(sys6.n_nodes)
    with pytest.raises(ConvergenceError,
                       match=r"^banded LU failed \(zgbtrf info=3\)$"):
        BandedSolver(0.01 * sys6.K + (1.0 + 1.0j) * sys6.M).solve(b, 1e-10)
    with pytest.raises(ValueError,
                       match=r"^band substitution failed \(info=-2\)$"):
        BandedSolver(sys6.M).solve(b, 1e-10)


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
        assert (abs(P.T @ A @ P - B).tocsr().max()
                <= 1e-13 * abs(B).tocsr().max()), name


def _barycentric_interpolation(coarse, u, points):
    """Evaluate the P1 function u on mesh ``coarse`` at ``points``, one
    triangle at a time."""
    values = np.full(len(points), np.nan)
    for tri in coarse.triangles:
        corners = coarse.nodes[tri]
        T = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        lam12 = np.linalg.solve(T, (points - corners[0]).T).T
        lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
        inside = (lam >= -1e-12).all(axis=1)
        values[inside] = lam[inside] @ u[tri]
    return values


@pytest.mark.parametrize("n_side", [4, 10, 12])
def test_prolongation_interpolates_on_non_nested_meshes(n_side, rng):
    coarse = build_mesh(n_side // 2)
    u = rng.standard_normal(coarse.n_nodes)
    expected = _barycentric_interpolation(coarse, u, build_mesh(n_side).nodes)
    assert np.abs(prolongation(n_side) @ u - expected).max() <= 1e-14


def _ldexp(v, k):
    """2^k v, exactly, for a real or a complex v."""
    if np.iscomplexobj(v):
        return np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)
    return np.ldexp(v, k)


@pytest.mark.parametrize("z", [-1.0, -1.0 + 1.0j])
def test_a_tiny_rhs_is_solved_at_unit_scale(sys28, z):
    # below ||b|| ~ 1.5e-154, ||b||^2 and r^T z underflow: both solvers
    # used to take b for zero and return x = 0
    A = 0.01 * sys28.K - z * sys28.M
    b = sys28.M @ np.ones(sys28.n_nodes)
    tiny = np.ldexp(b, -600)
    assert np.linalg.norm(tiny) == 0.0
    band = BandedSolver(A)
    mg = Multigrid(A, sys28.mesh.n_side)
    mg32 = Multigrid(A, sys28.mesh.n_side, np.float32)
    solves = (lambda b: band.solve(b, OUTER_TOL),
              lambda b: cg_solve(mg, b, OUTER_TOL),
              lambda b: cg_solve(mg32, b, OUTER_TOL))
    for solve in solves:
        x, report = solve(b)
        x_tiny, report_tiny = solve(tiny)
        assert report_tiny.iterations == report.iterations
        assert (np.abs(x_tiny * 2.0 ** 600 - x).max()
                <= 1e-12 * np.abs(x).max())
    # at 2^-490 (||b|| ~ 1e-150) CG's r^T z underflowed on float32 levels
    # and the band check's residual read 0.0; at 2^-1030 a complex b is
    # subnormal, where dividing it by max|b| overflowed.  Each is solved
    # exactly as its exact upscale is, with the same report
    for k, b_tiny in ((490, np.ldexp(b, -490)),
                      (1030, _ldexp(b * (1.0 - 0.5j), -1030))):
        for solve in solves:
            x_tiny, report_tiny = solve(b_tiny)
            x_up, report_up = solve(_ldexp(b_tiny, k))
            assert np.array_equal(x_tiny, _ldexp(x_up, -k))
            assert report_tiny == report_up


@pytest.mark.parametrize("z, w", [(-1.0, 1.0), (-1.0 + 1.0j, 1.0 - 0.5j)])
def test_a_huge_rhs_is_solved_at_unit_scale(sys28, z, w):
    # ||b|| was taken by np.linalg.norm before b was scaled, which warned
    # "overflow encountered in dot" (an error under filterwarnings = error)
    A = 0.01 * sys28.K - z * sys28.M
    b = w * (sys28.M @ np.ones(sys28.n_nodes))
    huge = 1e200 * b
    band = BandedSolver(A)
    mg = Multigrid(A, sys28.mesh.n_side)
    for solve in (lambda b: band.solve(b, OUTER_TOL),
                  lambda b: cg_solve(mg, b, OUTER_TOL)):
        x, report = solve(b)
        x_huge, report_huge = solve(huge)
        assert report_huge.iterations == report.iterations
        assert np.abs(x_huge / 1e200 - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("n", [1, 7, 676, 10201])
def test_range_norm_keeps_the_bits_of_numpys(rng, n):
    # the range rule's norm changes no in-range solve
    v = rng.standard_normal(n)
    z = v + 1j * rng.standard_normal(n)
    for u in (v, 1e-100 * v, z, 1e100 * z):
        assert sparse._norm(u) == float(np.linalg.norm(u))


@pytest.mark.parametrize("z", [-1.0, -1.0 + 1.0j])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_rhs_is_refused(sys28, z, bad):
    # an inf entry used to end CG at once with x = 0 as converged (inf <=
    # tol * inf), a nan entry in a "CG breakdown" or, on the band path, a
    # "relative residual nan"
    A = 0.01 * sys28.K - z * sys28.M
    b = (sys28.M @ np.ones(sys28.n_nodes)).astype(A.dtype)
    b[3] = bad
    band = BandedSolver(A)
    mg = Multigrid(A, sys28.mesh.n_side)
    mg32 = Multigrid(A, sys28.mesh.n_side, np.float32)
    for solve in (lambda b: band.solve(b, OUTER_TOL),
                  lambda b: cg_solve(mg, b, OUTER_TOL),
                  lambda b: cg_solve(mg32, b, OUTER_TOL)):
        with pytest.raises(ConvergenceError,
                           match="^right-hand side is not finite$"):
            solve(b)


def _out_of_place_cg(solver, b, tol):
    """CG as it read with out-of-place updates, residual tested first."""
    A = solver.operator
    x, r, p = np.zeros_like(b), b, None
    b_norm = res = float(np.linalg.norm(b))
    while res > tol * b_norm:
        z = solver(r)
        rz_next = r @ z
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        ap = A @ p
        alpha = rz / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r))
    return x


@pytest.mark.parametrize("z", [-1.0, -1.0 + 1.0j])
def test_cg_updates_in_place_bit_for_bit(sys28, z):
    A = 0.01 * sys28.K - z * sys28.M
    b = (sys28.M @ np.ones(sys28.n_nodes)).astype(A.dtype)
    for dtype in (np.float64, np.float32):
        mg = Multigrid(A, sys28.mesh.n_side, dtype)
        assert np.array_equal(cg_solve(mg, b, OUTER_TOL)[0],
                              _out_of_place_cg(mg, b, OUTER_TOL))


def test_cg_writes_into_neither_rhs_nor_the_preconditioner_output(sys28):
    # CG updates r and p in place; an identity preconditioner returns r
    # itself as z, which the first p must not alias
    A = sp.dia_matrix(sys28.M + 0.01 * sys28.K)
    b = sys28.M @ np.ones(sys28.n_nodes)
    kept = b.copy()
    x, report = cg_solve(_Solver(A, lambda r: r), b, OUTER_TOL)
    assert np.array_equal(b, kept)
    assert report.iterations > 1
    assert np.linalg.norm(A @ x - b) <= 10 * OUTER_TOL * np.linalg.norm(b)


@pytest.mark.parametrize("n_side", [128, 200])
def test_prolongation_reproduces_linear_functions(n_side):
    def linear(nodes):
        return 0.3 - 1.7 * nodes[:, 0] + 2.9 * nodes[:, 1]

    coarse = linear(build_mesh(n_side // 2).nodes)
    fine = linear(build_mesh(n_side).nodes)
    assert np.abs(prolongation(n_side) @ coarse - fine).max() <= 1e-14


def test_multigrid_coarsens_above_26_nodes_per_side():
    # ceil(n_side / 2) nodes per side a level, either parity, down to 26
    def sides(n_side):
        mg = Multigrid(sp.identity(n_side ** 2, format="csr"), n_side)
        return ([round(A.shape[0] ** 0.5) for A, *_ in mg.levels],
                round(mg.coarsest.operator.shape[0] ** 0.5))

    for n_side in (6, 11, 21, 26):
        assert sides(n_side) == ([], n_side)
    assert sides(27) == ([27], 14)
    assert sides(28) == ([28], 14)
    assert sides(41) == ([41], 21)
    assert sides(199) == ([199, 100, 50], 25)
    assert sides(200) == ([200, 100, 50], 25)
    assert sides(201) == ([201, 101, 51], 26)


def test_vcycle_is_symmetric_positive_definite(sys28, sys31):
    # CG needs a symmetric positive definite preconditioner, on non-nested
    # (28 -> 14) and nested (31 -> 16) levels alike
    for sys in (sys28, sys31):
        mg = Multigrid(sys.K_bar, sys.mesh.n_side)
        B = np.column_stack([mg(e) for e in np.eye(sys.n_nodes)])
        assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()
        assert np.linalg.eigvalsh(B).min() > 0.0
        # a complex vector gets the same real matrix
        r = np.arange(sys.n_nodes) * (1.0 - 2.0j)
        expected = B @ r
        assert np.abs(mg(r) - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n_side", [40, 41, 100, 101, 128, 200, 201, 256])
def test_multigrid_cg_iterations_are_mesh_independent(n_side):
    # 12-16 iterations at both parities; diagonal scaling (_Solver) needs
    # 518 at n_side 101 and 1,203 at 201
    sys = assemble(build_mesh(n_side))
    rhs = sys.M @ np.ones(sys.n_nodes)
    _, report = cg_solve(Multigrid(sys.K_bar, n_side), rhs, INNER_TOL)
    assert report.iterations <= 20


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
