import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fmes import ProblemCoefficients, assemble, build_mesh, sparse
from fmes.assembly import half_system
from fmes.sparse import (BandedSolver, ConvergenceError, Multigrid,
                         SolveReport, cg_solve, choose_solver, prolongation)
from fmes.schemes import OUTER_TOL, _partial_fractions, pade_coefficients
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
def test_cg_work_per_iteration(sys26, rng, monkeypatch, warm, jacobi):
    # one product with A per iteration, plus A x0 for a warm start only, and
    # no preconditioning of the residual that met the tolerance; a DIA A is
    # multiplied by the module's binding of scipy's kernel, to the same bits
    kernel, products = sparse.dia_matvec, []
    monkeypatch.setattr(sparse, "dia_matvec",
                        lambda *args: products.append(1) or kernel(*args))
    band = BandedSolver(sys26.K_bar)
    x0 = rng.standard_normal(sys26.n_nodes) if warm else None
    rhs = sys26.M @ np.ones(sys26.n_nodes)
    solutions = []
    for A in (_Counting(sys26.K_bar), sp.dia_matrix(sys26.K_bar)):
        applied = []

        def precondition(r):
            applied.append(r)
            return r / sys26.K_bar.diagonal() if jacobi else band(r)

        x, report = cg_solve(_Solver(A, precondition), rhs, INNER_TOL, x0=x0)
        assert report.iterations >= 1
        assert len(applied) == report.iterations
        counted = A.products if isinstance(A, _Counting) else len(products)
        assert counted == report.iterations + warm
        solutions.append(x)
    assert np.array_equal(*solutions)


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
    monkeypatch.undo()
    # a complex pole system is budgeted by its Hermitian part's band
    # Cholesky, (u + 1) n doubles, as a real one is: on the half, direct up
    # to n_side 160 and multigrid from 161; choosing makes no factor
    for n_side, kind in ((160, BandedSolver), (161, Multigrid)):
        half = half_system(assemble(build_mesh(n_side)))
        solver = choose_solver(0.01 * half.K - (-1.0 + 1.0j) * half.M,
                               half.mesh)
        assert isinstance(solver, kind) and solver.operator.dtype.kind == "c"
        if kind is BandedSolver:
            assert "_factor" not in vars(solver)


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
        return mg.coarsest(r).astype(r.dtype, copy=False)
    A, jacobi, P, R = mg.levels[level]
    x = jacobi * r
    x += jacobi * (r - A @ x)
    x += P @ _out_of_place_cycle(mg, R @ (r - A @ x), level + 1)
    for _ in range(2):
        x += jacobi * (r - A @ x)
    return x


def _out_of_place_multigrid(mg, r):
    """``mg(r)`` before the cycle's workspaces: a complex r by its parts; an
    r of another dtype than the levels' taken as 2^e r by ``_scaled``
    (np.ldexp), cast, cycled out of place and multiplied by 2^-e."""
    if np.iscomplexobj(r):
        return (_out_of_place_multigrid(mg, r.real)
                + 1j * _out_of_place_multigrid(mg, r.imag))
    if r.dtype == mg.dtype:
        return _out_of_place_cycle(mg, r)
    scaled, e = sparse._scaled(r)
    x = _out_of_place_cycle(mg, scaled.astype(mg.dtype))
    return np.multiply(x, 2.0 ** -e, dtype=r.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("folded", [False, True], ids=["whole", "half"])
@pytest.mark.parametrize("n_side", [53, 54])
def test_cycle_equals_the_out_of_place_multigrid(n_side, folded, dtype, rng):
    # the workspaces' direct kernels, and the entry's max(r.max(), -r.min())
    # and product by 2^e, keep every bit of the out-of-place cycle and its
    # np.ldexp entry: at unit scale, at 2^+-200 and, through the ldexp
    # fallback, for an r whose max is subnormal (2^e is not a normal float)
    sys = assemble(build_mesh(n_side))
    M, K_bar = (sparse.fold(n_side).halves(sys.M, sys.K_bar) if folded
                else (sys.M, sys.K_bar))
    mg = Multigrid(K_bar + M, n_side, dtype)
    v, w = rng.standard_normal((2, M.shape[0]))
    subnormal = np.ldexp(v, -1060)
    assert -np.frexp(np.abs(subnormal).max())[1] > 1023
    for r in (v, np.ldexp(v, 200), np.ldexp(v, -200), subnormal, v + 1j * w,
              _ldexp(v - 0.5j * w, 200), _ldexp(v + 1j * w, -1060)):
        expected = _out_of_place_multigrid(mg, r)
        assert mg(r).dtype == expected.dtype == r.dtype
        assert np.array_equal(mg(r), expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_multigrid_results_survive_the_next_call(sys28, sys31, rng, dtype):
    # every cycle reuses its level's workspace; what mg returns is fresh
    for sys in (sys28, sys31):
        mg = Multigrid(sys.K_bar + sys.M, sys.mesh.n_side, dtype)
        r1, r2 = rng.standard_normal((2, sys.n_nodes))
        x1 = mg(r1)
        kept = x1.copy()
        x2 = mg(r2)
        assert np.array_equal(x1, kept) and not np.shares_memory(x1, x2)
        assert not any(np.shares_memory(x1, a) for level in mg.work
                       for a in level)
        assert np.array_equal(mg(r1), kept)


@pytest.mark.parametrize("n_side", [53, 54])
def test_galerkin_levels_are_stored_as_todia_stores_them(n_side):
    # the same offsets in the same ascending order and the same data: the
    # order in which a DIA product sums each row
    sys = assemble(build_mesh(n_side))
    mg = Multigrid(sys.K_bar + sys.M, n_side)
    P = sparse._transfers(n_side, False)[0]
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


def _fold_matrix(fold):
    """F, the 0/1 map from node to slot, as CSC."""
    n = len(fold.slot)
    return sp.csc_matrix((np.ones(n), (np.arange(n), fold.slot)),
                         shape=(n, len(fold.rep)))


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(2, 60))
def test_fold_layout_is_the_triangle_in_paired_rows(n_side):
    fold = sparse.fold(n_side)
    ix, iy = fold.rep % n_side, fold.rep // n_side
    # a bijection onto the triangle ix >= iy ...
    assert np.all(ix >= iy)
    assert len(np.unique(fold.rep)) == len(fold.rep) == n_side * (
        n_side + 1) // 2
    assert np.array_equal(fold.slot[fold.rep], np.arange(len(fold.rep)))
    nodes = np.arange(n_side ** 2)
    mirror = nodes % n_side * n_side + nodes // n_side
    assert np.array_equal(fold.slot[mirror], fold.slot)
    # ... slot by slot: grid row k, then grid row n_side - 1 - k, by ix
    width = n_side + 1
    for k in range(n_side // 2):
        row = fold.rep[k * width:(k + 1) * width]
        assert np.array_equal(iy[k * width:(k + 1) * width],
                              [k] * (n_side - k) + [n_side - 1 - k] * (k + 1))
        assert np.all(np.diff(row[:n_side - k]) == 1)
        assert np.all(np.diff(row[n_side - k:]) == 1)
    # the folded P1 operators keep the grid's 7 diagonals and 4 seam ones
    sys = assemble(build_mesh(n_side), ProblemCoefficients(c=1.0))
    for half in fold.halves(sys.M, sys.K_bar, sys.K):
        assert len(half.offsets) <= 11


@pytest.mark.parametrize("n_side", [2, 3, 11, 12, 26])
@pytest.mark.parametrize("coeffs", [ProblemCoefficients(),
                                    ProblemCoefficients(c=2.5,
                                                        mu_left_bottom=3.0)])
def test_half_operator_is_the_csr_product(n_side, coeffs):
    # an entry of F^T A F sums at most 4 entries of A (a mirrored pair of
    # rows times one of columns); any two orders of t terms differ by at
    # most 2 gamma_(t-1) sum|terms| (Higham, 2nd ed., §4.2)
    sys = assemble(build_mesh(n_side), coeffs)
    fold = sparse.fold(n_side)
    F = _fold_matrix(fold)
    u = np.finfo(float).eps / 2
    gamma3 = 3 * u / (1 - 3 * u)
    for A, half in zip((sys.M, sys.K_bar, sys.K),
                       fold.halves(sys.M, sys.K_bar, sys.K), strict=True):
        assert half.format == "dia"
        bound = 2 * gamma3 * (F.T @ abs(A) @ F).toarray()
        assert np.all(np.abs(half.toarray() - (F.T @ A @ F).toarray())
                      <= bound)


def test_fold_refuses_an_operator_off_the_stencil(sys6):
    # node 0 coupled to node 2 lies on no diagonal of the 7-point stencil
    A = sys6.M.tolil()
    A[0, 2] = A[2, 0] = 1.0
    fold = sparse.fold(6)
    assert fold.halves(sys6.M) is not None
    assert fold.halves(sys6.M, A.tocsr()) is None


@pytest.mark.parametrize("n_side", [53, 54])
def test_folded_float64_cycle_equals_the_full_cycle(n_side, rng):
    # P_h = (P F_c)[rep] and R_h = P_h^T give the coarse half operators
    # F_c^T (P^T A P) F_c, and no mirrored pair shares an edge on any level,
    # so Jacobi's diagonal folds too: on an even r the cycles are one linear
    # map, and differ by roundoff (measured 2.1e-14 and 1.3e-14)
    sys = assemble(build_mesh(n_side))
    fold = sparse.fold(n_side)
    M, K_bar = fold.halves(sys.M, sys.K_bar)
    full, half = (Multigrid(A, n_side) for A in (sys.K_bar + sys.M,
                                                 K_bar + M))
    assert [level[0].shape[0] for level in half.levels] == [
        len(fold.rep), len(sparse.fold((n_side + 1) // 2).rep)]
    r = (full.operator @ rng.standard_normal(len(fold.rep))[fold.slot])
    x = full(r)
    x_half = half(np.bincount(fold.slot, r))            # F^T r
    assert np.abs(x_half - x[fold.rep]).max() <= 1e-12 * np.abs(x).max()


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


def test_float32_levels_take_an_r_whose_max_is_2_to_1023(sys28, rng):
    # 2^e = 2^-1024 is not a normal float, so the entry and the way back
    # take np.ldexp (2.0 ** 1024 raised OverflowError); A^-1 is small here
    mg = Multigrid(2.0 ** 40 * (sys28.K_bar + sys28.M), 28, np.float32)
    v = rng.standard_normal(sys28.n_nodes)
    r = np.ldexp(v / np.abs(v).max(), 1023)
    assert np.frexp(np.abs(r).max())[1] == 1024
    x = mg(r)
    assert np.isfinite(x).all()
    assert np.array_equal(x, np.ldexp(mg(np.ldexp(r, -1000)), 1000))


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
    # ||A||_inf from the DIA columns, padding left out: the row sums add the
    # same moduli of at most 7 entries in another order, 12 u apart at most
    norm_inf = np.abs(A.toarray()).sum(axis=1).max()
    for same in (A.tocsc(), A.todia(), padded, wide):
        solver = BandedSolver(same)
        # row-by-row numbering: the farthest neighbour is one row up, one right
        assert solver.bandwidth == sys6.mesh.n_side + 1
        assert np.array_equal(solver(b), expected)
        assert solver.norm_inf == pytest.approx(norm_inf, rel=12 * 2.0 ** -53,
                                                abs=0.0)
    assert BandedSolver(sp.eye(4)).bandwidth == 0


@pytest.mark.parametrize("shift", [-1.0, -1.0 + 1.0j])
def test_banded_solver_matches_spsolve(sys6, rng, shift):
    A = (0.01 * sys6.K - shift * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes) * (1.0 - 2.0j if shift.imag else 1.0)
    solver = BandedSolver(A)
    x, report = solver.solve(b, tol=1e-12)
    # either factor's solve is accepted by its certificate
    assert report is solver.certificate
    assert report.backward_bound <= 1e-12
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


def _normwise_backward_error(A, x, b):
    """||b - A x||_inf / (||A||_inf ||x||_inf), the residual taken in long
    double so that its own rounding stays far below the bound's; A x = b
    is exact for some A + dA with ||dA||_inf / ||A||_inf this small."""
    wide = np.clongdouble if np.iscomplexobj(A) else np.longdouble
    A = A.toarray().astype(wide)
    r = b.astype(wide) - A @ x.astype(wide)
    return float(np.abs(r).max() / (np.abs(A).sum(axis=1).max()
                                    * np.abs(x).max()))


def _dense_certificate(solver):
    """gamma_(3n+1) || |R^T| |R| ||_inf / ||A||_inf from the dense Cholesky
    factor R, or gamma_(3n+24) || |L| |U| ||_inf / ||A||_inf from the dense
    LU factors of a complex A."""
    u, n = solver.bandwidth, solver.operator.shape[0]
    if solver.is_complex:
        L, U = (np.abs(F.toarray()) for F in (solver._factor.L,
                                              solver._factor.U))
        k = (3 * n + 24) * 2.0 ** -53
    else:
        R = sum(np.diag(solver._factor[u - d, d:], d) for d in range(u + 1))
        L, U = np.abs(R).T, np.abs(R)
        k = (3 * n + 1) * 2.0 ** -53
    return (k / (1.0 - k) * (L @ U).sum(axis=1).max()
            / abs(solver.operator).sum(axis=1).max())


# log-uniform in [1e-3, 1e3], as the eigenpair property draws them
_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


# each real pole and upper complex pole of Pade (0,1), (0,2), (2,2), (1,3)
# and (0,4)
_POLES = [z for l, m in ((0, 1), (0, 2), (2, 2), (1, 3), (0, 4))
          for z, _, _ in _partial_fractions(*pade_coefficients(l, m))[1]]


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(3, 15), k_inner=_LOG_UNIFORM, k_outer=_LOG_UNIFORM,
       c=st.floats(0.0, 30.0), mu_right_top=_LOG_UNIFORM,
       mu_left_bottom=st.one_of(st.just(0.0), _LOG_UNIFORM),
       tau=st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e),
       z=st.sampled_from(_POLES))
def test_banded_certificate_bounds_the_backward_error(n_side, tau, z,
                                                      **coeffs):
    # the pole system tau K - z M, by a real pole's band Cholesky or a
    # complex pole's sparse LU: the bound holds every substitution's error,
    # and it certifies even the smallest tolerance a pole solve is asked
    # for, OUTER_TOL / (1 + |c0|) with |c0| <= 1
    sys = assemble(build_mesh(n_side), ProblemCoefficients(**coeffs))
    A = tau * sys.K - z * sys.M
    b = sys.M @ np.ones(sys.n_nodes) * (1.0 - 1.0j if z.imag else 1.0)
    solver = BandedSolver(A)
    x, report = solver.solve(b, OUTER_TOL / 2)
    assert report == SolveReport(0, None, report.backward_bound)
    assert report.backward_bound == pytest.approx(_dense_certificate(solver),
                                                  rel=1e-12, abs=0.0)
    assert (_normwise_backward_error(A, x, b) <= report.backward_bound
            <= OUTER_TOL / 2)


def _weakly_damped_pole_system(tau=1000.0, z=-1.0):
    # tau (K - lambda1 M) - z M with mu 0.01 on the right and top: lambda1
    # tau is about 20, and M 1 scaled by exp(-lambda1 tau) is its step's rhs
    sys = assemble(build_mesh(26), ProblemCoefficients(mu_right_top=0.01))
    lambda1 = 0.019938465193261062
    A = tau * (sys.K - lambda1 * sys.M) - z * sys.M
    return A, math.exp(-lambda1 * tau) * (sys.M @ np.ones(sys.n_nodes))


def test_banded_certificate_accepts_the_weakly_damped_system():
    # its relative residual, 3.6e-9, misses OUTER_TOL, while its backward
    # error, 3.3e-16, sits far below the factor's bound of 3.6e-13
    A, b = _weakly_damped_pole_system()
    solver = BandedSolver(A)
    x, report = solver.solve(b, OUTER_TOL)
    assert np.array_equal(x, solver(b))
    assert np.linalg.norm(A @ x - b) > OUTER_TOL * np.linalg.norm(b)
    assert _normwise_backward_error(A, x, b) <= 5e-16
    assert report.backward_bound == pytest.approx(3.59e-13, rel=1e-2, abs=0.0)


@pytest.mark.parametrize("tau", [0.01, 1000.0])
def test_complex_solve_is_accepted_by_its_certificate(tau):
    # Pade (0, 2)'s pole z = -1 + 1j of the weakly damped system: at tau
    # 0.01 the relative residual is 1.8e-14, at tau 1000 it is 1.8e-9 and
    # misses OUTER_TOL.  The sparse LU's certificate, 5.8e-13 and 6.3e-13,
    # accepts both and bounds the measured backward error (3.0e-16 and
    # 2.2e-16); each solve returns the substitution and the certificate
    A, b = _weakly_damped_pole_system(tau, z=-1.0 + 1.0j)
    b = (1.0 - 1.0j) * b
    solver = BandedSolver(A)
    x, report = solver.solve(b, OUTER_TOL)
    assert np.array_equal(x, solver(b))
    assert report is solver.certificate
    residual = sparse._norm(solver.operator @ x - b) / sparse._norm(b)
    assert (residual <= OUTER_TOL) == (tau < 1.0)
    assert (_normwise_backward_error(A, x, b) <= 1e-15
            <= report.backward_bound <= 1e-12)


def test_sparse_lu_certificate_refuses_a_tolerance_below_it(sys6):
    solver = BandedSolver(0.01 * sys6.K - (-1.0 + 1.0j) * sys6.M)
    eta = solver.certificate.backward_bound
    with pytest.raises(ConvergenceError,
                       match=r"^sparse LU's backward error bound "
                             r"[0-9.]+e-1[45] exceeds tol=[0-9.]+e-1[45]$"
                       ) as exc:
        solver.solve(np.ones(sys6.n_nodes) + 0j, tol=eta / 2)
    assert exc.value.report is solver.certificate


def test_banded_certificate_refuses_a_tolerance_below_it(sys6):
    solver = BandedSolver(sys6.M)
    with pytest.raises(ConvergenceError,
                       match=r"^banded Cholesky's backward error bound "
                             r"[0-9.]+e-14 exceeds tol=1e-30$") as exc:
        solver.solve(np.ones(sys6.n_nodes), tol=1e-30)
    assert exc.value.report == solver.certificate


def test_banded_solve_refuses_a_non_finite_x(sys6, monkeypatch):
    # the certificate bounds the backward error, not the size of x: an
    # overflow in the substitution is caught by the finiteness check
    solver = BandedSolver(sys6.M)
    dpbtrs = scipy.linalg.lapack.dpbtrs
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", lambda *args: (
        dpbtrs(*args)[0] * np.where(np.arange(sys6.n_nodes) == 3, np.inf, 1.0),
        0))
    with pytest.raises(ConvergenceError, match="^banded solve overflowed$"):
        solver.solve(np.ones(sys6.n_nodes), OUTER_TOL)


def test_banded_solve_accepts_a_finite_x_whose_squares_overflow():
    # 2^-768 I x = 2^254 1 on 8 nodes: ||b|| = 2^255.5 is in range and
    # certified, each x entry is 2^1022, and x^T x overflows; the solve
    # must test the entries, not refuse on x^T x
    solver = BandedSolver(sp.dia_matrix((np.full((1, 8), 2.0 ** -768), [0]),
                                        shape=(8, 8)))
    b, expected = np.full(8, 2.0 ** 254), np.full(8, 2.0 ** 1022)
    assert solver.certificate.backward_bound <= OUTER_TOL
    assert sparse._in_range(sparse._norm(b))
    assert np.vdot(expected, expected) == np.inf
    x, report = solver.solve(b, OUTER_TOL)
    assert np.array_equal(x, expected)
    assert report is solver.certificate


def test_banded_solve_takes_no_product_and_one_certificate(sys6, monkeypatch):
    # the certificate is two band products with |R| once per factor, made
    # on the first solve (a preconditioner never pays for it), and no
    # solve multiplies by A
    calls = []
    dtbmv = scipy.linalg.blas.dtbmv

    def counting(*args, **kwargs):
        calls.append(args)
        return dtbmv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dtbmv", counting)
    monkeypatch.setattr(sp.dia_matrix, "_matmul_vector",
                        lambda A, v: pytest.fail("a product with A"))
    b = np.ones(sys6.n_nodes)
    solvers = [BandedSolver(0.01 * sys6.K + sys6.M) for _ in range(2)]
    solvers[0](b)
    assert calls == []
    for solver in solvers:
        for _ in range(3):
            x, report = solver.solve(b, OUTER_TOL)
            assert report is solver.certificate
    assert len(calls) == 4


def test_band_cholesky_is_built_in_place():
    # the factor overwrites its band array: making it costs, beyond the
    # factor itself, less than the operator's DIA data (a copy of the band
    # array and the factor held apart cost 5.6 times that data)
    sys = half_system(assemble(build_mesh(60), ProblemCoefficients()))
    solver = BandedSolver(sys.M + 1e-4 * sys.K)
    tracemalloc.start()
    try:
        solver._factor
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= solver.nbytes + solver.operator.data.nbytes


def test_banded_solver_reports_lapack_failures(sys6, monkeypatch):
    # LAPACK's info != 0: an illegal argument to a substitution (info < 0)
    dpbtrs = scipy.linalg.lapack.dpbtrs
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs",
                        lambda *args: (dpbtrs(*args)[0], -2))
    b = np.ones(sys6.n_nodes)
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
    # the range rule's norm changes no in-range solve, and takes the norm of
    # 2^600 u, whose squares overflow, or of 2^-600 u, whose squares
    # underflow, as exactly 2^600 or 2^-600 times u's, with a mass matrix too
    v = rng.standard_normal(n)
    z = v + 1j * rng.standard_normal(n)
    for u in (v, 1e-100 * v, z, 1e100 * z):
        assert sparse._norm(u) == float(np.linalg.norm(u))
    off = rng.uniform(0.0, 1.0, n)
    M = sp.dia_matrix((np.array([off, 4.0 + off, np.roll(off, 1)]),
                       [-1, 0, 1]), shape=(n, n))
    for u in (v, z):
        for mass in (None, M):
            for k in (-600, 600):
                assert (sparse._norm(_ldexp(u, k), mass)
                        == np.ldexp(sparse._norm(u, mass), k))
    # a mass norm still out of range once v is scaled ends there
    tiny = sp.dia_matrix((np.full((1, n), 2.0 ** -700), [0]), shape=(n, n))
    assert sparse._norm(np.ones(n), tiny) == np.ldexp(math.sqrt(n), -350)


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
    # the shifted stiffness, formed by diagonals, leaves the eigensolver's
    # residual ||K_bar phi - lambda1_bar M phi|| up to rounding, not exactly
    # (1.61e-14 against 1.33e-14 here): either product is off the exact
    # one by at most gamma_9 (|K_bar| + lambda1_bar |M|) |phi| entrywise
    # (Higham, 2nd ed., §3.5, for the shift's two roundings and the 7-term
    # DIA rows), so the two norms differ by at most twice its norm, 5.0e-13,
    # and by their own rounding, gamma_n of each
    Kt = sys6.K_bar - pair6.lambda1_bar * sys6.M
    residual = np.linalg.norm(Kt @ pair6.phi1)
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    scale = np.linalg.norm((abs(sys6.K_bar) + pair6.lambda1_bar
                            * abs(sys6.M)) @ np.abs(pair6.phi1))
    assert abs(residual - pair6.residual) <= (
        2 * gamma(9) * scale + gamma(sys6.n_nodes) * (residual
                                                      + pair6.residual))


def test_shifted_nonnegative_after_projection(sys6, pair6, rng):
    Kt = sys6.K_bar - pair6.lambda1_bar * sys6.M
    M, phi = sys6.M, pair6.phi1
    for _ in range(100):
        v = rng.standard_normal(sys6.n_nodes)
        v = v - (phi @ (M @ v)) * phi       # project out the fundamental mode
        assert v @ (Kt @ v) >= -1e-8 * (v @ (M @ v))
