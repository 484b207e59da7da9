import copy
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fmes import ProblemCoefficients, assemble, build_mesh, sparse
from fmes.sparse import (BandedSolver, ConvergenceError, Multigrid,
                         SolveReport, cg_solve, choose_solver, prolongation)
from fmes.schemes import OUTER_TOL
from fmes.spectral import INNER_TOL


def _scaling(A):
    """Diagonal scaling, a weak preconditioner that leaves CG many steps."""
    diagonal = A.diagonal()
    return lambda r: r / diagonal


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(12)
    A = sp.eye(12, format="csr")
    x, report = cg_solve(A, b, tol=1e-12, precondition=_scaling(A))
    assert x == pytest.approx(b, rel=1e-12)
    assert report.iterations == 1
    assert report.converged


def test_diagonal_solve():
    n = 9
    d = np.arange(1.0, n + 1)
    A = sp.diags(d)
    x, report = cg_solve(A, np.ones(n), tol=1e-13, precondition=_scaling(A))
    assert x == pytest.approx(1.0 / d, rel=1e-12)
    assert report.converged


def test_mass_solve_recovers_ones(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(sys6.M, rhs, tol=1e-12,
                         precondition=_scaling(sys6.M))
    assert x == pytest.approx(ones, rel=1e-9)
    assert report.converged and report.relative_residual <= 1e-12


def test_zero_rhs():
    A = sp.eye(5, format="csr")
    x, report = cg_solve(A, np.zeros(5), tol=1e-10, precondition=_scaling(A))
    assert np.all(x == 0.0)
    assert report.converged and report.iterations == 0
    x, report = BandedSolver(A).solve(np.zeros(5), tol=1e-10)
    assert np.all(x == 0.0)
    assert report == SolveReport(0, 0.0, True)


def test_warm_start_already_converged(sys6):
    ones = np.ones(sys6.n_nodes)
    rhs = sys6.M @ ones
    x, report = cg_solve(sys6.M, rhs, tol=1e-8, x0=ones,
                         precondition=_scaling(sys6.M))
    assert report.iterations == 0
    assert x == pytest.approx(ones, abs=0)


def test_warm_start_worse_than_zero_is_dropped(sys26, rng):
    # ||rhs - A x0|| > ||rhs||: CG starts from zero, as without x0, and
    # only the product A x0 that found out is extra
    A = sys26.K_bar
    band = BandedSolver(A)
    rhs = sys26.M @ np.ones(sys26.n_nodes)
    cold, cold_report = cg_solve(A, rhs, tol=INNER_TOL, precondition=band)
    x0 = 3.0 * band(rhs) + 0.1 * rng.standard_normal(sys26.n_nodes)
    assert np.linalg.norm(rhs - A @ x0) > np.linalg.norm(rhs)
    x, report = cg_solve(A, rhs, tol=INNER_TOL, x0=x0, precondition=band)
    assert report == cold_report and np.array_equal(x, cold)


def test_converged_reports_satisfy_tolerance(sys26, rng):
    for tol in (1e-6, 1e-10, 1e-12):
        rhs = rng.standard_normal(sys26.n_nodes)
        _, report = cg_solve(sys26.K, rhs, tol=tol,
                             precondition=_scaling(sys26.K))
        assert report.converged
        assert report.relative_residual <= tol


def test_nonconvergence_raises_with_report(sys26, rng):
    rhs = rng.standard_normal(sys26.n_nodes)
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(sys26.K, rhs, tol=1e-12, max_iter=3,
                 precondition=_scaling(sys26.K))
    report = exc.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 3
    assert report.relative_residual > 1e-12


def test_stagnating_solve_stops_at_the_default_cap():
    # unpreconditioned CG on a spectrum spread over 12 decades stagnates
    # (its residual still exceeds ||b|| after 100,000 iterations); the
    # default cap is 1000 whatever the dimension, not 20 n (here 40,000)
    A = sp.diags(np.geomspace(1.0, 1e12, 2000)).tocsr()
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(A, np.ones(2000), tol=1e-14, precondition=lambda r: r)
    assert exc.value.report.iterations == 1000
    assert not exc.value.report.converged


def test_indefinite_operator_raises():
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.array([0.0, 1.0]), tol=1e-10, precondition=_scaling(A))


def test_rhs_shape_validation(sys6):
    with pytest.raises(ValueError):
        cg_solve(sys6.M, np.ones(3), tol=1e-10, precondition=_scaling(sys6.M))
    with pytest.raises(ValueError):
        cg_solve(sys6.M, np.ones(sys6.n_nodes), tol=0.0,
                 precondition=_scaling(sys6.M))
    with pytest.raises(ValueError, match=r"^operator must be square, got "
                                         r"shape \(3, 4\)$"):
        cg_solve(sp.csr_matrix((3, 4)), np.ones(3), tol=1e-10,
                 precondition=lambda r: r)


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf")])
def test_cg_refuses_a_non_finite_tolerance(sys11, tol):
    # tol = nan used to end as "operator is not positive definite"
    rhs = sys11.M @ np.ones(sys11.n_nodes)
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        cg_solve(sys11.K_bar, rhs, tol=tol, precondition=_scaling(sys11.K_bar))


def test_complex_symmetric_solve(sys6, rng):
    # conjugate orthogonal CG on (K + (1 - 1j) M), a complex-symmetric
    # matrix with a positive definite Hermitian part
    A = (sys6.K + (1.0 - 1.0j) * sys6.M).tocsr()
    b = rng.standard_normal(sys6.n_nodes)
    x, report = cg_solve(A, b, tol=1e-12, precondition=_scaling(A))
    assert report.converged
    expected = spla.spsolve(A.tocsc(), b.astype(complex))
    assert np.abs(x - expected).max() <= 1e-9 * np.abs(expected).max()


def test_complex_indefinite_hermitian_part_raises(sys6):
    # symmetric, but the Hermitian part K - 100 M is indefinite
    A = (sys6.K - (100.0 + 1.0j) * sys6.M).tocsr()
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.ones(sys6.n_nodes), tol=1e-10,
                 precondition=_scaling(A))


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
    _, report = cg_solve(A, rhs, tol=INNER_TOL, x0=x0,
                         precondition=precondition)
    assert report.converged and report.iterations >= 1
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
            # a real matrix is its V-cycle's level-0 operator, converted once
            assert (op is mg.levels[0][0]) == (z.imag == 0.0)


def test_complex_system_is_converted_once(sys28, todia_calls, monkeypatch):
    # a pole matrix of the assembled DIA system is DIA already, so the band
    # path converts nothing and the multigrid path only its coarsest
    # Galerkin operator; the V-cycle's real level 0 is a contiguous copy of
    # A's real part
    A = 0.01 * sys28.K - (-1.0 + 1.0j) * sys28.M
    assert isinstance(choose_solver(A, sys28.mesh), BandedSolver)
    assert todia_calls == []
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    mg = choose_solver(A, sys28.mesh)
    assert [dtype.kind for dtype in todia_calls] == ["f"]
    level0 = mg.levels[0][0]
    assert level0.dtype == float and level0.data.flags.c_contiguous
    assert np.array_equal(level0.offsets, mg.operator.offsets)
    assert np.array_equal(level0.data, mg.operator.data.real)


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
            cg_solve(mg.operator, sys28.M @ np.ones(sys28.n_nodes),
                     tol=1e-300, precondition=mg)
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
            x, report = cg_solve(mg.operator, rhs, tol=OUTER_TOL,
                                 precondition=mg)
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
    # 12-16 iterations at both parities; diagonal scaling (_scaling) needs
    # 518 at n_side 101 and 1,203 at 201
    sys = assemble(build_mesh(n_side))
    rhs = sys.M @ np.ones(sys.n_nodes)
    _, report = cg_solve(sys.K_bar, rhs, tol=INNER_TOL,
                         precondition=Multigrid(sys.K_bar, n_side))
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
