import ctypes
import threading
import tracemalloc
from dataclasses import replace
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from fmes.assembly import (FemSystem, ProblemCoefficients, assemble,
                           half_system, m_norm)
from fmes.mesh import build_mesh
from fmes import sparse, spectral
from fmes.schemes import SchemeSpec, make_stepper, pade_rational
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
    # the eigensolver's own formula for its residual: the same bits
    resid = np.linalg.norm(sys26.K_bar @ phi
                           - pair26.lambda1_bar * (sys26.M @ phi))
    assert resid == pair26.residual
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
    pair = inverse_iteration(sys11)
    lam_star = basis11.eigenvalues[0]
    errs = np.abs(np.array(pair.history) - lam_star)
    ratios = errs[2:6] / errs[1:5]
    expected = (basis11.eigenvalues[0] / basis11.eigenvalues[1]) ** 2
    assert np.all(ratios < 2.0 * expected)
    assert np.all(ratios > 0.5 * expected)


def test_every_eigensolve_takes_the_tables_sweeps(sys6):
    # the estimate settles to 1e-13 after 9 sweeps here; the floor holds it
    # to the table's 10, the sweeps that fmes eigens tabulates
    pair = inverse_iteration(sys6)
    assert spectral.MIN_SWEEPS == 10
    assert pair.iterations >= 10
    assert len(pair.history) == pair.iterations


def test_cross_validation_against_dense_oracle(sys11, basis11):
    pair = inverse_iteration(sys11)
    assert pair.lambda1_bar == pytest.approx(basis11.eigenvalues[0], rel=1e-9)


def test_eigensolve_converts_no_matrix(sys26, todia_calls):
    # the assembled matrices are DIA, the fold adds them into the half's DIA
    # data, and the half K_bar's band factor takes it as is
    inverse_iteration(sys26)
    assert todia_calls == []


@pytest.mark.parametrize("n_side", [11, 12, 26])
def test_folded_eigensolve_matches_the_unfolded_one(n_side):
    # without a mesh the same matrices are not folded; each Ritz value lies
    # within ||r||_{M^-1} of an eigenvalue (Weinstein), the fundamental one
    sys = assemble(build_mesh(n_side), ProblemCoefficients(c=1.5))
    folded, whole = inverse_iteration(sys), inverse_iteration(
        replace(sys, mesh=None))
    assert folded.iterations == whole.iterations
    assert folded.phi1.shape == whole.phi1.shape == (sys.n_nodes,)
    M = sys.M.toarray()
    bounds = []
    for pair in (folded, whole):
        r = sys.K_bar @ pair.phi1 - pair.lambda1_bar * (sys.M @ pair.phi1)
        assert np.linalg.norm(r) == pair.residual
        bounds.append(np.sqrt(r @ np.linalg.solve(M, r)))
    assert abs(folded.lambda1_bar - whole.lambda1_bar) <= sum(bounds)
    assert abs(m_norm(sys, folded.phi1) - 1.0) <= 1e-14


def test_nonconvergence_carries_history(sys26, monkeypatch):
    # at sweep 10 the Ritz residual is still falling
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 10)
    with pytest.raises(ConvergenceError, match="^inverse iteration's Ritz "
                                               "residual was still falling "
                                               "after 10 sweeps$") as exc:
        inverse_iteration(sys26)
    assert exc.value.history is not None
    assert len(exc.value.history) == 10


def test_stop_where_the_ritz_residual_stops_falling(sys26, monkeypatch):
    residuals = []

    def recording(*args):
        result = ritz(*args)
        residuals.append(result[0])
        return result

    ritz = spectral._ritz
    monkeypatch.setattr(spectral, "_ritz", recording)
    pair = inverse_iteration(sys26)
    # one Ritz pair per sweep from sweep 9 on; each halved its predecessor's
    # residual but the last, which stopped the iteration
    assert len(residuals) == pair.iterations - spectral.MIN_SWEEPS + 2
    assert all(b < a / 2 for a, b in zip(residuals[:-2], residuals[1:-1]))
    assert residuals[-1] >= residuals[-2] / 2
    assert pair.residual <= 2e-13


def test_stiff_system_reaches_its_floor():
    # the estimate's change never fell below 1e-13 lambda here, and the old
    # stop test failed the eigensolve after 50 sweeps
    sys = assemble(build_mesh(16), ProblemCoefficients(
        k_inner=741.0, k_outer=443.0, mu_right_top=0.11))
    pair = inverse_iteration(sys)
    # normwise backward error (the 300 random systems of README's note
    # reach at most 1.8e-16)
    scale = (np.linalg.norm(sys.K_bar.toarray(), 2)
             + pair.lambda1_bar * np.linalg.norm(sys.M.toarray(), 2))
    assert pair.residual <= 1e-15 * scale * np.linalg.norm(pair.phi1)


def test_inverse_iteration_takes_no_tolerance_or_cap(sys6):
    # the eigensolve chooses its own stop; the two keywords stay only for
    # callers that pass ExperimentConfig's None for them
    inverse_iteration(sys6, tol=None, max_iter=None)
    for kwargs in (dict(tol=1e-13), dict(max_iter=50)):
        with pytest.raises(TypeError, match="^inverse_iteration takes no tol "
                                            "or max_iter$"):
            inverse_iteration(sys6, **kwargs)


def test_band_preconditioned_inner_solves(sys26, monkeypatch):
    # K_bar's band factor as preconditioner: at most two CG iterations per
    # solve (Jacobi scaling took 87-127)
    iterations = []

    def recording(*args, **kwargs):
        x, report = sparse.cg_solve(*args, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(spectral, "cg_solve", recording)
    pair = inverse_iteration(sys26)
    assert len(iterations) == pair.iterations
    assert max(iterations) <= 2


def test_iterative_eigensolve_multiplies_by_diagonals(sys28, monkeypatch):
    formats = []

    def recording(solver, *args, **kwargs):
        formats.append(solver.operator.format)
        return sparse.cg_solve(solver, *args, **kwargs)

    monkeypatch.setattr(spectral, "cg_solve", recording)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    pair = inverse_iteration(sys28)
    assert formats == ["dia"] * pair.iterations


@pytest.mark.parametrize("name", ["sys26", "sys28", "sys31"])
def test_eigenpair_independent_of_solve_path(request, monkeypatch, name):
    # above the budget n_side 26 runs CG on its band factor alone (no level
    # coarsens), 28 and 31 multigrid CG on a non-nested and a nested level
    sys = request.getfixturevalue(name)
    band = inverse_iteration(sys)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    other = inverse_iteration(sys)
    assert other.iterations == band.iterations
    # Sweep k's solve is asked for a relative residual tol_k (spectral's
    # schedule).  Its estimate phi^T b / psi^T b, b = M phi, then moves by at
    # most kappa tol_k relative, kappa = ||psi|| ||b|| / psi^T b (Cauchy-
    # Schwarz; ||phi1|| ||M phi1|| at the limit), and the iterate it leaves
    # carries at most that much into every later sweep, damped by each
    # solve.  So either path is within kappa sum_{j <= k} tol_j of exact
    # arithmetic, and the two within twice that.
    h = band.history
    tols = [spectral.LOOSE_TOL] * 2 + [
        min(spectral.LOOSE_TOL, max(spectral.INNER_TOL, spectral.TOL_FACTOR
                                    * abs(h[k - 1] - h[k - 2]) / h[k - 1]))
        for k in range(2, len(h))]
    kappa = np.linalg.norm(band.phi1) * np.linalg.norm(sys.M @ band.phi1)
    assert np.all(np.abs(np.subtract(other.history, h))
                  <= 2.0 * kappa * np.cumsum(tols) * np.abs(h))
    # sweeps 8 on ask for about 1e-12 or less, and there the paths agree as
    # closely as full solves made them agree in every sweep
    assert np.allclose(other.history[7:], h[7:], rtol=1e-12, atol=0.0)
    assert other.lambda1 == pytest.approx(band.lambda1, rel=1e-12)
    assert (np.linalg.norm(other.phi1 - band.phi1)
            <= 1e-12 * np.linalg.norm(band.phi1))


def test_singular_operator_fails():
    # pure Neumann: the constants span K_bar's null space, so it is refused
    # before any solve instead of failing in one, depending on the grid
    sys = assemble(build_mesh(4),
                   ProblemCoefficients(k_inner=1.0, k_outer=1.0,
                                       mu_right_top=0.0))
    with pytest.raises(ValueError, match="^inverse iteration needs a positive "
                                         "definite K_bar, .*pure Neumann"):
        inverse_iteration(sys)


def test_indefinite_operator_fails_in_the_inner_solve():
    with pytest.raises(ConvergenceError, match="^inner solve failed at "
                                               "iteration 1") as exc:
        inverse_iteration(_scalar_system([[-5.0]], [[1.0]]))
    assert exc.value.history == []


# log-uniform in [1e-3, 1e3]: contrasts of up to 1e6 between the coefficients
_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(3, 15), k_inner=_LOG_UNIFORM,
       k_outer=_LOG_UNIFORM, c=st.floats(0.0, 30.0),
       mu_right_top=st.one_of(st.just(0.0), _LOG_UNIFORM),
       mu_left_bottom=st.one_of(st.just(0.0), _LOG_UNIFORM))
def test_eigenpair_matches_the_dense_oracle(n_side, **coeffs):
    assume(coeffs["mu_right_top"] or coeffs["mu_left_bottom"])
    sys = assemble(build_mesh(n_side), ProblemCoefficients(**coeffs))
    pair = inverse_iteration(sys)
    basis = modal_decompose(sys)
    lam = basis.eigenvalues - coeffs["c"]
    phi = basis.eigenvectors[:, 0]
    phi *= np.sign(phi @ (sys.M @ pair.phi1))
    # eigh is backward stable: its pairs are exact for a pencil within
    # about n eps ||K|| of (K, M), which moves lambda_1 by at most about
    # n eps lambda_max and its vector by that over the gap
    dense = sys.n_nodes * np.finfo(float).eps * basis.eigenvalues[-1]
    r = sys.K_bar @ pair.phi1 - pair.lambda1_bar * (sys.M @ pair.phi1)
    assert np.linalg.norm(r) == pair.residual
    r_minv = np.sqrt(r @ np.linalg.solve(sys.M.toarray(), r))
    # Weinstein: some eigenvalue lies within ||r||_{M^-1} of the Ritz value
    assert abs(pair.lambda1_bar - lam[0]) <= r_minv + dense
    # Davis-Kahan: sin angle_M(phi1, oracle) <= ||r||_{M^-1} / (lambda_2 -
    # theta), and two M-unit vectors at an angle below pi/2 lie within
    # sqrt(2) times its sine of each other
    gap = lam[1] - pair.lambda1_bar
    assert gap > 0.0
    assert (m_norm(sys, pair.phi1 - phi)
            <= np.sqrt(2.0) * r_minv / gap + dense / (lam[1] - lam[0]))


def test_fine_grid_ritz_residual():
    # the Ritz step on the last two iterates: 1.5e-12 at n_side 201, where
    # the last iterate alone left 1.8e-10
    pair = inverse_iteration(assemble(build_mesh(201)))
    assert pair.residual <= 1e-11


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


def _drawn_system(n_side, rng):
    coeffs = ProblemCoefficients(
        k_inner=rng.uniform(0.1, 20.0), k_outer=rng.uniform(0.1, 5.0),
        c=rng.uniform(0.1, 30.0), mu_right_top=rng.uniform(0.0, 20.0),
        mu_left_bottom=rng.uniform(0.1, 20.0))
    return assemble(build_mesh(n_side), coeffs)


@pytest.mark.parametrize("n_side", [11, 21])
def test_mirror_split_matches_full_eigh(n_side, rng):
    sys = _drawn_system(n_side, rng)
    basis = modal_decompose(sys)
    lam, V = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray())
    # backward-stable eigensolvers agree relative to the largest eigenvalue
    # (measured <= 6.7e-16)
    assert np.abs(basis.eigenvalues - lam).max() <= 1e-12 * lam.max()
    # the propagator V diag(f(lam)) V^T M is independent of the basis chosen
    # in a degenerate eigenspace, and of the eigenvector signs
    tau = 1e-3
    split = ((basis.eigenvectors * np.exp(-tau * basis.eigenvalues))
             @ (basis.eigenvectors.T @ sys.M))
    full = (V * np.exp(-tau * lam)) @ (V.T @ sys.M)
    assert np.abs(split - full).max() <= 1e-12


@pytest.mark.parametrize("case", ["11", "21", "no_mesh"])
def test_blocked_modal_step_matches_the_full_product(case, rng):
    if case == "no_mesh":
        A = rng.standard_normal((7, 7))
        sys = _scalar_system(A @ A.T + 7.0 * np.eye(7), np.diag(rng.uniform(
            0.5, 1.5, 7)))
    else:
        sys = _drawn_system(int(case), rng)
    basis = modal_decompose(sys)
    lam1, tau = basis.eigenvalues[0], 1e-3
    spec = SchemeSpec("pade_modal", tau=tau, n_steps=1, l=0, m=2,
                      lambda1=lam1)
    y = rng.standard_normal(sys.n_nodes)
    V = basis.eigenvectors
    f = np.exp(-lam1 * tau) * pade_rational(0, 2, (basis.eigenvalues - lam1)
                                            * tau)
    full = V @ (f * (V.T @ (sys.M @ y)))
    assert np.abs(make_stepper(spec, sys, basis=basis).step(y)
                  - full).max() <= 1e-12


@pytest.mark.parametrize("name", ["sys6", "sys11"])
def test_blocks_store_half_size_eigenvectors(request, name):
    sys = request.getfixturevalue(name)
    n_side = sys.mesh.n_side
    n_even, n_odd = n_side * (n_side + 1) // 2, n_side * (n_side - 1) // 2
    basis = modal_decompose(sys)
    assert [W.shape for _, _, W in basis.blocks] == [(n_even, n_even),
                                                    (n_odd, n_odd)]
    assert sum(W.size for _, _, W in basis.blocks) == n_even ** 2 + n_odd ** 2


def test_mirror_split_is_deterministic(sys11):
    first, second = modal_decompose(sys11), modal_decompose(sys11)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def _permutation_bases(sys):
    # the even and odd bases as permutation matrices built them before the
    # fold: columns e_d, then (e_a + e_b)/sqrt 2 by a's node order; (e_a -
    # e_b)/sqrt 2
    n = sys.n_nodes
    eye, nodes = sp.identity(n, format="csc"), np.arange(n)
    p = nodes.reshape(sys.mesh.n_side, -1).T.ravel()
    mirror, pairs, s = eye[p], p > nodes, np.sqrt(0.5)
    return [sp.hstack([eye[:, p == nodes], s * (eye + mirror)[:, pairs]],
                      format="csc"), s * (eye - mirror)[:, pairs]]


@pytest.mark.parametrize("name", ["sys6", "sys11"])
def test_assembled_system_splits_into_even_and_odd_blocks(request, name):
    sys = request.getfixturevalue(name)
    n_side = sys.mesh.n_side
    blocks = spectral._bases(sys)
    assert [Q.shape for Q in blocks] == [
        (sys.n_nodes, n_side * (n_side + 1) // 2),
        (sys.n_nodes, n_side * (n_side - 1) // 2)]
    Q = sp.hstack(blocks).toarray()
    assert np.abs(Q.T @ Q - np.eye(sys.n_nodes)).max() <= 1e-15


@pytest.mark.parametrize("n_side", [2, 3, 12, 26])
def test_fold_bases_keep_the_eigh_inputs_bit_for_bit(n_side):
    # built from the fold's maps in the permutation bases' column order, the
    # bases store the same arrays, so eigh gets the same bits
    sys = assemble(build_mesh(n_side), ProblemCoefficients(c=1.5,
                                                           mu_left_bottom=2.0))
    for Q, reference in zip(spectral._bases(sys), _permutation_bases(sys),
                            strict=True):
        assert Q.shape == reference.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(Q, name), getattr(reference, name))
        for A in (sys.K, sys.M):
            assert np.array_equal((Q.T @ A @ Q).toarray(),
                                  (reference.T @ A @ reference).toarray())


def _off_mirror_perturbed(sys):
    # node (1, 0) couples to (2, 0); the mirrored pair (0, 1)-(0, 2) keeps
    # its value, so K is no longer invariant under the swap (c = 0: K_bar = K)
    K = sys.K.tolil()
    K[1, 2] += 1e-6
    K[2, 1] += 1e-6
    K = K.tocsr()
    return replace(sys, K_bar=K, K=K)


@pytest.mark.parametrize("case", ["no_mesh", "perturbed"])
def test_one_block_equals_full_eigh_bit_for_bit(sys6, rng, case):
    if case == "no_mesh":
        A = rng.standard_normal((7, 7))
        sys = _scalar_system(A @ A.T + 7.0 * np.eye(7), np.diag(rng.uniform(
            0.5, 1.5, 7)))
    else:
        sys = _off_mirror_perturbed(sys6)
    # the perturbed system fails the fold's mirror test, so it is not folded
    assert half_system(sys) is None
    assert len(spectral._bases(sys)) == 1
    basis = modal_decompose(sys)
    lam, V = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray())
    assert np.array_equal(basis.eigenvalues, lam)
    assert np.array_equal(basis.eigenvectors, V)


@settings(max_examples=100, deadline=None)
@given(n_side=st.integers(2, 31),
       k_inner=st.floats(1e-3, 1e3), k_outer=st.floats(1e-3, 1e3),
       c=st.floats(0.0, 1e3), mu_right_top=st.floats(0.0, 1e3),
       mu_left_bottom=st.floats(0.0, 1e3))
def test_every_assembled_system_passes_the_mirror_test(n_side, **coeffs):
    # the fold, and with it the split and the half-size solves, rests on
    # assembly keeping M, K_bar and K invariant under (ix, iy) -> (iy, ix)
    sys = assemble(build_mesh(n_side), ProblemCoefficients(**coeffs))
    assert half_system(sys) is not None
    assert len(spectral._bases(sys)) == 2


@pytest.mark.parametrize("n_side, c", [(6, 0.0), (11, 0.0), (12, 0.0),
                                       (11, 2.5)])
def test_inverse_iteration_of_a_half_is_that_of_its_whole(n_side, c,
                                                          monkeypatch):
    # a half is iterated as it is, folding nothing, and its pair is the
    # whole system's bit for bit: phi1 on the whole mesh, residual on the
    # whole system
    sys = assemble(build_mesh(n_side), ProblemCoefficients(c=c))
    half = half_system(sys)
    calls = []
    halves = sparse.Fold.halves
    monkeypatch.setattr(sparse.Fold, "halves",
                        lambda *args: calls.append(1) or halves(*args))
    a, b = inverse_iteration(half), inverse_iteration(sys)
    assert len(calls) == 1                  # the whole system's own fold
    assert (a.lambda1_bar, a.lambda1, a.residual, a.iterations, a.history) \
        == (b.lambda1_bar, b.lambda1, b.residual, b.iterations, b.history)
    assert a.phi1.shape == (sys.n_nodes,)
    assert np.array_equal(a.phi1, b.phi1)


def test_dense_limit_refusal():
    # n_side 51 has 2,601 nodes, just above the 2,500-node dense limit
    with pytest.raises(ValueError, match="dense limit"):
        modal_decompose(assemble(build_mesh(51)))


def test_exact_solution_at_time_zero(sys6, basis6, rng):
    w0 = rng.standard_normal(sys6.n_nodes)
    w = exact_semidiscrete_solution(basis6, w0, 0.0)
    assert np.abs(w - w0).max() < 1e-10


@pytest.mark.parametrize("case", ["basis6", "no_mesh"])
def test_exact_solution_is_the_blocked_product_bit_for_bit(request, rng,
                                                           case):
    # coordinates then synthesize: the same operations, in the same order,
    # as one fused product per block
    if case == "no_mesh":
        A = rng.standard_normal((7, 7))
        basis = modal_decompose(_scalar_system(
            A @ A.T + 7.0 * np.eye(7), np.diag(rng.uniform(0.5, 1.5, 7))))
    else:
        basis = request.getfixturevalue(case)
    w0, t = rng.standard_normal(basis.mass.shape[0]), 0.03
    My = basis.mass @ w0
    explicit = sum(Q @ (W @ (np.exp(-lam * t) * (W.T @ (Q.T @ My))))
                   for Q, lam, W in basis.blocks)
    assert len(basis.blocks) == (1 if case == "no_mesh" else 2)
    assert np.array_equal(exact_semidiscrete_solution(basis, w0, t), explicit)


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


@pytest.mark.parametrize("n, t, match", [
    (49, 0.01, r"^w0 has shape \(49,\), expected \(36,\)"),
    (36, -1.0, "^t must be finite and nonnegative"),
    (36, float("nan"), "^t must be finite and nonnegative"),
    (36, float("inf"), "^t must be finite and nonnegative")],
    ids=["w0_of_49_nodes", "t_negative", "t_nan", "t_inf"])
def test_exact_solution_refuses_bad_input(basis6, n, t, match):
    with pytest.raises(ValueError, match=match):
        exact_semidiscrete_solution(basis6, np.ones(n), t)


# The mirror blocks at once: spectral._blockwise runs them on two threads
# while spectral._overlap() holds, and in order on the calling thread else.
# Both paths must give scipy.linalg.eigh's bits.

@pytest.fixture(scope="module")
def sys41():
    return assemble(build_mesh(41))


@pytest.fixture(params=[True, False], ids=["at_once", "in_order"])
def overlap(request, monkeypatch):
    monkeypatch.setattr(spectral, "_overlap", lambda: request.param)
    return request.param


def _reference_blocks(sys):
    return [(Q, *scipy.linalg.eigh((Q.T @ sys.K @ Q).toarray(),
                                   (Q.T @ sys.M @ Q).toarray()))
            for Q in spectral._bases(sys)]


@pytest.mark.parametrize("case", ["6", "11", "41", "unfoldable"])
def test_blocks_are_eighs_bit_for_bit(request, sys6, case, monkeypatch):
    sys = (_off_mirror_perturbed(sys6) if case == "unfoldable"
           else request.getfixturevalue(f"sys{case}"))
    expected = _reference_blocks(sys)
    assert len(expected) == (1 if case == "unfoldable" else 2)
    for at_once in (True, False):
        monkeypatch.setattr(spectral, "_overlap", lambda: at_once)
        basis = modal_decompose(sys)
        for (_, lam, W), (_, lam_eigh, W_eigh) in zip(basis.blocks, expected,
                                                      strict=True):
            assert np.array_equal(lam, lam_eigh)
            assert np.array_equal(W, W_eigh)
            assert W.flags.f_contiguous


def _eighs_error(K, M):
    with pytest.raises(Exception) as expected:
        scipy.linalg.eigh(K.toarray(), M.toarray())
    return expected.type, str(expected.value)


@pytest.mark.parametrize("case", ["nan_K", "inf_K", "indefinite_M",
                                  "folded_indefinite_M"])
def test_eigh_errors_are_eighs(sys6, case, overlap):
    if case == "folded_indefinite_M":
        # both mirror blocks fail; the even one, the first, is reported
        sys = replace(sys6, M=-sys6.M)
        assert half_system(sys) is not None
        Q = spectral._bases(sys)[0]
        K, M = Q.T @ sys.K @ Q, Q.T @ sys.M @ Q
    else:
        K = np.diag([2.0, {"nan_K": np.nan, "inf_K": np.inf}.get(case, 3.0),
                     4.0])
        M = np.diag([1.0, -1.0 if case == "indefinite_M" else 1.0, 1.0])
        sys = _scalar_system(K, M)
        K, M = sys.K, sys.M
    kind, message = _eighs_error(K, M)
    assert kind is (np.linalg.LinAlgError if "indefinite" in case
                    else ValueError)
    with pytest.raises(kind) as raised:
        modal_decompose(sys)
    assert str(raised.value) == message


def test_a_lapack_failure_is_handed_to_eigh(sys6, monkeypatch):
    # any nonzero info goes to eigh on fresh copies of the block's inputs:
    # its error is eigh's, and were eigh to succeed, its result is eigh's
    expected, real, calls = _reference_blocks(sys6), spectral._dsygvd(), []

    def failing(*args):
        real(*args)
        ctypes.c_int.from_address(args[-1]).value = -3
    monkeypatch.setattr(spectral, "_dsygvd", lambda: failing)
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *args: calls.append(1) or eigh(*args))
    basis = modal_decompose(sys6)
    assert len(calls) == 2
    for got, want in zip(basis.blocks, expected, strict=True):
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])


def test_the_lapack_call_drops_the_gil():
    # a CFUNCTYPE pointer releases the GIL for the call, a PYFUNCTYPE keeps it
    assert not spectral._dsygvd()._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_the_blocks_overlap_when_two_workers_are_allowed(sys11, basis11,
                                                         monkeypatch):
    # each block's LAPACK call waits for the other's: in order, the first
    # would wait for 5 s and raise BrokenBarrierError
    barrier, real, threads = threading.Barrier(2, timeout=5), \
        spectral._dsygvd(), []

    def meeting(*args):
        threads.append((threading.get_ident(),
                        ctypes.c_int.from_address(args[3]).value))
        barrier.wait()
        real(*args)
    monkeypatch.setattr(spectral, "_dsygvd", lambda: meeting)
    monkeypatch.setattr(spectral, "_overlap", lambda: True)
    basis = modal_decompose(sys11)
    # the calling thread takes the larger, even block (66 of 121 nodes)
    thread_of = {size: ident for ident, size in threads}
    assert thread_of[66] == threading.get_ident() != thread_of[55]
    for got, expected in zip(basis.blocks, basis11.blocks, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], expected[1:]))


@pytest.mark.parametrize("at_once, expected", [
    (True, [("make", 66, "caller"), ("make", 55, "caller"),
            ("solve", 66, "caller"), ("solve", 55, "worker")]),
    (False, [("make", 66, "caller"), ("solve", 66, "caller"),
             ("make", 55, "caller"), ("solve", 55, "caller")])],
    ids=["at_once", "in_order"])
def test_block_arrays_are_made_on_the_calling_thread(sys11, monkeypatch,
                                                     at_once, expected):
    # at once, every block's arrays are made before any block is solved (a
    # worker's allocations stay in its malloc arena); in order, each block's
    # just before its solve, so that one block's workspace is live at a time
    events, caller, eigh = [], threading.get_ident(), spectral._eigh

    def thread():
        return "caller" if threading.get_ident() == caller else "worker"

    def making(K, M):
        events.append(("make", K.shape[0], thread()))
        solve = eigh(K, M)

        def solving():
            result = solve()
            events.append(("solve", K.shape[0], thread()))
            return result
        return solving
    monkeypatch.setattr(spectral, "_eigh", making)
    monkeypatch.setattr(spectral, "_overlap", lambda: at_once)
    modal_decompose(sys11)
    assert events[:2] == expected[:2]
    if at_once:     # the worker's solve may end before the caller's
        assert sorted(events[2:]) == sorted(expected[2:])
    else:
        assert events == expected


def test_a_workers_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(spectral, "_overlap", lambda: True)

    def work(b):
        if b:
            raise ValueError("second block")
        return b
    with pytest.raises(ValueError, match="^second block$"):
        spectral._blockwise(work, [0, 1])
    assert spectral._blockwise(lambda b: 2 * b, [3, 4, 5]) == [6, 8, 10]


def test_many_blocks_at_once_keep_their_bits(rng, monkeypatch):
    # more blocks than cores, and thread switches as often as the
    # interpreter allows: each block's eigensolve keeps eigh's bits
    monkeypatch.setattr(spectral, "_overlap", lambda: True)
    pairs = []
    for n in (40, 35, 30, 25, 20, 15):
        A, B = rng.standard_normal((2, n, n))
        pairs.append((sp.csr_matrix(A @ A.T), sp.csr_matrix(B @ B.T + n *
                                                            np.eye(n))))
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        results = spectral._blockwise(lambda K, M: spectral._eigh(K, M)(),
                                      *zip(*pairs))
    finally:
        setswitchinterval(interval)
    for (lam, W), (K, M) in zip(results, pairs, strict=True):
        expected = scipy.linalg.eigh(K.toarray(), M.toarray())
        assert np.array_equal(lam, expected[0])
        assert np.array_equal(W, expected[1])


@pytest.mark.parametrize("threads, cores, expected", [
    (1, 2, True), (1, 4, True), (2, 2, False), (None, 2, False),
    (1, 1, False), (1, None, False)],
    ids=["one_thread_two_cores", "one_thread_four_cores", "two_threads",
         "unreadable_pool", "one_core", "no_affinity_call"])
def test_blocks_overlap_only_on_a_one_thread_pool_and_two_cores(
        monkeypatch, threads, cores, expected):
    class Library:
        def __init__(self, path):
            if threads is not None:
                self.scipy_openblas_get_num_threads = lambda: threads
    monkeypatch.setattr(spectral.ctypes, "CDLL", Library)
    if cores is None:       # as on macOS and Windows
        monkeypatch.delattr(spectral.os, "sched_getaffinity")
    else:
        monkeypatch.setattr(spectral.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
    assert spectral._overlap() is expected


@pytest.mark.parametrize("name", ["basis6", "basis11"])
def test_coordinates_and_synthesize_keep_their_bits(request, rng, name,
                                                    overlap):
    basis = request.getfixturevalue(name)
    My = basis.mass @ rng.standard_normal(basis.mass.shape[0])
    coords = basis.coordinates(My)
    for c, (Q, _, W) in zip(coords, basis.blocks, strict=True):
        assert np.array_equal(c, W.T @ (Q.T @ My))
    C = [rng.standard_normal((len(lam), 5)) for _, lam, _ in basis.blocks]
    assert np.array_equal(basis.synthesize(C), sum(
        Q @ (W @ c) for (Q, _, W), c in zip(basis.blocks, C)))


def test_eigenvectors_are_built_a_slab_at_a_time(sys41):
    basis = modal_decompose(sys41)
    n = sys41.n_nodes
    tracemalloc.start()
    try:
        evecs = basis.eigenvectors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n result and at most 64 columns' worth more: a slab of Q W and
    # its copy of W's columns, where the whole Q W of the even block took
    # 861 columns (11.6 MB)
    assert peak < (n * n + 64 * n) * 8
    order = np.argsort(np.concatenate([lam for _, lam, _ in basis.blocks]),
                       kind="stable")
    column, start = np.argsort(order), 0
    plain = np.empty((n, n), order="F")
    for Q, lam, W in basis.blocks:
        plain[:, column[start:start + len(lam)]] = Q @ W
        start += len(lam)
    assert np.array_equal(evecs, plain)
    assert evecs.flags.f_contiguous
