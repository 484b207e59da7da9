import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fmes import assemble, build_mesh, schemes, sparse
from fmes.assembly import FemSystem, ProblemCoefficients, m_inner, m_norm
from fmes.schemes import (SchemeSpec, _partial_fractions, amplification_factor,
                          fmes_weight, make_stepper, pade_coefficients,
                          pade_rational, run_scheme)
from fmes.sparse import BandedSolver, ConvergenceError, Multigrid
from fmes.spectral import exact_semidiscrete_solution, inverse_iteration


def _scalar_system(k, mass=1.0):
    M = sp.csr_matrix(np.array([[mass]]))
    K = sp.csr_matrix(np.array([[k]]))
    return FemSystem(mesh=None, M=M, K_bar=K, K=K,
                     coeffs=ProblemCoefficients())


def _generic_state(sys, rng):
    return np.ones(sys.n_nodes) + 0.1 * rng.standard_normal(sys.n_nodes)


def _step(sys, kind, tau, y, basis=None, **params):
    spec = SchemeSpec(kind, tau=tau, n_steps=1, **params)
    return make_stepper(spec, sys, basis=basis).step(y)


# ---------------------------------------------------------------------------
# SchemeSpec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec("nonsense", tau=0.1, n_steps=1)
    with pytest.raises(ValueError):
        SchemeSpec("theta_standard", tau=-0.1, n_steps=1, sigma=1.0)
    with pytest.raises(ValueError, match="^n_steps must be nonnegative$"):
        SchemeSpec("theta_standard", tau=0.1, n_steps=-1, sigma=1.0)
    with pytest.raises(ValueError):
        SchemeSpec("theta_standard", tau=0.1, n_steps=1, sigma=0.0)
    with pytest.raises(ValueError):
        SchemeSpec("theta_standard", tau=0.1, n_steps=1, sigma=1.5)
    with pytest.raises(ValueError):
        SchemeSpec("theta_fmes", tau=0.1, n_steps=1, sigma=1.0)  # no lambda1
    with pytest.raises(ValueError):
        SchemeSpec("pade_fmes", tau=0.1, n_steps=1, l=0, m=0, lambda1=1.0)
    spec = SchemeSpec("pade_modal", tau=0.1, n_steps=2, l=0, m=3, lambda1=1.0)
    assert spec.params_label() == "l0m3"


@pytest.mark.parametrize("kind, params", [
    ("theta_standard", dict(sigma=1.0, l=3)),
    ("theta_fmes", dict(sigma=1.0, m=1)),
    ("pade_fmes", dict(l=0, m=1, sigma=0.7)),
    ("pade_modal", dict(l=1, m=2, sigma=1.0)),
])
def test_spec_refuses_parameters_its_kind_does_not_read(kind, params):
    with pytest.raises(ValueError, match="takes no"):
        SchemeSpec(kind, tau=0.1, n_steps=1, lambda1=1.0, **params)


@pytest.mark.parametrize("l, m", [(1.5, 2), (-1, 2), (0, 0), (None, 2),
                                  (0, None)])
def test_spec_refuses_indices_pade_coefficients_refuses(l, m):
    # l = 1.5 used to pass the spec and fail only in make_stepper
    with pytest.raises(ValueError):
        pade_coefficients(l, m)
    with pytest.raises(ValueError):
        SchemeSpec("pade_modal", tau=0.1, n_steps=1, l=l, m=m, lambda1=1.0)


@pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf")])
def test_spec_refuses_non_finite_step(tau):
    with pytest.raises(ValueError, match="tau"):
        SchemeSpec("theta_standard", tau=tau, n_steps=1, sigma=1.0)


@pytest.mark.parametrize("lambda1", [float("nan"), float("inf"),
                                     float("-inf")])
@pytest.mark.parametrize("kind, params", [
    ("theta_standard", dict(sigma=1.0)),
    ("theta_fmes", dict(sigma=1.0)),
    ("pade_fmes", dict(l=0, m=2)),
    ("pade_modal", dict(l=0, m=2)),
])
def test_spec_refuses_non_finite_lambda1(kind, params, lambda1):
    # it used to reach LAPACK, whose error does not name lambda1
    with pytest.raises(ValueError, match="^lambda1 must be finite"):
        SchemeSpec(kind, tau=0.1, n_steps=1, lambda1=lambda1, **params)


def test_sparse_pade_rejects_general_indices():
    for l, m in ((0, 5), (3, 5)):
        with pytest.raises(ValueError, match="modal"):
            SchemeSpec("pade_fmes", tau=0.1, n_steps=1, l=l, m=m, lambda1=1.0)


@pytest.mark.parametrize("kind", ["pade_fmes", "pade_modal"])
@pytest.mark.parametrize("l, m", [(1, 0), (2, 0), (2, 1), (6, 5)])
def test_pade_rejects_l_above_m(kind, l, m):
    # R_lm with l > m is unbounded at infinity: stiff modes would blow up
    with pytest.raises(ValueError, match="unbounded"):
        SchemeSpec(kind, tau=0.1, n_steps=1, l=l, m=m, lambda1=1.0)


@pytest.mark.parametrize("kind", ["theta_standard", "theta_fmes"])
def test_tiny_theta_weight_refused(kind):
    # below 1/2 the weighted scheme is only conditionally stable
    for sigma in (0.49, 1e-5, 1e-6, 1e-160):
        with pytest.raises(ValueError, match="sigma >= 0.5"):
            SchemeSpec(kind, tau=0.01, n_steps=1, sigma=sigma, lambda1=1.0)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "cg"])
def test_smallest_theta_weight_steps(sys6, basis6, rng, monkeypatch, direct):
    sigma, tau = 0.5, 0.01
    if not direct:
        monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    y = _generic_state(sys6, rng)
    stepped = _step(sys6, "theta_standard", tau, y, sigma=sigma)
    mult = np.array([amplification_factor(sigma, lam * tau)
                     for lam in basis6.eigenvalues])
    V = basis6.eigenvectors
    oracle = V @ (mult * (V.T @ (sys6.M @ y)))
    assert m_norm(sys6, stepped - oracle) <= 1e-9 * m_norm(sys6, oracle)


# P/Q pairs the sparse stepper admits: every Pade index l <= m <= 4 and the
# theta scheme's P = 1 - (1 - sigma) z, Q = 1 + sigma z.  SchemeSpec admits
# only sigma >= 1/2, but the splitter itself holds far below that: sigma is
# drawn from [1e-150, 1], since below ~1e-154 the residue 1/sigma^2 overflows.
_RATIONALS = st.one_of(
    st.sampled_from([(l, m) for m in range(1, 5) for l in range(m + 1)]).map(
        lambda lm: pade_coefficients(*lm)),
    st.floats(1e-150, 1.0).map(
        lambda sigma: (np.array([1.0, -(1.0 - sigma)]), np.array([1.0, sigma]))))


@settings(max_examples=300, deadline=None)
@given(pq=_RATIONALS, z=st.floats(0.0, 1e3))
def test_partial_fractions_match_rational(pq, z):
    p, q = pq
    c0, terms = _partial_fractions(p, q)
    split = c0 + sum(w * (r / (z - zj)).real for zj, r, w in terms)
    direct = np.polyval(p[::-1], z) / np.polyval(q[::-1], z)
    # the c0 term cancels against the pole terms, as in the stepper's tol
    assert abs(split - direct) <= 1e-11 * (1.0 + abs(c0))


# ---------------------------------------------------------------------------
# standard theta scheme
# ---------------------------------------------------------------------------

def test_zero_stiffness_is_identity(rng):
    M = sp.csr_matrix(np.diag([2.0, 3.0]))
    zero = sp.csr_matrix((2, 2))
    sys = FemSystem(mesh=None, M=M, K_bar=zero, K=zero,
                    coeffs=ProblemCoefficients())
    y = rng.standard_normal(2)
    stepped = _step(sys, "theta_standard", 0.3, y, sigma=1.0)
    assert stepped == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1.0])
def test_scalar_reduction_to_amplification_factor(sigma):
    lam, tau = 4.0, 0.07
    sys = _scalar_system(lam)
    y1 = _step(sys, "theta_standard", tau, np.array([1.0]), sigma=sigma)
    assert y1[0] == pytest.approx(amplification_factor(sigma, lam * tau),
                                  rel=1e-12)


def test_standard_step_matches_modal_multipliers(sys6, basis6, rng):
    sigma, tau = 0.7, 0.01
    y = _generic_state(sys6, rng)
    stepped = _step(sys6, "theta_standard", tau, y, sigma=sigma)
    mult = np.array([amplification_factor(sigma, lam * tau)
                     for lam in basis6.eigenvalues])
    coeffs = basis6.eigenvectors.T @ (sys6.M @ y)
    oracle = basis6.eigenvectors @ (mult * coeffs)
    assert m_norm(sys6, stepped - oracle) < 1e-9


# ---------------------------------------------------------------------------
# shifted (fundamental-mode-exact) theta scheme
# ---------------------------------------------------------------------------

def test_fmes_step_on_fundamental_mode(sys6, pair6):
    tau = 0.02
    stepped = _step(sys6, "theta_fmes", tau, pair6.phi1, sigma=1.0,
                    lambda1=pair6.lambda1)
    expected = math.exp(-pair6.lambda1 * tau) * pair6.phi1
    assert m_norm(sys6, stepped - expected) < 1e-9


def test_fmes_scalar_single_mode_exact():
    lam, tau = 3.0, 0.1
    sys = _scalar_system(lam)
    y1 = _step(sys, "theta_fmes", tau, np.array([1.0]), sigma=1.0,
               lambda1=lam)
    assert y1[0] == math.exp(-lam * tau)


def test_fmes_amplitude_condition_random_state(sys6, pair6, rng):
    # (y', phi1)_M = exp(-lam1 tau) (y, phi1)_M for every FMES step kind
    tau = 0.01
    y = _generic_state(sys6, rng)
    a0 = m_inner(sys6, y, pair6.phi1)
    lam1 = pair6.lambda1
    steps = [
        _step(sys6, "theta_fmes", tau, y, sigma=1.0, lambda1=lam1),
        _step(sys6, "theta_fmes", tau, y, sigma=0.5, lambda1=lam1),
        _step(sys6, "pade_fmes", tau, y, l=0, m=1, lambda1=lam1),
        _step(sys6, "pade_fmes", tau, y, l=1, m=1, lambda1=lam1),
        _step(sys6, "pade_fmes", tau, y, l=0, m=2, lambda1=lam1),
    ]
    for stepped in steps:
        a1 = m_inner(sys6, stepped, pair6.phi1)
        assert abs(a1 - math.exp(-lam1 * tau) * a0) < 1e-9


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
def test_stability_bound(sys11, pair11, sigma, rng):
    # exp(lam1 t) ||y^n||_M never increases for sigma >= 1/2
    spec = SchemeSpec("theta_fmes", tau=0.005, n_steps=20, sigma=sigma,
                      lambda1=pair11.lambda1)
    for _ in range(3):
        w0 = rng.standard_normal(sys11.n_nodes)
        traj = run_scheme(spec, sys11, w0)
        weighted = traj.m_norms * np.exp(pair11.lambda1 * traj.times)
        assert np.all(np.diff(weighted) <= 1e-12 * weighted[:-1])


def test_no_constant_weight_reproduces_the_exponential():
    # a single sigma cannot satisfy r(sigma, eta) = exp(-eta) across eta:
    # the exact weight varies with eta, and every fixed sigma misses at
    # some eta by a finite margin
    etas = np.array([0.25, 0.5, 1.0, 2.0])
    for sigma in np.linspace(0.05, 1.0, 39):
        gaps = [abs(amplification_factor(sigma, eta) - math.exp(-eta))
                for eta in etas]
        assert max(gaps) > 1e-3
    weights = [fmes_weight(e) for e in etas]
    assert max(weights) - min(weights) > 0.05


# ---------------------------------------------------------------------------
# Pade steppers
# ---------------------------------------------------------------------------

def test_pade_reductions_to_theta(sys6, pair6, rng):
    tau = 0.01
    y = _generic_state(sys6, rng)
    lam1 = pair6.lambda1
    d01 = _step(sys6, "pade_fmes", tau, y, l=0, m=1, lambda1=lam1) \
        - _step(sys6, "theta_fmes", tau, y, sigma=1.0, lambda1=lam1)
    d11 = _step(sys6, "pade_fmes", tau, y, l=1, m=1, lambda1=lam1) \
        - _step(sys6, "theta_fmes", tau, y, sigma=0.5, lambda1=lam1)
    assert np.abs(d01).max() < 1e-12
    assert np.abs(d11).max() < 1e-12


def test_pade_02_annihilates_shifted_fundamental(sys6, pair6):
    tau = 0.02
    stepped = _step(sys6, "pade_fmes", tau, pair6.phi1, l=0, m=2,
                    lambda1=pair6.lambda1)
    expected = math.exp(-pair6.lambda1 * tau) * pair6.phi1
    assert m_norm(sys6, stepped - expected) < 1e-9


@pytest.mark.parametrize("l, m", [(l, m) for m in range(1, 5)
                                  for l in range(m + 1)])
def test_pade_02_matches_modal_oracle(sys6, basis6, pair6, rng, l, m):
    # every sparse index agrees with the modal oracle, not only (0, 2)
    tau = 0.01
    y = _generic_state(sys6, rng)
    params = dict(l=l, m=m, lambda1=pair6.lambda1)
    sparse_step = _step(sys6, "pade_fmes", tau, y, **params)
    modal_step = _step(None, "pade_modal", tau, y, basis=basis6, **params)
    assert m_norm(sys6, sparse_step - modal_step) < 1e-8


def test_modal_multipliers_sm_property(basis11, pair11):
    # the (0, m) family keeps multipliers positive and decreasing in lambda;
    # the (1, 1) multiplier goes negative beyond shifted eta = 2
    tau = 0.01
    lam1 = pair11.lambda1
    e = np.zeros(basis11.eigenvalues.size)
    for m in (1, 2, 3):
        y = basis11.eigenvectors @ np.ones_like(e)   # equal modal content
        stepped = _step(None, "pade_modal", tau, y, basis=basis11, l=0, m=m,
                        lambda1=lam1)
        mult = basis11.eigenvectors.T @ (basis11.mass @ stepped)
        assert np.all(mult > 0)
        assert np.all(np.diff(mult) < 1e-15)
    lam_max = basis11.eigenvalues[-1]
    tau_big = 3.0 / (lam_max - lam1)
    y = basis11.eigenvectors @ np.ones_like(e)
    stepped = _step(None, "pade_modal", tau_big, y, basis=basis11, l=1, m=1,
                    lambda1=lam1)
    mult = basis11.eigenvectors.T @ (basis11.mass @ stepped)
    assert mult.min() < 0


def test_pade_order_slopes_float_measurable():
    # log-log slope of |R - exp| equals l+m+1 for the pairs whose error is
    # far above double rounding on this z range
    zs = np.logspace(-3, -1, 9)
    for l, m in ((0, 1), (0, 2)):
        errs = np.abs(pade_rational(l, m, zs) - np.exp(-zs))
        slope = np.polyfit(np.log(zs), np.log(errs), 1)[0]
        assert slope == pytest.approx(l + m + 1, abs=0.1)


# ---------------------------------------------------------------------------
# run_scheme
# ---------------------------------------------------------------------------

def test_zero_steps_trajectory(sys6):
    w0 = np.ones(sys6.n_nodes)
    spec = SchemeSpec("theta_standard", tau=0.1, n_steps=0, sigma=1.0)
    traj = run_scheme(spec, sys6, w0)
    assert list(traj.vectors) == [0]
    assert traj.vector_at(0) == pytest.approx(w0, abs=0)
    assert traj.times == pytest.approx([0.0])


def test_fmes_run_on_pure_mode(sys6, pair6):
    T, N = 0.1, 10
    spec = SchemeSpec("theta_fmes", tau=T / N, n_steps=N, sigma=1.0,
                      lambda1=pair6.lambda1)
    traj = run_scheme(spec, sys6, pair6.phi1, phi1=pair6.phi1)
    expected = math.exp(-pair6.lambda1 * T) * pair6.phi1
    assert m_norm(sys6, traj.final - expected) < 1e-8
    decay = traj.amplitudes[0] * np.exp(-pair6.lambda1 * traj.times)
    assert np.abs(traj.amplitudes - decay).max() < 1e-8


def test_standard_scheme_first_order_convergence(sys6, basis6):
    # Richardson ratio ~2 against the exact semi-discrete solution
    T = 0.1
    w0 = np.ones(sys6.n_nodes)
    exact = exact_semidiscrete_solution(basis6, w0, T)
    errs = []
    for N in (10, 20):
        spec = SchemeSpec("theta_standard", tau=T / N, n_steps=N, sigma=1.0)
        traj = run_scheme(spec, sys6, w0)
        errs.append(m_norm(sys6, traj.final - exact))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_store_levels_subset(sys6, pair6):
    spec = SchemeSpec("theta_fmes", tau=0.01, n_steps=6, sigma=1.0,
                      lambda1=pair6.lambda1)
    w0 = np.ones(sys6.n_nodes)
    traj = run_scheme(spec, sys6, w0, store_levels=(3,))
    assert sorted(traj.vectors) == [0, 3, 6]
    with pytest.raises(KeyError):
        traj.vector_at(2)
    assert traj.m_norms.shape == (7,)


def test_step_failure_reports_level(sys6):
    # an absurd shift makes the implicit operator indefinite, so CG fails
    spec = SchemeSpec("theta_fmes", tau=0.01, n_steps=3, sigma=0.5,
                      lambda1=1e4)
    with pytest.raises(ConvergenceError, match="level 1"):
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))


def test_complex_pole_definiteness_guard(sys6):
    # the (0, 2) pole pair -1 +- i: the Hermitian part tau (K - 1e4 M) + M
    # is indefinite, which the direct path's Cholesky check refuses
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=3, l=0, m=2,
                      lambda1=1e4)
    with pytest.raises(ConvergenceError, match="level 1"):
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))


_SPARSE_SPECS = ([("theta_standard", dict(sigma=s)) for s in (0.5, 1.0)]
                 + [("theta_fmes", dict(sigma=s)) for s in (0.5, 1.0)]
                 + [("pade_fmes", dict(l=l, m=m)) for m in range(1, 5)
                    for l in range(m + 1)])


@pytest.mark.parametrize("kind, params", _SPARSE_SPECS)
def test_direct_and_cg_paths_agree(sys6, pair6, rng, monkeypatch, kind,
                                   params):
    # at the default OUTER_TOL, CG's own step error reaches 1.3e-9 at (3, 4)
    # while the direct step stays within 1e-12 of the modal oracle, so both
    # paths solve to 1e-12 here and the comparison shows they solve one system
    monkeypatch.setattr(schemes, "OUTER_TOL", 1e-12)
    lam1 = None if kind == "theta_standard" else pair6.lambda1
    spec = SchemeSpec(kind, tau=0.01, n_steps=1, lambda1=lam1, **params)
    y = _generic_state(sys6, rng)
    direct = make_stepper(spec, sys6)
    assert all(isinstance(solver, BandedSolver)
               for *_, solver in direct.poles)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    cg = make_stepper(spec, sys6)
    # n_side 6 does not coarsen: CG preconditioned by Re(A)'s band factor
    assert all(isinstance(solver, Multigrid) and not solver.levels
               for *_, solver in cg.poles)
    assert m_norm(sys6, direct.step(y) - cg.step(y)) < 1e-9


@pytest.mark.parametrize("kind, params",
                         _SPARSE_SPECS + [("pade_modal", dict(l=1, m=2))])
def test_run_scheme_reuses_mass_product(sys6, pair6, basis6, rng, kind,
                                        params):
    # run_scheme hands each step the M y it recorded; the trajectory must be
    # exactly that of bare .step(y) calls
    lam1 = None if kind == "theta_standard" else pair6.lambda1
    spec = SchemeSpec(kind, tau=0.01, n_steps=4, lambda1=lam1, **params)
    y = _generic_state(sys6, rng)
    traj = run_scheme(spec, sys6, y, basis=basis6)
    stepper = make_stepper(spec, sys6, basis=basis6)
    for level in range(1, spec.n_steps + 1):
        y = stepper.step(y)
        assert np.array_equal(traj.vector_at(level), y)


@pytest.fixture(scope="module")
def pair28(sys28):
    return inverse_iteration(sys28)


@pytest.mark.parametrize("kind, params", _SPARSE_SPECS)
def test_direct_and_multigrid_paths_agree(sys28, pair28, rng, monkeypatch,
                                          kind, params):
    # n_side 28 coarsens once, to a mesh it is not nested in; without the
    # band path every pole system, complex ones included, runs
    # multigrid-preconditioned CG
    lam1 = None if kind == "theta_standard" else pair28.lambda1
    spec = SchemeSpec(kind, tau=0.01, n_steps=1, lambda1=lam1, **params)
    y = _generic_state(sys28, rng)
    direct = make_stepper(spec, sys28)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    iterative = make_stepper(spec, sys28)
    assert all(isinstance(solver, Multigrid) and len(solver.levels) == 1
               and solver.operator.format == "dia"
               for *_, solver in iterative.poles)
    error = m_norm(sys28, direct.step(y) - iterative.step(y))
    assert error <= 1e-9 * m_norm(sys28, y)


def test_only_pole_systems_get_float32_levels(sys28, monkeypatch):
    # the eigensolve keeps float64 V-cycle levels: its stop test sits on
    # roundoff noise, so a float32 cycle could change its sweep count
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    built = []

    class Recording(Multigrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append({a.dtype for level in self.levels for a in level})

    monkeypatch.setattr(sparse, "Multigrid", Recording)
    lambda1 = inverse_iteration(sys28).lambda1
    assert built == [{np.dtype(np.float64)}]
    built.clear()
    # (0,3) has one real pole and one conjugate pair
    make_stepper(SchemeSpec("pade_fmes", tau=0.01, n_steps=1, l=0, m=3,
                            lambda1=lambda1), sys28)
    assert built == [{np.dtype(np.float32)}] * 2


def test_complex_pole_solves_on_an_even_grid_take_few_iterations(monkeypatch):
    # at n_side 72 the (0,2) pole pair's complex band factor (18 MB) is over
    # the budget; its mesh is not nested in the coarse one (diagonal scaling
    # took 229 iterations per solve on average)
    sys = assemble(build_mesh(72))
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=3, l=0, m=2,
                      lambda1=inverse_iteration(sys).lambda1)
    iterations = []

    def recording(A, *args, **kwargs):
        assert np.iscomplexobj(A)
        x, report = sparse.cg_solve(A, *args, **kwargs)
        iterations.append(report.iterations)
        return x, report

    monkeypatch.setattr(schemes, "cg_solve", recording)
    run_scheme(spec, sys, np.ones(sys.n_nodes))
    assert len(iterations) == 3 and max(iterations) <= 20


@pytest.mark.parametrize("kind, params", [("theta_fmes", dict(sigma=1.0)),
                                          ("pade_fmes", dict(l=0, m=2))])
def test_projected_starts_save_iterations(sys28, pair28, monkeypatch, kind,
                                          params):
    # 60 steps wrap the ring of PROJECTION_SIZE solutions ten times, and
    # the stored solutions, all tending to the slowest mode, leave G
    # numerically singular; (0,2)'s pole pair is complex.  Warnings are
    # errors, so neither lstsq nor CG may warn.
    spec = SchemeSpec(kind, tau=0.01, n_steps=60, lambda1=pair28.lambda1,
                      **params)
    y = np.random.default_rng(1).uniform(0.5, 1.5, sys28.n_nodes)
    band = run_scheme(spec, sys28, y)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    stepper = make_stepper(spec, sys28)
    projected, large_z, conditions = [], [], []

    def recording(*args, **kwargs):
        x, report = sparse.cg_solve(*args, **kwargs)
        projected.append(report.iterations)
        return x, report

    monkeypatch.setattr(schemes, "cg_solve", recording)
    for level in range(1, spec.n_steps + 1):
        My = sys28.M @ y
        for z, sr, *_, solver in stepper.poles:
            # the start of earlier versions: the pole term's large-z limit
            _, report = sparse.cg_solve(solver.operator, sr * My,
                                        tol=stepper.tol, x0=(sr / -z) * y,
                                        precondition=solver)
            large_z.append(report.iterations)
        y = stepper.step(y, My)
        expected = band.vector_at(level)
        assert m_norm(sys28, y - expected) <= 1e-8 * m_norm(sys28, expected)
        (*_, projection, _), = stepper.poles
        k = min(projection.count, schemes.PROJECTION_SIZE)
        singular = np.linalg.svd(projection.G[:k, :k], compute_uv=False)
        conditions.append(singular[-1] / singular[0])
    assert len(projected) == len(large_z) == spec.n_steps
    assert min(conditions) < schemes.PROJECTION_RCOND
    assert sum(projected) < sum(large_z)


_SPD_KINDS = ([(kind, dict(sigma=s))
               for kind in ("theta_standard", "theta_fmes")
               for s in (0.5, 0.75, 1.0)]
              + [("pade_fmes", dict(l=l, m=m)) for m in range(1, 5)
                 for l in range(m + 1)])


@settings(max_examples=200, deadline=None)
@given(kind_params=st.sampled_from(_SPD_KINDS), n=st.integers(1, 8),
       tau=st.floats(1e-4, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_step_on_random_spd_pair_matches_modal_oracle(kind_params, n, tau,
                                                      seed):
    # dense random pairs give band patterns no mesh produces
    kind, params = kind_params
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((2, n, n))
    K = A @ A.T + 0.1 * np.eye(n)
    M = B @ B.T + n * np.eye(n)
    sys = FemSystem(mesh=None, M=sp.csr_matrix(M), K_bar=sp.csr_matrix(K),
                    K=sp.csr_matrix(K), coeffs=ProblemCoefficients())
    lam, V = scipy.linalg.eigh(K, M)
    mu = 0.0 if kind == "theta_standard" else lam[0]
    eta = (lam - mu) * tau
    if kind == "pade_fmes":
        R = pade_rational(params["l"], params["m"], eta)
    else:
        R = np.array([amplification_factor(params["sigma"], e) for e in eta])
    y = rng.standard_normal(n)
    oracle = V @ (math.exp(-mu * tau) * R * (V.T @ (M @ y)))
    stepped = _step(sys, kind, tau, y,
                    lambda1=None if kind == "theta_standard" else mu, **params)
    assert m_norm(sys, stepped - oracle) <= 1e-9 * m_norm(sys, y)


@pytest.mark.parametrize("l, m", [(0, 1), (0, 2), (2, 4)])
def test_each_pole_system_factored_once(sys6, pair6, monkeypatch, l, m):
    calls = []
    factorize = BandedSolver._factorize

    def counting(self):
        calls.append(self)
        return factorize(self)

    monkeypatch.setattr(BandedSolver, "_factorize", counting)
    spec = SchemeSpec("pade_fmes", tau=1e-4, n_steps=1000, l=l, m=m,
                      lambda1=pair6.lambda1)
    run_scheme(spec, sys6, np.ones(sys6.n_nodes), store_levels=())
    # one solver per real pole or conjugate pair, each factored once
    assert len(calls) == len(set(map(id, calls))) == (m + 1) // 2


@pytest.mark.parametrize("l, m", [(0, 1), (0, 2)])
def test_band_path_stepping_converts_no_matrix(sys26, pair26, todia_calls,
                                               l, m):
    # every pole matrix is a DIA sum of the assembled DIA matrices
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=2, l=l, m=m,
                      lambda1=pair26.lambda1)
    run_scheme(spec, sys26, np.ones(sys26.n_nodes), store_levels=())
    assert todia_calls == []


@pytest.mark.parametrize("sigma, delta", [(1.0, 1e-3), (1.0, 1e-2),
                                          (1.0, 1e-1), (0.5, 1e-1)])
def test_eigenvalue_error_amplitude_defect(sys6, pair6, sigma, delta):
    # shifting by lambda~ = (1 + delta) lambda1 leaves the fundamental mode
    # the shifted eigenvalue -delta lambda1, so its amplitude gains
    # g = exp(-lambda~ tau) r(sigma, -delta lambda1 tau) per step instead of
    # exp(-lambda1 tau): a defect of O(delta^2) for sigma = 1 and O(delta^3)
    # for sigma = 1/2, on top of the eigenpair's own floor (~4.5e-10 a0)
    tau, n_steps, lam1 = 0.01, 10, pair6.lambda1
    spec = SchemeSpec("theta_fmes", tau=tau, n_steps=n_steps, sigma=sigma,
                      lambda1=(1.0 + delta) * lam1)
    traj = run_scheme(spec, sys6, np.ones(sys6.n_nodes), phi1=pair6.phi1)
    a0 = traj.amplitudes[0]
    exact = a0 * np.exp(-lam1 * traj.times)
    measured = np.abs(traj.amplitudes - exact).max()
    g = (math.exp(-(1.0 + delta) * lam1 * tau)
         * amplification_factor(sigma, -delta * lam1 * tau))
    predicted = np.abs(a0 * g ** np.arange(n_steps + 1) - exact).max()
    assert predicted > 5e-9 * abs(a0)
    assert abs(measured - predicted) <= 1e-9 * abs(a0)


def test_modal_kind_requires_basis(sys6, pair6):
    spec = SchemeSpec("pade_modal", tau=0.01, n_steps=1, l=0, m=3,
                      lambda1=pair6.lambda1)
    with pytest.raises(ValueError, match="ModalBasis"):
        make_stepper(spec, sys6)


def test_modal_basis_of_another_grid_is_refused(basis6, pair6):
    sys7 = assemble(build_mesh(7))
    spec = SchemeSpec("pade_modal", tau=0.01, n_steps=1, l=0, m=2,
                      lambda1=pair6.lambda1)
    with pytest.raises(ValueError,
                       match="^ModalBasis has 36 nodes, the system 49$"):
        run_scheme(spec, sys7, np.ones(sys7.n_nodes), basis=basis6)


@pytest.mark.parametrize("bad, match", [
    (np.nan, "^w0 has non-finite entries$"),
    (np.inf, "^w0 has non-finite entries$"),
    (None, r"^w0 has shape \(35,\), expected \(36,\)$")],
    ids=["nan", "inf", "short"])
@pytest.mark.parametrize("kind, params", [
    ("theta_fmes", dict(sigma=0.5)), ("pade_fmes", dict(l=0, m=2)),
    ("pade_modal", dict(l=0, m=2))], ids=["theta_fmes", "pade_fmes",
                                          "pade_modal"])
def test_run_scheme_refuses_a_non_finite_start(sys6, pair6, basis6, kind,
                                               params, bad, match):
    # a start one entry short (bad = None) is refused too
    spec = SchemeSpec(kind, tau=0.01, n_steps=1, lambda1=pair6.lambda1,
                      **params)
    w0 = np.ones(sys6.n_nodes)
    if bad is None:
        w0 = w0[1:]
    else:
        w0[3] = bad
    with pytest.raises(ValueError, match=match):
        run_scheme(spec, sys6, w0, basis=basis6)


def test_run_scheme_modal_path(sys6, basis6, pair6):
    # general indices go through the modal basis
    T, N = 0.05, 5
    spec = SchemeSpec("pade_modal", tau=T / N, n_steps=N, l=0, m=3,
                      lambda1=pair6.lambda1)
    w0 = np.ones(sys6.n_nodes)
    traj = run_scheme(spec, sys6, w0, basis=basis6, phi1=pair6.phi1)
    decay = traj.amplitudes[0] * np.exp(-pair6.lambda1 * traj.times)
    # phi1 from inverse iteration carries ~1e-8 of other modes, which sets
    # the floor when measured against the dense basis
    assert np.abs(traj.amplitudes - decay).max() < 1e-8
