import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from fmes import assemble, build_mesh, schemes, sparse
from fmes.assembly import (FemSystem, ProblemCoefficients, half_system,
                           m_inner, m_norm)
from fmes.schemes import (SchemeSpec, _partial_fractions, _pole_operator,
                          amplification_factor, fmes_weight, make_stepper,
                          pade_coefficients, pade_rational, run_scheme)
from fmes.sparse import BandedSolver, ConvergenceError, Multigrid, _mass_norm
from fmes.spectral import (ModalBasis, exact_semidiscrete_solution,
                           inverse_iteration, modal_decompose)


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


_DEGREE_ONE = ([(np.array([1.0, -(1.0 - sigma)]), np.array([1.0, sigma]))
                for sigma in (0.5, 0.55, 0.7, 0.93, 1.0)]
               + [pade_coefficients(l, 1) for l in (0, 1)])


@pytest.mark.parametrize("pq", _DEGREE_ONE)
def test_partial_fractions_degree_one_pole_is_np_roots(pq, monkeypatch):
    # a degree-1 Q's pole is -q0/q1, np.roots's value bit for bit, without
    # its call; degrees 2-4 still call np.roots once
    p, q = pq
    (root,) = np.roots(q[::-1])
    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: calls.append(1) or roots(c))
    _, [(z, r, w)] = _partial_fractions(p, q)
    assert calls == [] and w == 1.0 and np.imag(root) == 0.0
    assert np.float64(z).view(np.int64) == np.float64(root).view(np.int64)
    for m in range(2, 5):
        _partial_fractions(*pade_coefficients(0, m))
    assert len(calls) == 3


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
    modal_step = _step(sys6, "pade_modal", tau, y, basis=basis6, **params)
    assert m_norm(sys6, sparse_step - modal_step) < 1e-8


@pytest.mark.parametrize("l, m", [(0, 2), (2, 2)])
def test_modal_trajectory_matches_the_closed_form(sys11, pair11, basis11,
                                                  rng, l, m):
    # carried coordinates: c_n = f^n c_0, synthesized a chunk at a time
    lam1, tau, n_steps = pair11.lambda1, 0.005, 200
    assert n_steps > schemes.MODAL_CHUNK
    spec = SchemeSpec("pade_modal", tau=tau, n_steps=n_steps, l=l, m=m,
                      lambda1=lam1)
    w0 = _generic_state(sys11, rng)
    traj = run_scheme(spec, sys11, w0, basis=basis11)
    # lambda1 is the basis's fundamental eigenvalue: its multiplier is
    # exp(-lambda1 tau) R(0), whatever eigh's first eigenvalue reads
    scale = math.exp(-lam1 * tau)
    f = scale * pade_rational(l, m, (basis11.eigenvalues - lam1) * tau)
    f[0] = scale
    V = basis11.eigenvectors
    c0 = V.T @ (sys11.M @ w0)
    for level in range(n_steps + 1):
        exact = V @ (f ** level * c0)
        assert (m_norm(sys11, traj.vector_at(level) - exact)
                <= 1e-12 * m_norm(sys11, exact))
    # the first step projects w0 and computes the first chunk: per block,
    # repeated products of the projected coordinates, then one dense product
    k = schemes.MODAL_CHUNK
    chunk = 0
    for Q, lam, W in basis11.blocks:
        f = scale * pade_rational(l, m, (lam - lam1) * tau)
        if lam[0] == basis11.eigenvalues[0]:
            f[0] = scale
        c = W.T @ (Q.T @ (sys11.M @ w0))
        C = np.empty((c.size, k))
        for j in range(k):
            C[:, j] = c = f * c
        chunk = chunk + Q @ (W @ C)
    for level in range(1, k + 1):
        assert np.array_equal(traj.vector_at(level), chunk[:, level - 1])


def _modal_decay_bound(sys, basis, h, w0, lam1, tau):
    """level n -> a first-order bound on |h^T M y_n - exp(-lambda1 tau n)
    h^T M w0| for the state y_n of a pade_modal trajectory from w0 whose
    multipliers f lie in [0, exp(-lambda1 tau)], the fundamental one.  With
    g and c the modal coordinates of h and w0, h^T M y_n is g^T (f^n c) up
    to rounding, so the defect is exp(-lambda1 tau n) times at most:

    * (n (eta + 3) + 2 eta n + 3) u |g_1 c_1|, eta = lambda1 tau: the
      multiplier's exp, the n products that carry it, the closed form's exp;
    * sum_(j > 1) |g_j c_j|: h's content of the other modes, which decay at
      their own rates (|f_j^n - f_1^n| <= f_1^n);
    * |g^T c - h^T M w0|: the basis's round trip, as computed;
    * gamma_(2 n_nodes) |h|^T |M| sum_b |Q_b| |W_b| |c_b|: the rounding of
      synthesis and products, none of which sums more than 2 n_nodes terms.
    """
    u, n, M = np.finfo(float).eps / 2, sys.n_nodes, sys.M
    g, c = (basis.coordinates(M @ v) for v in (h, w0))
    first = np.argmin([lam[0] for _, lam, _ in basis.blocks])
    fundamental = abs(g[first][0] * c[first][0])
    others = sum(np.abs(gb) @ np.abs(cb) for gb, cb in zip(g, c)) - fundamental
    round_trip = abs(sum(gb @ cb for gb, cb in zip(g, c)) - h @ (M @ w0))
    products = np.abs(h) @ (abs(M) @ sum(
        abs(Q) @ (np.abs(W) @ np.abs(cb))
        for (Q, _, W), cb in zip(basis.blocks, c)))
    eta, gamma = lam1 * tau, 2 * n * u / (1 - 2 * n * u)
    return lambda level: math.exp(-eta * level) * (
        (level * (eta + 3) + 2 * eta * level + 3) * u * fundamental + others
        + round_trip + gamma * products)


@pytest.mark.parametrize("l, m", [(0, 2), (2, 2)])
def test_modal_fundamental_coordinate_decays_exactly(sys11, pair11, basis11,
                                                     l, m):
    # lambda1, the run's eigenvalue, is the basis's fundamental one: started
    # on the basis's fundamental mode v, the coordinate (v, y_n)_M decays by
    # exp(-lambda1 tau) per step.  eigh's first eigenvalue sits 2.1e-13
    # relative off lambda1, which put the coordinate 9.7e-13 relative off
    # after 200 steps, against a bound of 1e-13.
    lam1, tau, n_steps = pair11.lambda1, 0.005, 200
    (Q, lam, W), *_ = basis11.blocks
    assert lam[0] == basis11.eigenvalues[0]
    v = Q @ W[:, 0]
    spec = SchemeSpec("pade_modal", tau=tau, n_steps=n_steps, l=l, m=m,
                      lambda1=lam1)
    traj = run_scheme(spec, sys11, v, basis=basis11, phi1=v)
    bound = _modal_decay_bound(sys11, basis11, v, v, lam1, tau)
    for level, a in enumerate(traj.amplitudes):
        assert (abs(a - math.exp(-lam1 * tau * level) * traj.amplitudes[0])
                <= bound(level))


def test_modal_coordinates_below_the_normal_range_are_flushed(
        sys11, pair11, basis11, rng):
    # the stiff coordinates of this trajectory pass through the subnormal
    # range, where the dense products run many times slower; flushed to
    # zero, none is carried, and the states still match the closed form
    lam1, tau, n_steps, tiny = pair11.lambda1, 0.005, 200, np.finfo(float).tiny
    stepper = _modal_stepper(sys11, pair11, basis11, n_steps)
    f = math.exp(-lam1 * tau) * pade_rational(
        0, 2, (basis11.eigenvalues - lam1) * tau)
    V = basis11.eigenvectors
    y = _generic_state(sys11, rng)
    c0 = V.T @ (sys11.M @ y)
    subnormal = 0
    for level in range(1, n_steps + 1):
        y = stepper.step(y)
        exact_coords = f ** level * c0
        subnormal += np.count_nonzero((exact_coords != 0.0)
                                      & (np.abs(exact_coords) < tiny))
        assert not any(np.any((c != 0.0) & (np.abs(c) < tiny))
                       for c in stepper.coords)
        exact = V @ exact_coords
        assert m_norm(sys11, y - exact) <= 1e-12 * m_norm(sys11, exact)
    assert subnormal > 0


def _modal_stepper(sys, pair, basis, n_steps):
    return make_stepper(SchemeSpec("pade_modal", tau=0.005, n_steps=n_steps,
                                   l=0, m=2, lambda1=pair.lambda1),
                        sys, basis=basis)


def _count_projections(monkeypatch) -> list:
    projections = []
    coordinates = ModalBasis.coordinates
    monkeypatch.setattr(ModalBasis, "coordinates", lambda self, My: (
        projections.append(1) or coordinates(self, My)))
    return projections


@pytest.mark.parametrize("case", ["restart", "changed_in_place",
                                  "equal_copy"])
def test_modal_stepper_carries_only_its_own_output(sys11, pair11, basis11,
                                                   rng, monkeypatch, case):
    w0 = _generic_state(sys11, rng)
    stepper, twin = (_modal_stepper(sys11, pair11, basis11, 1)
                     for _ in range(2))
    y = twin_y = w0
    for _ in range(3):
        y, twin_y = stepper.step(y), twin.step(twin_y)
    projections = _count_projections(monkeypatch)
    if case == "equal_copy":
        # the kept coordinates: as if the caller had passed y itself
        assert np.array_equal(stepper.step(y.copy()), twin.step(twin_y))
        assert projections == []
        return
    if case == "restart":
        start = w0
    else:
        y *= 0.5
        start = y
    fresh = _modal_stepper(sys11, pair11, basis11, 1)
    assert np.array_equal(stepper.step(start), fresh.step(start))
    assert len(projections) == 2


def test_a_foreign_state_in_mid_chunk_is_projected_once(sys11, pair11,
                                                        basis11, rng,
                                                        monkeypatch):
    monkeypatch.setattr(schemes, "MODAL_CHUNK", 4)
    stepper = _modal_stepper(sys11, pair11, basis11, 10)
    y = _generic_state(sys11, rng)
    for _ in range(3):
        y = stepper.step(y)
    start = _generic_state(sys11, rng)
    projections = _count_projections(monkeypatch)
    y = start
    stepped = [y := stepper.step(y) for _ in range(7)]
    assert len(projections) == 1
    # the rest of the trajectory: 7 steps, in chunks of 4 and 3
    fresh = _modal_stepper(sys11, pair11, basis11, 7)
    y = start
    for state in stepped:
        y = fresh.step(y)
        assert np.array_equal(state, y)


def test_writing_into_a_returned_state_changes_no_later_state(
        sys11, pair11, basis11, rng, monkeypatch):
    monkeypatch.setattr(schemes, "MODAL_CHUNK", 4)
    stepper, twin = (_modal_stepper(sys11, pair11, basis11, 10)
                     for _ in range(2))
    y = twin_y = _generic_state(sys11, rng)
    projections = _count_projections(monkeypatch)
    for _ in range(10):
        out, twin_y = stepper.step(y), twin.step(twin_y)
        y = out.copy()
        out[:] = np.nan
        assert np.array_equal(y, twin_y)
    # every state, across chunk boundaries, came from carried coordinates
    assert len(projections) == 2


def test_a_modal_stepper_steps_past_its_trajectory(sys11, pair11, basis11,
                                                   rng, monkeypatch):
    monkeypatch.setattr(schemes, "MODAL_CHUNK", 4)
    lam1, tau = pair11.lambda1, 0.005
    stepper = _modal_stepper(sys11, pair11, basis11, 2)
    f = math.exp(-lam1 * tau) * pade_rational(
        0, 2, (basis11.eigenvalues - lam1) * tau)
    V = basis11.eigenvectors
    y = _generic_state(sys11, rng)
    c0 = V.T @ (sys11.M @ y)
    widths = []
    synthesize = ModalBasis.synthesize
    monkeypatch.setattr(ModalBasis, "synthesize", lambda self, coords: (
        widths.append(coords[0].shape[1]) or synthesize(self, coords)))
    for level in range(1, 7):
        y = stepper.step(y)
        exact = V @ (f ** level * c0)
        assert m_norm(sys11, y - exact) <= 1e-12 * m_norm(sys11, exact)
    # no state beyond the trajectory is computed ahead
    assert widths == [2, 1, 1, 1, 1]


def test_modal_multipliers_sm_property(sys11, basis11, pair11):
    # the (0, m) family keeps multipliers positive and decreasing in lambda;
    # the (1, 1) multiplier goes negative beyond shifted eta = 2
    tau = 0.01
    lam1 = pair11.lambda1
    e = np.zeros(basis11.eigenvalues.size)
    for m in (1, 2, 3):
        y = basis11.eigenvectors @ np.ones_like(e)   # equal modal content
        stepped = _step(sys11, "pade_modal", tau, y, basis=basis11, l=0, m=m,
                        lambda1=lam1)
        mult = basis11.eigenvectors.T @ (basis11.mass @ stepped)
        assert np.all(mult > 0)
        assert np.all(np.diff(mult) < 1e-15)
    lam_max = basis11.eigenvalues[-1]
    tau_big = 3.0 / (lam_max - lam1)
    y = basis11.eigenvectors @ np.ones_like(e)
    stepped = _step(sys11, "pade_modal", tau_big, y, basis=basis11, l=1, m=1,
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


def test_sparse_lu_failure_reports_level(sys6, pair6, monkeypatch):
    # SuperLU raises RuntimeError on an exactly singular factor; a complex
    # pole's factor is made on the first step, so the failure names level 1
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=3, l=0, m=2,
                      lambda1=pair6.lambda1)
    with pytest.raises(ConvergenceError,
                       match=r"^pade_fmes step failed at level 1: sparse LU "
                             r"failed \(Factor is exactly singular\)$"):
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
    assert all(isinstance(solving, BandedSolver)
               for *_, solving in direct.poles)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    cg = make_stepper(spec, sys6)
    # n_side 6 does not coarsen: CG preconditioned by Re(A)'s band factor
    assert all(isinstance(solving.solver, Multigrid)
               and not solving.solver.levels for *_, solving in cg.poles)
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


def _checked_level(stepper, y):
    """The level after y with every pole solved by its checked
    ``solving.solve``, which run_scheme's inline substitutions must match
    bit for bit: s c0 y + sum_j w_j Re x_j."""
    My = stepper.M @ y
    out = stepper.scale * stepper.c0 * y if stepper.c0 else None
    for sr, w, solving in stepper.poles:
        x = solving.solve(My if sr == 1.0 else sr * My, stepper.tol)[0]
        x = x.real if w == 1.0 else w * x.real
        out = x if out is None else out + x
    return out


# every sparse scheme, the six this test first covered first, so that each
# keeps its test id
_CHAINED_SPECS = [
    ("theta_standard", dict(sigma=1.0)), ("theta_fmes", dict(sigma=1.0)),
    ("theta_fmes", dict(sigma=0.5)), ("pade_fmes", dict(l=0, m=1)),
    ("pade_fmes", dict(l=1, m=1)), ("pade_fmes", dict(l=0, m=2))]
_CHAINED_SPECS += [s for s in _SPARSE_SPECS if s not in _CHAINED_SPECS]


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -300, 2.0 ** 300])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("kind, params", _CHAINED_SPECS)
def test_band_loop_is_the_chained_steps(sys6, pair6, rng, monkeypatch, kind,
                                        params, half, scale):
    # run_scheme steps every sparse stepper by its advance, never by .step,
    # and gives the states, mass norms and amplitudes of levels whose every
    # pole is solved by its checked solve, bit for bit: on direct poles (a
    # real band factor substituted inline at scale 1) and on multigrid ones,
    # in range and, from 2^-300 and 2^300, through the range rule's scaled
    # solves and norms
    sys = half_system(sys6) if half else sys6
    phi1 = pair6.phi1[sparse.fold(6).rep] if half else pair6.phi1
    lam1 = None if kind == "theta_standard" else pair6.lambda1
    spec = SchemeSpec(kind, tau=0.01, n_steps=4, lambda1=lam1, **params)
    w0 = scale * _generic_state(sys, rng)
    assert sparse._in_range(sparse._norm(sys.M @ w0)) == (scale == 1.0)
    for limit in (sparse.DIRECT_LIMIT_BYTES, 0):
        monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", limit)
        inline = []
        with monkeypatch.context() as patch:
            patch.setattr(schemes._RationalStepper, "step",
                          lambda *args: pytest.fail("run_scheme called .step"))
            patch.setattr(schemes, "dpbtrs",
                          lambda *args: inline.append(1) or
                          scipy.linalg.lapack.dpbtrs(*args))
            traj = run_scheme(spec, sys, w0, phi1=phi1)
        y, stepper = w0, make_stepper(spec, sys)
        assert all(isinstance(solving, BandedSolver) == (limit > 0)
                   for *_, solving in stepper.poles)
        real_pole = any(w == 1.0 for _, w, _ in stepper.poles)
        assert bool(inline) == (limit > 0 and scale == 1.0 and real_pole)
        for level in range(spec.n_steps + 1):
            y = _checked_level(stepper, y) if level else y
            My = sys.M @ y
            assert np.array_equal(traj.vector_at(level), y)
            assert traj.m_norms[level] == _mass_norm(sys.M, y, My)
            assert traj.amplitudes[level] == phi1 @ My


def _overflowing_dpbtrs(monkeypatch, at: int, info: int = 0):
    """Patch LAPACK's dpbtrs, inline and in the checked solve, to put an inf
    into x[3] from its call ``at`` on, with ``info``; return the list of its
    calls."""
    dpbtrs, calls = scipy.linalg.lapack.dpbtrs, []

    def overflowing(*args):
        x, _ = dpbtrs(*args)
        calls.append(1)
        if len(calls) >= at:
            x[3] = np.inf
        return x, info if len(calls) >= at else 0

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", overflowing)
    monkeypatch.setattr(schemes, "dpbtrs", overflowing)
    return calls


def test_band_loop_refuses_a_non_finite_x_at_its_level(sys6, monkeypatch):
    # run_scheme reads x's finiteness off the level's mass norm; an inf
    # entry from the third substitution is refused at level 3
    calls = _overflowing_dpbtrs(monkeypatch, at=3)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=5, sigma=1.0)
    with pytest.raises(ConvergenceError,
                       match="^theta_standard step failed at level 3: "
                             "state is not finite$"):
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))
    assert len(calls) == 3


def test_step_refuses_a_non_finite_state(sys6, monkeypatch):
    _overflowing_dpbtrs(monkeypatch, at=1)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=1, sigma=1.0)
    with pytest.raises(ConvergenceError, match="^state is not finite$"):
        make_stepper(spec, sys6).step(np.ones(sys6.n_nodes))


def test_lapack_info_names_its_level(sys6, monkeypatch):
    # a nonzero info takes the checked solve, whose substitution raises
    _overflowing_dpbtrs(monkeypatch, at=3, info=-2)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=5, sigma=1.0)
    with pytest.raises(ValueError,
                       match=r"^theta_standard step failed at level 3: band "
                             r"substitution failed \(info=-2\)$") as caught:
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))
    assert str(caught.value.__cause__) == "band substitution failed (info=-2)"


def test_a_steps_own_value_error_keeps_its_message(sys6, monkeypatch):
    # any ValueError a step raises names its level, keeps its message and
    # chains the step's own error
    def failing(self, y, My):
        raise ValueError("an unrelated failure")

    monkeypatch.setattr(schemes._RationalStepper, "advance", failing)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=2, sigma=1.0)
    with pytest.raises(ValueError, match="^theta_standard step failed at "
                                         "level 1: an unrelated failure$"
                       ) as caught:
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))
    assert str(caught.value.__cause__) == "an unrelated failure"


@pytest.mark.parametrize("part", ["real", "imag"])
def test_complex_lu_refuses_a_non_finite_x_at_its_level(sys6, pair6,
                                                        monkeypatch, part):
    # an inf in either part of the third SuperLU substitution of the (0, 2)
    # pole pair is refused at level 3 by the checked solve, whose refusal
    # carries the factor's certificate
    splu, calls = scipy.sparse.linalg.splu, []

    class Overflowing:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, b):
            x = self.lu.solve(b)
            calls.append(1)
            if len(calls) == 3:
                getattr(x, part)[3] = np.inf
            return x

    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: Overflowing(splu(*args,
                                                                 **kwargs)))
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=5, l=0, m=2,
                      lambda1=pair6.lambda1)
    with pytest.raises(ConvergenceError, match="^pade_fmes step failed at "
                                               "level 3: banded solve "
                                               "overflowed$") as caught:
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))
    assert len(calls) == 3
    report = caught.value.report
    assert report is caught.value.__cause__.report
    assert report.iterations == 0 and report.backward_bound < 1e-12


@pytest.mark.parametrize("kind, params, factor", [
    ("theta_standard", dict(sigma=1.0), "banded Cholesky"),
    ("pade_fmes", dict(l=0, m=2), "sparse LU")])
def test_uncertified_factor_names_level_1(sys6, pair6, monkeypatch, kind,
                                          params, factor):
    monkeypatch.setattr(schemes, "OUTER_TOL", 1e-30)
    lam1 = None if kind == "theta_standard" else pair6.lambda1
    spec = SchemeSpec(kind, tau=0.01, n_steps=3, lambda1=lam1, **params)
    with pytest.raises(ConvergenceError,
                       match=f"^{kind} step failed at level 1: {factor}'s "
                             f"backward error bound .* exceeds tol="):
        run_scheme(spec, sys6, np.ones(sys6.n_nodes))


def test_band_loop_accepts_a_finite_x_whose_squares_overflow():
    # M = 2^-768 I and K = 0 on 8 nodes: theta_standard's pole operator is
    # M, so each level is y = 2^1022 1, whose M y = 2^254 1 is in range and
    # whose y^T M y overflows; the range rule's norm is sqrt(2) 2^639
    M = sp.dia_matrix((np.full((1, 8), 2.0 ** -768), [0]), shape=(8, 8))
    K = sp.dia_matrix((np.zeros((1, 8)), [0]), shape=(8, 8))
    sys = FemSystem(mesh=None, M=M, K_bar=K, K=K,
                    coeffs=ProblemCoefficients())
    w0 = np.full(8, 2.0 ** 1022)
    assert np.vdot(w0, M @ w0) == np.inf
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=2, sigma=1.0)
    traj = run_scheme(spec, sys, w0)
    assert np.array_equal(traj.final, w0)
    assert traj.m_norms.tolist() == [math.sqrt(2.0) * 2.0 ** 639] * 3


_EDGE = 2.0 ** 255        # ||c 1|| on 4 nodes is 2 c


@pytest.mark.parametrize("m, c, solves", [
    (1.0, _EDGE, 0),                                    # ||b|| = 2^256
    (1.0, _EDGE * 2.0 ** -512, 0),                      # ||b|| = 2^-256
    (1.0, np.nextafter(_EDGE, np.inf), 2),              # just above
    (1.0, np.nextafter(_EDGE * 2.0 ** -512, 0.0), 2),   # just below
    (1.0, 0.0, 2),                                      # b = 0, y^T M y = 0
    (2.0 ** 600, 2.0 ** -801, 0),           # ||b|| = 2^-200, norm 2^-500
    (2.0 ** -1000, 2.0 ** -74, 2)],         # M y = 2^-1074 1, y^T M y 0
    ids=["b_2^256", "b_2^-256", "b_above", "b_below", "b_zero",
         "norm_below", "norm_underflows"])
def test_band_loop_range_rule_edges(m, c, solves, monkeypatch):
    # M = m I and K = 0 on 4 nodes: theta_standard's pole operator is M, so
    # b = M y and every level is y = c 1.  The inline substitution takes a b
    # with ||b|| in [2^-256, 2^256]; any other goes through
    # BandedSolver.solve.  Every level has the bits of levels whose pole is
    # solved by BandedSolver.solve, and every norm those of _mass_norm
    M = sp.dia_matrix((np.full((1, 4), m), [0]), shape=(4, 4))
    K = sp.dia_matrix((np.zeros((1, 4)), [0]), shape=(4, 4))
    sys = FemSystem(mesh=None, M=M, K_bar=K, K=K,
                    coeffs=ProblemCoefficients())
    w0 = np.full(4, c)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=2, sigma=1.0)
    calls = []
    solve = sparse.BandedSolver.solve
    monkeypatch.setattr(sparse.BandedSolver, "solve",
                        lambda *args: calls.append(1) or solve(*args))
    traj = run_scheme(spec, sys, w0)
    assert len(calls) == solves
    y, stepper = w0, make_stepper(spec, sys)
    for level in range(3):
        y = _checked_level(stepper, y) if level else y
        assert np.array_equal(traj.vector_at(level), y)
        assert traj.m_norms[level] == _mass_norm(M, y)
    assert traj.m_norms.tolist() == [2.0 * c * math.sqrt(m)] * 3


@functools.lru_cache(maxsize=None)
def _scaled_run_system(n_side: int, half: bool):
    """An assembled system (its half when ``half``), its lambda_1 and its
    phi1, taken from the whole system's dense eigenpair."""
    sys = assemble(build_mesh(n_side))
    lam, phi = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray(),
                                 subset_by_index=[0, 0])
    phi1 = phi[:, 0]
    if half:
        sys, phi1 = half_system(sys), phi1[sparse.fold(n_side).rep]
    return sys, float(lam[0]), phi1


def _scaled_run(n_side, half, kind, params, n_steps, seed, scales):
    """run_scheme's trajectory from 2^k w0 for each k in ``scales``, one w0,
    and whether each multigrid pole's b lay in the range rule's range."""
    sys, lam1, phi1 = _scaled_run_system(n_side, half)
    spec = SchemeSpec(kind, tau=0.01, n_steps=n_steps,
                      lambda1=None if kind == "theta_standard" else lam1,
                      **params)
    w0 = _generic_state(sys, np.random.default_rng(seed))
    solve, in_range = schemes._Projection.solve, []

    def recorded(projection, b, tol):
        in_range.append(sparse._in_range(sparse._norm(b)))
        return solve(projection, b, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes._Projection, "solve", recorded)
        return [run_scheme(spec, sys, np.ldexp(w0, k), phi1=phi1)
                for k in scales], in_range


def _assert_images(base, traj, k):
    """Every state, mass norm and amplitude of ``traj`` is 2^k times
    ``base``'s, bit for bit."""
    for level, y in base.vectors.items():
        assert np.array_equal(traj.vector_at(level), np.ldexp(y, k))
    assert np.array_equal(traj.m_norms, np.ldexp(base.m_norms, k))
    assert np.array_equal(traj.amplitudes, np.ldexp(base.amplitudes, k))


_SCALED_RUN = dict(n_side=st.integers(3, 12), half=st.booleans(),
                   spec=st.sampled_from(_SPARSE_SPECS),
                   n_steps=st.integers(3, 4), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-600, 600), **_SCALED_RUN)
def test_direct_runs_scale_exactly_by_powers_of_2(n_side, half, spec,
                                                  n_steps, seed, k):
    # the range rule scales by powers of 2 alone, so a run from 2^k w0 is 2^k
    # times the run from w0, in range or not: inline and scaled band solves,
    # the complex sparse LU's scaled solves and every mass norm
    kind, params = spec
    (base, traj), _ = _scaled_run(n_side, half, kind, params, n_steps, seed,
                                  (0, k))
    _assert_images(base, traj, k)


@settings(max_examples=25, deadline=None)
@given(j=st.integers(320, 600), k=st.integers(320, 600),
       sign=st.sampled_from([-1, 1]), **_SCALED_RUN)
def test_multigrid_runs_out_of_range_scale_exactly(n_side, half, spec,
                                                   n_steps, seed, j, k, sign):
    # a multigrid pole's projection (X, G) holds the range rule's in-range
    # copies of its pairs, so two runs whose every b lies out of range, on
    # one side, follow one history: exact 2^(k - j) images
    kind, params = spec
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
        (low, high), in_range = _scaled_run(n_side, half, kind, params,
                                            n_steps, seed, (sign * j, sign * k))
    assert in_range and not any(in_range)
    _assert_images(low, high, sign * (k - j))


@pytest.mark.parametrize("kind, params", [("theta_fmes", dict(sigma=1.0)),
                                          ("pade_fmes", dict(l=0, m=2))])
def test_multigrid_run_from_2_to_the_600_projects_in_range(
        sys28, pair28, monkeypatch, capfd, kind, params):
    # from 2^600 w0 each b's x^T b overflows; the projection's Gram matrix G
    # must hold the in-range copies', so the run neither fails in LAPACK's
    # least squares nor prints LAPACK's complaints (ZLASCL's go to stdout)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    sys = half_system(sys28)
    spec = SchemeSpec(kind, tau=0.01, n_steps=20, lambda1=pair28.lambda1,
                      **params)
    w0 = 2.0 ** 600 * np.ones(sys.n_nodes)
    traj = run_scheme(spec, sys, w0)
    assert np.isfinite(traj.m_norms).all()
    assert capfd.readouterr() == ("", "")


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(2, 40), half=st.booleans(),
       c=st.sampled_from([0.0, 2.5]),
       scale=st.sampled_from([1.0, 2.0 ** -600, 2.0 ** 600]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dia_kernel_into_zeros_is_the_dia_product(n_side, half, c, scale,
                                                   seed):
    # run_scheme's mass product calls scipy's private DIA kernel into fresh
    # zeros; it must keep the bits of scipy's M @ y (and K @ y)
    sys = assemble(build_mesh(n_side), ProblemCoefficients(c=c))
    sys = half_system(sys) if half else sys
    y = scale * np.random.default_rng(seed).standard_normal(sys.n_nodes)
    for A in (sys.M, sys.K):
        out = np.zeros(sys.n_nodes)
        schemes.dia_matvec(*A.shape, len(A.offsets), A.data.shape[1],
                           A.offsets, A.data, y, out)
        assert np.array_equal(out.view(np.int64), (A @ y).view(np.int64))


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
    solvers = [solving.solver for *_, solving in iterative.poles]
    assert all(isinstance(solver, Multigrid) and len(solver.levels) == 1
               and solver.operator.format == "dia" for solver in solvers)
    error = m_norm(sys28, direct.step(y) - iterative.step(y))
    assert error <= 1e-9 * m_norm(sys28, y)


def test_every_multigrid_from_choose_solver_gets_float32_levels(sys28,
                                                               monkeypatch):
    # the eigensolve's hierarchy and every pole system's: choose_solver
    # takes no dtype, and only a test builds the float64 reference cycle
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    built = []

    class Recording(Multigrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append({a.dtype for level in self.levels for a in level})

    monkeypatch.setattr(sparse, "Multigrid", Recording)
    lambda1 = inverse_iteration(sys28).lambda1
    assert built == [{np.dtype(np.float32)}]
    built.clear()
    # (0,3) has one real pole and one conjugate pair; the real pole, whose
    # imaginary part np.roots gives as exactly 0, gets a real system
    stepper = make_stepper(SchemeSpec("pade_fmes", tau=0.01, n_steps=1, l=0,
                                      m=3, lambda1=lambda1), sys28)
    assert built == [{np.dtype(np.float32)}] * 2
    assert sorted(solving.solver.operator.dtype.kind
                  for *_, solving in stepper.poles) == ["c", "f"]


def test_complex_pole_solves_on_an_even_grid_take_few_iterations(monkeypatch):
    # with no room for a direct factor, the (0,2) pole pair of the whole
    # n_side 72 system runs conjugate orthogonal CG on multigrid; its mesh
    # is not nested in the coarse one (diagonal scaling took 229 iterations
    # per solve on average)
    sys = assemble(build_mesh(72))
    spec = SchemeSpec("pade_fmes", tau=0.01, n_steps=3, l=0, m=2,
                      lambda1=inverse_iteration(sys).lambda1)
    monkeypatch.setattr(sparse, "DIRECT_LIMIT_BYTES", 0)
    iterations = []

    def recording(solver, *args, **kwargs):
        assert np.iscomplexobj(solver.operator)
        x, report = sparse.cg_solve(solver, *args, **kwargs)
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
    z = {"theta_fmes": -1.0, "pade_fmes": -1.0 + 1.0j}[kind]   # upper pole
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
        for sr, _, projection in stepper.poles:
            # the start of earlier versions: the pole term's large-z limit
            _, report = sparse.cg_solve(projection.solver, sr * My,
                                        stepper.tol, x0=(sr / -z) * y)
            large_z.append(report.iterations)
        y = stepper.step(y, My)
        expected = band.vector_at(level)
        assert m_norm(sys28, y - expected) <= 1e-8 * m_norm(sys28, expected)
        (*_, projection), = stepper.poles
        k = min(projection.count, schemes.PROJECTION_SIZE)
        singular = np.linalg.svd(projection.G[:k, :k], compute_uv=False)
        conditions.append(singular[-1] / singular[0])
    assert len(projected) == len(large_z) == spec.n_steps
    assert min(conditions) < schemes.PROJECTION_RCOND
    assert sum(projected) < sum(large_z)


@pytest.mark.parametrize("z", [-1.0, -1.0 + 1.0j])
def test_projection_rows_survive_the_next_solve(sys28, z):
    # the multigrid's workspaces and CG's buffers are reused by every solve;
    # a returned solution, and so the ring's row X[i], is kept as solved
    projection = schemes._Projection(
        Multigrid(0.01 * sys28.K - z * sys28.M, 28, np.float32))
    rng = np.random.default_rng(2)
    solutions = []
    for _ in range(3):
        x, _ = projection.solve(sys28.M @ rng.uniform(0.5, 1.5, sys28.n_nodes),
                                schemes.OUTER_TOL)
        solutions.append((x, x.copy()))
        for i, (x, kept) in enumerate(solutions):
            assert np.array_equal(x, kept)
            assert np.array_equal(projection.X[i], kept)


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


def _pole_test_system(name):
    """A system whose pole operators the bit-for-bit test forms: assembled
    on n_side 6, whole or on its mirror-even half, at c = 0 (K on fewer
    diagonals than M) or c = 2.5, or a random SPD pair in CSR with a dense
    K and a tridiagonal M (K on more diagonals than M)."""
    if name == "csr":
        rng = np.random.default_rng(7)
        A, e = rng.standard_normal((5, 5)), rng.uniform(0.5, 1.0, 4)
        K = A @ A.T + 0.1 * np.eye(5)
        M = np.diag(rng.uniform(4.0, 5.0, 5)) + np.diag(e, 1) + np.diag(e, -1)
        return FemSystem(mesh=None, M=sp.csr_matrix(M),
                         K_bar=sp.csr_matrix(K), K=sp.csr_matrix(K),
                         coeffs=ProblemCoefficients())
    half, c = name.split("_c")
    sys = assemble(build_mesh(6), ProblemCoefficients(c=float(c)))
    sys = half_system(sys) if half == "half" else sys
    assert (len(sys.K.offsets) < len(sys.M.offsets)) == (c == "0")
    return sys


@pytest.mark.parametrize("kind, params", [
    ("theta_standard", dict(sigma=1.0)), ("theta_fmes", dict(sigma=0.5)),
    ("pade_fmes", dict(l=0, m=2)), ("pade_fmes", dict(l=2, m=2))])
@pytest.mark.parametrize("system", ["whole_c0", "half_c0", "whole_c2.5",
                                    "half_c2.5", "csr"])
def test_pole_operators_keep_the_bits_of_scipys_dia_arithmetic(kind, params,
                                                                 system):
    # real poles (theta) and complex ones (Pade), each operator as scipy's
    # sparse arithmetic forms it, converted to DIA
    sys = _pole_test_system(system)
    tau, mu = 0.01, (0.0 if kind == "theta_standard" else 7.25)
    spec = SchemeSpec(kind, tau=tau, n_steps=1, **params,
                      lambda1=None if kind == "theta_standard" else mu)
    if kind == "pade_fmes":
        p, q = pade_coefficients(params["l"], params["m"])
    else:
        p = np.array([1.0, params["sigma"] - 1.0])
        q = np.array([1.0, params["sigma"]])
    _, ((z, _, _),) = _partial_fractions(p, q)
    (*_, solver), = make_stepper(spec, sys).poles
    expected = sp.dia_matrix(tau * (sys.K - mu * sys.M) - z * sys.M)
    assert np.array_equal(solver.operator.offsets, expected.offsets)
    assert np.array_equal(solver.operator.data, expected.data)
    assert solver.operator.dtype == expected.dtype


@pytest.mark.parametrize("z", [-1.0, np.float64(-0.37), -1.0 + 1.0j,
                               np.complex128(-0.27 + 2.5j)])
@pytest.mark.parametrize("system", ["whole_c0", "half_c0", "whole_c2.5",
                                    "half_c2.5"])
def test_pole_operator_in_place_is_the_out_of_place_expression(z, system):
    # the same operations in the same order, on K's and M's rows placed on
    # their offsets' union, byte for byte (signed zeros too)
    sys = _pole_test_system(system)
    K, M = sys.K, sys.M
    offsets = np.union1d(K.offsets, M.offsets)
    Kd, Md = np.zeros((2, len(offsets), sys.n_nodes))
    for A, data in ((K, Kd), (M, Md)):
        data[np.searchsorted(offsets, A.offsets), :A.data.shape[1]] = (
            A.data[:, :sys.n_nodes])
    for tau, mu in ((0.01, 0.0), (0.01, 7.25), (1e3, 0.5)):
        operator = _pole_operator(sys, tau, mu, z)
        expected = tau * (Kd - mu * Md) - z * Md
        assert np.array_equal(operator.offsets, offsets)
        assert operator.data.dtype == expected.dtype
        assert np.array_equal(operator.data, expected)
        assert operator.data.tobytes() == expected.tobytes()


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


def test_a_stable_large_step_is_accepted_by_its_backward_error():
    # weak absorption on the right and top (mu 0.01) and tau = 1000:
    # lambda1 tau is about 20, the pole system's relative residual 3.6e-9
    # misses 1e-10, and its normwise backward error is 6.8e-17
    sys = assemble(build_mesh(26), ProblemCoefficients(mu_right_top=0.01))
    pair, basis = inverse_iteration(sys), modal_decompose(sys)
    tau, y = 1000.0, np.ones(sys.n_nodes)
    stepped = _step(sys, "theta_fmes", tau, y, sigma=1.0,
                    lambda1=pair.lambda1)
    lam, V = basis.eigenvalues, basis.eigenvectors
    oracle = V @ (math.exp(-pair.lambda1 * tau)
                  * np.array([amplification_factor(1.0, (lk - pair.lambda1)
                                                   * tau) for lk in lam])
                  * (V.T @ (sys.M @ y)))
    # criterion 4's bound on the distance to the exact mode multipliers
    assert m_norm(sys, stepped - oracle) <= 1e-8 * m_norm(sys, y)
    assert m_norm(sys, oracle) > 1e-9 * m_norm(sys, y)


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
    # the fundamental multiplier is exp(-lambda1 tau), so only phi1's
    # content of other modes and rounding part the amplitudes from the
    # exponential (6e-16 here, against a bound of 2e-14)
    bound = _modal_decay_bound(sys6, basis6, pair6.phi1, w0, pair6.lambda1,
                               T / N)
    assert np.all(np.abs(traj.amplitudes - decay)
                  <= [bound(level) for level in range(N + 1)])
