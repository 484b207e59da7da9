"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with the measured numbers.
"""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fmes.assembly import assemble, m_inner, m_norm
from fmes.experiments import ExperimentConfig, SchemeRequest, sweep_reaction
from fmes.mesh import build_mesh
from fmes.schemes import (SchemeSpec, amplification_factor, fmes_weight,
                          make_stepper, pade_coefficients, pade_rational,
                          run_scheme)
from fmes.spectral import (exact_semidiscrete_solution, inverse_iteration,
                           modal_decompose)

TABLE_VALUES = {26: 4.61202748099, 51: 4.53274682048, 101: 4.52790409340}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def table_pairs():
    pairs, seconds = {}, {}
    for n_side in (26, 51, 101):
        start = time.perf_counter()
        sys = assemble(build_mesh(n_side))
        pairs[n_side] = inverse_iteration(sys)
        seconds[n_side] = time.perf_counter() - start
    return pairs, seconds


@pytest.fixture(scope="module")
def baseline():
    sys = assemble(build_mesh(26))
    return sys, inverse_iteration(sys)


@pytest.fixture(scope="module")
def small_problem():
    sys = assemble(build_mesh(6))
    return sys, inverse_iteration(sys), modal_decompose(sys)


def test_criterion_1_eigenvalue_reproduction(table_pairs):
    pairs, seconds = table_pairs
    details = []
    ok = True
    for n_side, expected in TABLE_VALUES.items():
        pair = pairs[n_side]
        rel = abs(pair.lambda1_bar - expected) / expected
        tail = pair.history[7:10]
        spread = (max(tail) - min(tail)) / abs(tail[-1])
        ok &= rel <= 0.01 and spread <= 1e-10 and seconds[n_side] < 30.0
        details.append(f"n{n_side}: {pair.lambda1_bar:.11f} "
                       f"(rel {rel:.2e}, tail spread {spread:.1e}, "
                       f"{seconds[n_side]:.1f}s)")
    _report(1, ok, "; ".join(details))


def test_criterion_2_fmes_exactness(baseline):
    sys, pair = baseline
    w0 = np.ones(sys.n_nodes)
    a0 = abs(m_inner(sys, w0, pair.phi1))
    T = 0.1
    fmes_schemes = [("theta_fmes", dict(sigma=0.5)),
                    ("theta_fmes", dict(sigma=1.0)),
                    ("pade_fmes", dict(l=0, m=1)),
                    ("pade_fmes", dict(l=1, m=1)),
                    ("pade_fmes", dict(l=0, m=2))]
    ok = True
    worst = 0.0
    for kind, kw in fmes_schemes:
        for n_steps in (10, 100):
            spec = SchemeSpec(kind, tau=T / n_steps, n_steps=n_steps,
                              lambda1=pair.lambda1, **kw)
            traj = run_scheme(spec, sys, w0, phi1=pair.phi1)
            eps = np.abs(traj.amplitudes - traj.amplitudes[0]
                         * np.exp(-pair.lambda1 * traj.times)).max()
            worst = max(worst, eps / a0)
            ok &= eps <= 1e-8 * a0
    std = {}
    for n_steps in (10, 100):
        spec = SchemeSpec("theta_standard", tau=T / n_steps, n_steps=n_steps,
                          sigma=1.0)
        traj = run_scheme(spec, sys, w0, phi1=pair.phi1)
        std[n_steps] = np.abs(traj.amplitudes - traj.amplitudes[0]
                              * np.exp(-pair.lambda1 * traj.times)).max()
    ratio = std[10] / std[100]
    ok &= std[10] >= 1e-4 and 8.0 <= ratio <= 12.0
    _report(2, ok, f"worst FMES eps_a/a0 {worst:.2e} (bound 1e-8); standard "
                   f"eps_a(N=10) {std[10]:.2e} (>=1e-4), N10/N100 ratio "
                   f"{ratio:.2f} (10 +- 2)")


def test_criterion_3_stability_bound(baseline):
    sys, pair = baseline
    rng = np.random.default_rng(42)
    T, n_steps = 0.1, 20
    worst = -np.inf
    ok = True
    for sigma in (0.5, 0.75, 1.0):
        spec = SchemeSpec("theta_fmes", tau=T / n_steps, n_steps=n_steps,
                          sigma=sigma, lambda1=pair.lambda1)
        for _ in range(20):
            w0 = rng.standard_normal(sys.n_nodes)
            traj = run_scheme(spec, sys, w0)
            weighted = traj.m_norms * np.exp(pair.lambda1 * traj.times)
            growth = np.diff(weighted) / weighted[:-1]
            worst = max(worst, growth.max())
            ok &= bool(np.all(growth <= 1e-12))
    _report(3, ok, f"max per-step growth of exp(lam1 t)||y||_M over "
                   f"60 runs: {worst:.2e} (tolerance 1e-12)")


def test_criterion_4_oracle_equivalence(small_problem):
    sys, pair, basis = small_problem
    rng = np.random.default_rng(7)
    y = np.ones(sys.n_nodes) + 0.1 * rng.standard_normal(sys.n_nodes)
    tau = 0.01
    lam1 = pair.lambda1
    lam = basis.eigenvalues
    V, M = basis.eigenvectors, sys.M
    coeffs = V.T @ (M @ y)

    def modal_apply(mult):
        return V @ (mult * coeffs)

    cases = {}
    for sigma in (0.5, 1.0):
        stepped = make_stepper(SchemeSpec(
            "theta_standard", tau=tau, n_steps=1, sigma=sigma), sys).step(y)
        oracle = modal_apply(np.array([amplification_factor(sigma, lk * tau)
                                       for lk in lam]))
        cases[f"theta_standard s={sigma:g}"] = m_norm(sys, stepped - oracle)
        stepped = make_stepper(SchemeSpec(
            "theta_fmes", tau=tau, n_steps=1, sigma=sigma, lambda1=lam1),
            sys).step(y)
        oracle = modal_apply(math.exp(-lam1 * tau) * np.array(
            [amplification_factor(sigma, (lk - lam1) * tau) for lk in lam]))
        cases[f"theta_fmes s={sigma:g}"] = m_norm(sys, stepped - oracle)
    for l, m in ((0, 1), (1, 1), (0, 2)):
        stepped = make_stepper(SchemeSpec(
            "pade_fmes", tau=tau, n_steps=1, l=l, m=m, lambda1=lam1),
            sys).step(y)
        oracle = modal_apply(math.exp(-lam1 * tau)
                             * pade_rational(l, m, (lam - lam1) * tau))
        cases[f"pade({l},{m})"] = m_norm(sys, stepped - oracle)
    worst = max(cases.values())
    _report(4, worst <= 1e-8,
            "per-step M-norm deviation from exact mode multipliers: "
            + ", ".join(f"{k} {v:.1e}" for k, v in cases.items())
            + " (bound 1e-8)")


def _pade_error_highprec(l: int, m: int, z: float) -> float:
    # rational arithmetic on the produced coefficients plus a 60-digit
    # exponential keeps the tiny (2,2) errors measurable
    zf = Fraction(z)
    p, q = pade_coefficients(l, m)
    pz = sum(Fraction(c) * zf ** k for k, c in enumerate(p))
    qz = sum(Fraction(c) * zf ** k for k, c in enumerate(q))
    with localcontext() as ctx:
        ctx.prec = 60
        ez = (-Decimal(zf.numerator) / Decimal(zf.denominator)).exp()
    return abs(float(pz / qz - Fraction(ez)))


def test_criterion_5_pade_order(small_problem):
    zs = np.logspace(-3, -1, 10)
    slopes = {}
    ok = True
    for l, m in ((0, 1), (1, 1), (0, 2), (2, 2)):
        errs = [_pade_error_highprec(l, m, z) for z in zs]
        slope = float(np.polyfit(np.log(zs), np.log(errs), 1)[0])
        slopes[(l, m)] = slope
        ok &= abs(slope - (l + m + 1)) <= 0.1

    sys, pair, basis = small_problem
    w0 = np.ones(sys.n_nodes)
    T = 0.1
    exact = exact_semidiscrete_solution(basis, w0, T)

    def error_at(l, m, n_steps):
        spec = SchemeSpec("pade_fmes", tau=T / n_steps, n_steps=n_steps,
                          l=l, m=m, lambda1=pair.lambda1)
        return m_norm(sys, run_scheme(spec, sys, w0).final - exact)

    ratio_02 = error_at(0, 2, 20) / error_at(0, 2, 40)
    ratio_01 = error_at(0, 1, 10) / error_at(0, 1, 20)
    ok &= abs(ratio_02 - 4.0) <= 0.4 and abs(ratio_01 - 2.0) <= 0.3
    slope_text = ", ".join(f"({l},{m}) {s:.3f}" for (l, m), s in slopes.items())
    _report(5, ok, f"log-log slopes: {slope_text}; Richardson (0,2) "
                   f"{ratio_02:.2f} (4 +- 0.4), (0,1) {ratio_01:.2f} (2 +- 0.3)")


def test_criterion_6_spectral_monotonicity():
    sys = assemble(build_mesh(11))
    pair = inverse_iteration(sys)
    basis = modal_decompose(sys)
    lam1, lam = pair.lambda1, basis.eigenvalues
    V, M = basis.eigenvectors, sys.M
    y_all = V @ np.ones(lam.size)          # unit content in every mode
    tau = 0.01
    ok = True
    details = []
    for m in (1, 2, 3):
        stepped = make_stepper(SchemeSpec(
            "pade_modal", tau=tau, n_steps=1, l=0, m=m, lambda1=lam1),
            sys, basis=basis).step(y_all)
        mult = V.T @ (M @ stepped)
        positive = bool(np.all(mult > 0))
        decreasing = bool(np.all(np.diff(mult) < 0))
        ok &= positive and decreasing
        details.append(f"(0,{m}) positive={positive} decreasing={decreasing}")
    tau_big = 3.0 / (lam[-1] - lam1)       # shifted eta reaches 3 > 2
    stepped = make_stepper(SchemeSpec(
        "pade_modal", tau=tau_big, n_steps=1, l=1, m=1, lambda1=lam1),
        sys, basis=basis).step(y_all)
    mult = V.T @ (M @ stepped)
    has_negative = bool(mult.min() < 0)
    ok &= has_negative
    details.append(f"(1,1) min multiplier {mult.min():.3f} < 0")
    _report(6, ok, "; ".join(details))


def test_criterion_7_comparative_accuracy(tmp_path):
    config = ExperimentConfig(
        schemes=(SchemeRequest("theta_standard", sigma=1.0, steps=(10, 20, 40)),
                 SchemeRequest("theta_fmes", sigma=1.0, steps=(10, 20, 40))),
        output_dir=str(tmp_path))
    results = sweep_reaction(config, (0.0, 10.0, 30.0))
    ok = True
    base = results[0.0]
    for n in (10, 20, 40):
        fm = base.find_run("theta_fmes", "sigma1", n).max_eps_u
        std = base.find_run("theta_standard", "sigma1", n).max_eps_u
        ok &= fm < std
    std_by_c = [max(results[c].find_run("theta_standard", "sigma1", n).max_eps_u
                    for n in (10, 20, 40)) for c in (0.0, 10.0, 30.0)]
    ok &= std_by_c[0] < std_by_c[1] < std_by_c[2]
    fmes_by_c = {}
    for n in (10, 20, 40):
        vals = [results[c].find_run("theta_fmes", "sigma1", n).max_eps_u
                for c in (0.0, 10.0, 30.0)]
        fmes_by_c[n] = (max(vals) - min(vals)) / min(vals)
        ok &= fmes_by_c[n] < 0.20
    _report(7, ok, f"standard max eps_u by c: "
                   f"{', '.join(f'{v:.3e}' for v in std_by_c)} (growing); "
                   f"shifted-scheme variation across c: "
                   + ", ".join(f"N={n} {v:.1%}" for n, v in fmes_by_c.items())
                   + " (< 20%)")


def test_criterion_8_scalar_layer():
    etas = np.linspace(0.1, 5.0, 50)
    worst = 0.0
    for eta in etas:
        sigma = fmes_weight(eta)
        worst = max(worst, abs(amplification_factor(sigma, eta)
                               - math.exp(-eta)))
    w001 = fmes_weight(0.01)
    ok = worst <= 1e-14 and 0.499 < w001 < 0.502
    _report(8, ok, f"max |r(sigma1, eta) - exp(-eta)| over 50 eta in (0,5]: "
                   f"{worst:.2e} (<= 1e-14); fmes_weight(0.01) = {w001:.6f}")
