import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmes.schemes import (amplification_factor, fmes_weight,
                          pade_coefficients, pade_rational)


def test_amplification_substitutions():
    assert amplification_factor(1.0, 1.0) == pytest.approx(0.5, abs=0)
    for eta in (0.2, 1.0, 3.5):
        assert amplification_factor(0.0, eta) == pytest.approx(1.0 - eta, abs=0)
    for sigma in (0.1, 0.5, 1.0):
        assert amplification_factor(sigma, 0.0) == 1.0


def test_amplification_pole():
    with pytest.raises(ValueError):
        amplification_factor(0.5, -2.0)


def _bisect_weight(eta, lo=1e-6, hi=0.99, steps=200):
    # independent root finder for r(sigma, eta) = exp(-eta) in sigma
    target = math.exp(-eta)

    def f(sigma):
        return amplification_factor(sigma, eta) - target

    assert f(lo) * f(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_fmes_weight_at_one():
    # at eta=1 the equation reduces to sigma/(1+sigma) = 1/e
    expected = 1.0 / (math.e - 1.0)
    assert fmes_weight(1.0) == pytest.approx(expected, rel=1e-14)
    assert fmes_weight(1.0) == pytest.approx(_bisect_weight(1.0), rel=1e-12)


def test_fmes_weight_small_eta_near_half():
    assert abs(fmes_weight(0.01) - 0.5) < 1e-3


def test_fmes_weight_satisfies_defining_equation():
    for eta in (0.1, 1.0, 5.0):
        sigma = fmes_weight(eta)
        assert amplification_factor(sigma, eta) == pytest.approx(
            math.exp(-eta), abs=1e-14)


def test_fmes_weight_zero_raises():
    with pytest.raises(ValueError):
        fmes_weight(0.0)


def test_fmes_weight_series_branch_continuity():
    # the small-eta series agrees with the closed form where both are sound
    eta = 0.9e-4
    closed = 1.0 / (-math.expm1(-eta)) - 1.0 / eta
    assert fmes_weight(eta) == pytest.approx(closed, abs=1e-11)
    # negative eta is admissible (weight below 1/2)
    assert fmes_weight(-1.0) == pytest.approx(_bisect_weight(-1.0), rel=1e-12)


def test_fmes_weight_increasing_in_eta():
    etas = np.linspace(0.01, 5.0, 50)
    sigmas = [fmes_weight(e) for e in etas]
    assert np.all(np.diff(sigmas) > 0)


def test_pade_coefficients_low_orders():
    p, q = pade_coefficients(0, 1)
    assert p == pytest.approx([1.0], abs=0)
    assert q == pytest.approx([1.0, 1.0], abs=0)
    p, q = pade_coefficients(1, 1)
    assert p == pytest.approx([1.0, -0.5], abs=0)
    assert q == pytest.approx([1.0, 0.5], abs=0)
    p, q = pade_coefficients(0, 2)
    assert p == pytest.approx([1.0], abs=0)
    assert q == pytest.approx([1.0, 1.0, 0.5], abs=0)


def test_pade_q0m_is_truncated_exponential_series():
    for m in (1, 2, 3, 4):
        _, q = pade_coefficients(0, m)
        expected = [1.0 / math.factorial(k) for k in range(m + 1)]
        assert q == pytest.approx(expected, rel=1e-15)


def _exact_pade(l, m):
    # independent exact-rational evaluation of the factorial formulas
    fact = math.factorial
    p = [Fraction((-1) ** k * fact(l) * fact(l + m - k),
                  fact(l + m) * fact(k) * fact(l - k)) for k in range(l + 1)]
    q = [Fraction(fact(m) * fact(l + m - k),
                  fact(l + m) * fact(k) * fact(m - k)) for k in range(m + 1)]
    return p, q


@pytest.mark.parametrize("l,m", [(0, 1), (1, 1), (0, 2), (2, 2), (1, 3), (4, 2)])
def test_pade_coefficients_match_exact_rationals(l, m):
    p, q = pade_coefficients(l, m)
    pe, qe = _exact_pade(l, m)
    assert p == pytest.approx([float(c) for c in pe], rel=1e-15)
    assert q == pytest.approx([float(c) for c in qe], rel=1e-15)


def test_pade_coefficients_validation():
    with pytest.raises(ValueError):
        pade_coefficients(-1, 2)
    with pytest.raises(ValueError):
        pade_coefficients(0, 0)
    with pytest.raises(ValueError):
        pade_coefficients(1.5, 1)


def test_pade_rational_closed_forms():
    z = np.linspace(0.0, 3.0, 7)
    assert pade_rational(0, 1, z) == pytest.approx(1.0 / (1.0 + z), rel=1e-14)
    assert pade_rational(1, 1, z) == pytest.approx(
        (1.0 - z / 2) / (1.0 + z / 2), rel=1e-14)
    assert pade_rational(0, 2, z) == pytest.approx(
        1.0 / (1.0 + z + z ** 2 / 2), rel=1e-14)


def test_pade_rational_approximates_exponential():
    z = 0.05
    for l, m in ((0, 1), (1, 1), (0, 2)):
        err = abs(pade_rational(l, m, z) - math.exp(-z))
        assert err < abs(z) ** (l + m + 1)


@settings(max_examples=500, deadline=None)
@given(eta=st.floats(1e-10, 100.0))
def test_fmes_weight_is_exact_for_every_eta(eta):
    # both branches of fmes_weight, the series below 1e-4 and the closed form
    sigma = fmes_weight(eta)
    assert abs(amplification_factor(sigma, eta) - math.exp(-eta)) <= 1e-15


_PADE_INDICES = [(l, m) for m in range(1, 5) for l in range(m + 1)]


@settings(max_examples=300, deadline=None)
@given(lm=st.sampled_from(_PADE_INDICES), frac=st.floats(0.5, 1.0))
def test_pade_error_constant(lm, frac):
    # R_lm(z) - e^-z = +-C_lm z^(l+m+1) (1 + O(z)); z_lm puts the error at
    # 1e-10, far above roundoff and small enough for the leading term to rule
    l, m = lm
    order = l + m + 1
    c_lm = (math.factorial(l) * math.factorial(m)
            / (math.factorial(l + m) * math.factorial(order)))
    z = frac * (1e-10 / c_lm) ** (1.0 / order)
    ratio = abs(float(pade_rational(l, m, z)) - math.exp(-z)) / (c_lm * z ** order)
    assert 0.5 <= ratio <= 1.5
