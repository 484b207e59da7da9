"""Two-level time steppers for the semi-discrete parabolic problem.

Four families are provided:

* ``theta_standard``   -- the classical weighted scheme,
  (M + sigma tau K) y' = (M - (1-sigma) tau K) y.
* ``theta_fmes``       -- the same scheme applied to the shifted operator
  K - lambda1 M, with the new level scaled by exp(-lambda1 tau).  The
  fundamental mode is then propagated exactly: its amplitude gains the
  factor exp(-lambda1 tau) per step regardless of tau.
* ``pade_fmes``        -- rational one-step methods built from Pade
  approximants of exp(-z), applied to the shifted operator, for every
  index l <= m <= 4.  Index (0,1) coincides with theta_fmes at sigma=1,
  (1,1) with sigma=0.5, and (0,2) is a second-order scheme that
  additionally keeps every mode multiplier positive (spectral
  monotonicity).
* ``pade_modal``       -- the same rational multipliers applied mode by
  mode through a dense eigenbasis; exact in space, it serves as the
  oracle for all sparse steppers and covers every index l <= m (for
  l > m, R_lm is unbounded at infinity and both kinds refuse it).

The three sparse kinds share one stepper: each is
y' = exp(-mu tau) R(tau M^-1 (K - mu M)) y for a rational R = P/Q (mu = 0
for theta_standard, lambda1 otherwise), applied in partial fractions
R = c0 + sum_j r_j / (z - z_j) with one sparse solve per real pole or
conjugate pole pair: a banded direct solve with a factor made once per
run, or CG when that factor would exceed DIRECT_LIMIT_BYTES.

Scalar helpers (amplification factor, exact-weight formula, Pade
coefficients) live here as well since they define the steppers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .assembly import FemSystem
from .sparse import BandedSolver, ConvergenceError, cg_solve
from .spectral import ModalBasis

SCHEME_KINDS = ("theta_standard", "theta_fmes", "pade_fmes", "pade_modal")
# Relative residual every stepper solve must reach (divided by 1 + |c0|,
# see _RationalStepper); read when a stepper is made.
OUTER_TOL = 1e-10
# Largest band factor a pole system may keep; larger systems are solved by
# CG.  The paper's grid (676 nodes) needs 0.15 MB real, 0.9 MB complex;
# 40,401 nodes would need 65 MB real.
DIRECT_LIMIT_BYTES = 16 * 2 ** 20


# ---------------------------------------------------------------------------
# scalar layer
# ---------------------------------------------------------------------------

def amplification_factor(sigma: float, eta: float) -> float:
    """Per-mode multiplier r(sigma, eta) = (1 - (1-sigma) eta) / (1 + sigma eta)."""
    denom = 1.0 + sigma * eta
    if denom == 0.0:
        raise ValueError(f"amplification factor has a pole at sigma*eta = -1 "
                         f"(sigma={sigma}, eta={eta})")
    return (1.0 - (1.0 - sigma) * eta) / denom


def fmes_weight(eta: float) -> float:
    """The weight making the two-level scheme exact for a mode with eta = lambda tau.

    Solves r(sigma, eta) = exp(-eta) in closed form,
    sigma = 1/(1 - exp(-eta)) - 1/eta.  The removable singularity at eta = 0
    has limit 1/2, which is documented but not returned; eta = 0 raises.
    """
    if eta == 0.0:
        raise ValueError("eta must be nonzero (the limit value is 1/2)")
    if abs(eta) < 1e-4:
        # series around 0 avoids cancellation: 1/2 + eta/12 - eta^3/720 + ...
        return 0.5 + eta / 12.0 - eta ** 3 / 720.0
    return 1.0 / (-math.expm1(-eta)) - 1.0 / eta


def pade_coefficients(l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (ascending powers) of the [l/m] Pade approximant of exp(-z).

    P(z) = l!/(l+m)! * sum_k (l+m-k)!/(k! (l-k)!) (-z)^k and Q analogously
    with positive powers; R = P/Q matches exp(-z) to order l+m+1.
    """
    if not (isinstance(l, int) and isinstance(m, int)):
        raise ValueError("Pade indices must be integers")
    if l < 0 or m < 0:
        raise ValueError(f"Pade indices must be nonnegative, got ({l}, {m})")
    if l + m < 1:
        raise ValueError("at least one of l, m must be positive")
    fact = math.factorial
    p = [(-1) ** k * Fraction(fact(l) * fact(l + m - k),
                              fact(l + m) * fact(k) * fact(l - k))
         for k in range(l + 1)]
    q = [Fraction(fact(m) * fact(l + m - k),
                  fact(l + m) * fact(k) * fact(m - k))
         for k in range(m + 1)]
    return (np.array([float(c) for c in p]),
            np.array([float(c) for c in q]))


def pade_rational(l: int, m: int, z):
    """Evaluate R_lm(z) = P_lm(z) / Q_lm(z); accepts scalars or arrays."""
    p, q = pade_coefficients(l, m)
    z = np.asarray(z, dtype=float)
    return np.polyval(p[::-1], z) / np.polyval(q[::-1], z)


# ---------------------------------------------------------------------------
# scheme specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    """Identity and parameters of one time-stepping run.

    theta kinds need ``sigma``; pade kinds need ``l`` and ``m``; all shifted
    (FMES) kinds need ``lambda1``, normally the discrete fundamental
    eigenvalue from the spectral module.  ``n_steps = 0`` is allowed and
    yields the degenerate one-entry trajectory.
    """

    kind: str
    tau: float
    n_steps: int
    sigma: float | None = None
    l: int | None = None
    m: int | None = None
    lambda1: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; "
                             f"expected one of {SCHEME_KINDS}")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.kind in ("theta_standard", "theta_fmes"):
            if self.sigma is None or not (0.0 < self.sigma <= 1.0):
                raise ValueError("theta schemes need a weight sigma in (0, 1]")
            # the pole solve runs at OUTER_TOL / (1 + |c0|) = OUTER_TOL sigma,
            # and double precision cannot reach a relative residual below 1e-15
            if self.sigma * OUTER_TOL < 1e-15:
                raise ValueError(
                    f"theta weight sigma = {self.sigma:g} needs solves to a "
                    f"relative residual of {self.sigma * OUTER_TOL:.1e}, "
                    f"below 1e-15; use sigma >= {1e-15 / OUTER_TOL:g}")
        else:
            if self.l is None or self.m is None:
                raise ValueError("Pade schemes need indices l and m")
            if self.l < 0 or self.m < 0 or self.l + self.m < 1:
                raise ValueError(f"invalid Pade indices ({self.l}, {self.m})")
            if self.l > self.m:
                raise ValueError(
                    f"Pade indices ({self.l}, {self.m}) need l <= m: R_lm is "
                    f"unbounded at infinity, so stiff modes would blow up")
            # up to m = 4 every pole lies in the left half-plane, so each
            # pole solve is definite
            if self.kind == "pade_fmes" and self.m > 4:
                raise ValueError(
                    f"sparse Pade stepping needs m <= 4; use the modal "
                    f"path (pade_modal) for ({self.l}, {self.m})")
        if self.kind != "theta_standard" and self.lambda1 is None:
            raise ValueError(f"{self.kind} needs lambda1 (fundamental eigenvalue)")

    def params_label(self) -> str:
        if self.kind in ("theta_standard", "theta_fmes"):
            return f"sigma{self.sigma:g}"
        return f"l{self.l}m{self.m}"


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def _partial_fractions(p: np.ndarray, q: np.ndarray):
    """Split R = P/Q (ascending coefficients, deg P <= deg Q, simple poles)
    into c0 + sum_j r_j / (z - z_j).

    Returns c0 and one (z_j, r_j, weight) per real pole or conjugate pair;
    a pair is represented by its upper pole with weight 2, since for a real
    argument the two terms are complex conjugates.
    """
    c0 = p[-1] / q[-1] if p.size == q.size else 0.0
    dq = np.polyder(q[::-1])
    terms = []
    for z in np.roots(q[::-1]):
        if z.imag < 0.0:
            continue
        r = np.polyval(p[::-1], z) / np.polyval(dq, z)
        terms.append((z, r, 1.0 if z.imag == 0.0 else 2.0))
    return c0, terms


class _RationalStepper:
    """Advance y' = s R(tau M^-1 Kt) y with Kt = K - mu M and s = exp(-mu tau).

    With R = c0 + sum_j r_j / (z - z_j) every pole costs one solve of
    (tau Kt - z_j M) x_j = s r_j M y, complex-symmetric for a complex pole,
    and y' = s c0 y + sum_j w_j Re x_j.  The poles of every admitted R lie
    in the left half-plane, so each system matrix (for a complex pole, its
    Hermitian part) is positive definite.  The solves run at
    OUTER_TOL / (1 + |c0|) because the c0 term cancels against the pole
    terms.

    A pole system whose band factor fits in DIRECT_LIMIT_BYTES is factored
    on the first step (so a failure still names level 1) and later steps
    only back-substitute; a larger one is solved by CG, warm-started from
    the pole term's large-z limit.
    """

    def __init__(self, sys: FemSystem, p: np.ndarray, q: np.ndarray,
                 tau: float, mu: float):
        Kt = sys.K - mu * sys.M
        self.M = sys.M
        self.scale = math.exp(-mu * tau)
        self.c0, terms = _partial_fractions(p, q)
        self.tol = OUTER_TOL / (1.0 + abs(self.c0))
        self.poles = []
        for z, r, w in terms:
            A = tau * Kt - z * sys.M
            direct = BandedSolver(A)
            if direct.nbytes > DIRECT_LIMIT_BYTES:
                direct = None
            self.poles.append((z, self.scale * r, w, A, direct))

    def step(self, y: np.ndarray) -> np.ndarray:
        My = self.M @ y
        out = self.scale * self.c0 * y if self.c0 else None
        for z, sr, w, A, direct in self.poles:
            if direct is None:
                x, _ = cg_solve(A, sr * My, tol=self.tol, x0=(sr / -z) * y)
            else:
                x, _ = direct.solve(sr * My, self.tol)
            x = w * x.real
            out = x if out is None else out + x
        return out


class _ModalStepper:
    """Apply exp(-lambda1 tau) R_lm((lambda_k - lambda1) tau) mode by mode."""

    def __init__(self, basis: ModalBasis, l: int, m: int, tau: float,
                 lambda1: float):
        shifted = (basis.eigenvalues - lambda1) * tau
        self.multipliers = math.exp(-lambda1 * tau) * pade_rational(l, m, shifted)
        self.basis = basis

    def step(self, y: np.ndarray) -> np.ndarray:
        coeffs = self.basis.eigenvectors.T @ (self.basis.mass @ y)
        return self.basis.eigenvectors @ (self.multipliers * coeffs)


def make_stepper(spec: SchemeSpec, sys: FemSystem, *,
                 basis: ModalBasis | None = None):
    """Build the cached stepper object for a scheme specification."""
    if spec.kind == "pade_modal":
        if basis is None:
            raise ValueError("pade_modal needs a ModalBasis")
        return _ModalStepper(basis, spec.l, spec.m, spec.tau, spec.lambda1)
    if spec.kind == "pade_fmes":
        p, q = pade_coefficients(spec.l, spec.m)
    else:
        p = np.array([1.0, -(1.0 - spec.sigma)])
        q = np.array([1.0, spec.sigma])
    mu = 0.0 if spec.kind == "theta_standard" else spec.lambda1
    return _RationalStepper(sys, p, q, spec.tau, mu)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Per-level record of a time-stepping run.

    m_norms holds the mass norm at every level and amplitudes the
    fundamental-mode coefficient (y^n, phi1)_M when phi1 was supplied.
    Full vectors are stored only at the requested levels (all by default).
    """

    times: np.ndarray
    m_norms: np.ndarray
    amplitudes: np.ndarray | None
    vectors: dict[int, np.ndarray] = field(repr=False)

    def vector_at(self, level: int) -> np.ndarray:
        try:
            return self.vectors[level]
        except KeyError:
            raise KeyError(f"vector at level {level} was not stored") from None

    @property
    def final(self) -> np.ndarray:
        return self.vectors[len(self.times) - 1]


def run_scheme(spec: SchemeSpec, sys: FemSystem, w0: np.ndarray, *,
               phi1: np.ndarray | None = None,
               basis: ModalBasis | None = None,
               store_levels=None) -> Trajectory:
    """Iterate the selected stepper n_steps times from y^0 = w0.

    ``store_levels`` limits which full vectors are kept (a collection of
    level indices; levels 0 and n_steps are always kept).  Norms and, when
    phi1 is given, fundamental-mode amplitudes are recorded at every level.

    Raises
    ------
    ConvergenceError
        If a step's solve fails; the message carries the level index.
    """
    y = np.array(w0, dtype=float)
    if y.shape != (sys.n_nodes,):
        raise ValueError(f"w0 has shape {y.shape}, expected ({sys.n_nodes},)")
    stepper = make_stepper(spec, sys, basis=basis)

    n_steps = spec.n_steps
    keep = None if store_levels is None else set(store_levels) | {0, n_steps}
    times = np.arange(n_steps + 1) * spec.tau
    m_norms = np.empty(n_steps + 1)
    amplitudes = np.empty(n_steps + 1) if phi1 is not None else None
    vectors: dict[int, np.ndarray] = {}

    def record(level: int, vec: np.ndarray):
        mv = sys.M @ vec
        m_norms[level] = math.sqrt(vec @ mv)
        if amplitudes is not None:
            amplitudes[level] = float(phi1 @ mv)
        if keep is None or level in keep:
            vectors[level] = vec

    record(0, y)
    for level in range(1, n_steps + 1):
        try:
            y = stepper.step(y)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"{spec.kind} step failed at level {level}: {err}",
                report=err.report) from err
        record(level, y)
    return Trajectory(times=times, m_norms=m_norms,
                      amplitudes=amplitudes, vectors=vectors)
