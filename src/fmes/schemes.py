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
  l > m, R_lm is unbounded at infinity and both kinds refuse it).  It
  computes MODAL_CHUNK states at a time from carried modal coordinates.

The three sparse kinds share one stepper: each is
y' = exp(-mu tau) R(tau M^-1 (K - mu M)) y for a rational R = P/Q (mu = 0
for theta_standard, lambda1 otherwise), applied in partial fractions
R = c0 + sum_j r_j / (z - z_j) with one sparse solve per real pole or
conjugate pole pair by ``sparse.choose_solver``'s solver: a direct factor
(a band Cholesky for a real pole, a sparse LU for a complex pair) made and
certified once per run or, above sparse.DIRECT_LIMIT_BYTES, CG
preconditioned by a real multigrid V-cycle.  ``_RationalStepper.advance``
is every sparse step's body, ``run_scheme``'s included.

Scalar helpers (amplification factor, exact-weight formula, Pade
coefficients) live here as well since they define the steppers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrs
from scipy.sparse._sparsetools import dia_matvec

from .assembly import FemSystem
from .sparse import (BandedSolver, ConvergenceError, Multigrid, SolveReport,
                     _in_range, _mass_norm, _solve_in_range, cg_solve,
                     choose_solver)
from .spectral import ModalBasis

SCHEME_KINDS = ("theta_standard", "theta_fmes", "pade_fmes", "pade_modal")
# Tolerance of every stepper solve (divided by 1 + |c0|, see
# _RationalStepper); read when a stepper is made.
OUTER_TOL = 1e-10
# Solutions a multigrid pole keeps to project its next start onto
# (_Projection), and the relative cut-off of the projection's singular
# values.  Measured on 100-step theta runs at n_side 201 (tau 0.001): 6 and
# 1e-14 took 853 CG iterations, 8 took 847, 4 with 1e-12 took 921, 6 with
# 1e-10 took 1096, against 1520 from the large-z start.
PROJECTION_SIZE = 6
PROJECTION_RCOND = 1e-14
# States a modal stepper computes at once (_ModalStepper): at n_side 41 a
# state took 716 us alone, 235 us in chunks of 32, 165 of 64, 111 of 128.
MODAL_CHUNK = 64


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

    theta kinds take only ``sigma``, pade kinds only ``l`` and ``m`` (valid
    for ``pade_coefficients``); all shifted (FMES) kinds need ``lambda1``,
    normally the discrete fundamental eigenvalue from the spectral module.
    ``n_steps = 0`` is allowed and yields the degenerate one-entry
    trajectory.
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
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.kind in ("theta_standard", "theta_fmes"):
            if self.l is not None or self.m is not None:
                raise ValueError(f"{self.kind} takes no Pade indices l, m")
            if self.sigma is None or not (0.0 < self.sigma <= 1.0):
                raise ValueError("theta schemes need a weight sigma in (0, 1]")
            if self.sigma < 0.5:
                raise ValueError(
                    f"theta weight sigma = {self.sigma:g} is below 1/2, where "
                    f"|r(sigma, eta)| > 1 for eta > 2/(1 - 2 sigma): stiff "
                    f"modes would blow up; use sigma >= 0.5")
        else:
            if self.sigma is not None:
                raise ValueError(f"{self.kind} takes no theta weight sigma")
            if self.l is None or self.m is None:
                raise ValueError("Pade schemes need indices l and m")
            pade_coefficients(self.l, self.m)   # refuses invalid indices
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
        if self.lambda1 is not None and not math.isfinite(self.lambda1):
            raise ValueError(f"lambda1 must be finite, got {self.lambda1}")

    def params_label(self) -> str:
        if self.kind in ("theta_standard", "theta_fmes"):
            return f"sigma{np.format_float_positional(self.sigma, trim='-')}"
        return f"l{self.l}m{self.m}"


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def _partial_fractions(p: np.ndarray, q: np.ndarray):
    """Split R = P/Q (ascending coefficients, deg P <= deg Q, simple poles)
    into c0 + sum_j r_j / (z - z_j).

    Returns c0 and one (z_j, r_j, weight) per real pole or conjugate pair;
    a pair is represented by its upper pole with weight 2, since for a real
    argument the two terms are complex conjugates.  A real pole (imaginary
    part exactly 0) is returned as real, so its system is real.
    """
    c0 = p[-1] / q[-1] if p.size == q.size else 0.0
    dq = np.polyder(q[::-1])
    terms = []
    # a degree-1 Q's pole as np.roots gives it, without its eigensolve
    for z in [-q[0] / q[1]] if q.size == 2 else np.roots(q[::-1]):
        if z.imag < 0.0:
            continue
        r = np.polyval(p[::-1], z) / np.polyval(dq, z)
        terms.append((z.real, r.real, 1.0) if z.imag == 0.0 else (z, r, 2.0))
    return c0, terms


class _Projection:
    """Solves of one ``sparse.Multigrid``'s system A x = b for a sequence of
    right-hand sides, each by CG started from the Galerkin projection onto
    the last PROJECTION_SIZE solutions (Fischer, CMAME 163, 1998), at a few
    reductions per solve and no product with A.

    Row i of ``X`` holds a solution x_i of right-hand side b_i, slot by slot
    as a ring, and ``G[i, j] = x_i^T b_j`` approximates x_i^T A x_j, so the
    start is x0 = c X with G c = X b.  Both forms are unconjugated
    (conjugate orthogonal CG's for a complex A), so G is symmetric and a new
    pair (x, b) fills its row and its column of G with X b.  The stored
    solutions all tend to the slowest mode, so G turns singular on long
    runs: c is its least-squares solution with singular values below
    PROJECTION_RCOND times the largest dropped.  The reductions run in
    ``np.einsum``, without BLAS, so they do not depend on the thread count.
    ``solve`` takes b by the range rule (``sparse._solve_in_range``), so X
    and G hold in-range pairs: G neither overflows nor underflows.
    """

    def __init__(self, solver: Multigrid):
        self.solver = solver
        n, dtype = solver.operator.shape[0], solver.operator.dtype
        self.X = np.empty((PROJECTION_SIZE, n), dtype)
        self.G = np.empty((PROJECTION_SIZE, PROJECTION_SIZE), dtype)
        self.count = 0

    def solve(self, b: np.ndarray, tol: float) -> tuple[np.ndarray,
                                                         SolveReport]:
        """x with A x = b to CG's relative tolerance ``tol``."""
        return _solve_in_range(self._solve, b, tol)

    def _solve(self, b: np.ndarray, b_norm: float, tol: float):
        k = min(self.count, PROJECTION_SIZE)
        x0 = None
        if k:
            c = np.linalg.lstsq(self.G[:k, :k],
                                np.einsum("ij,j->i", self.X[:k], b),
                                rcond=PROJECTION_RCOND)[0]
            x0 = np.einsum("i,ij->j", c, self.X[:k])
        x, report = cg_solve(self.solver, b, tol, x0=x0)
        slot = self.count % PROJECTION_SIZE
        self.X[slot] = x
        self.count += 1
        k = min(self.count, PROJECTION_SIZE)
        self.G[slot, :k] = self.G[:k, slot] = np.einsum("ij,j->i",
                                                        self.X[:k], b)
        return x, report


class _RationalStepper:
    """Advance y' = s R(tau M^-1 Kt) y with Kt = K - mu M and s = exp(-mu tau).

    With R = c0 + sum_j r_j / (z - z_j) every pole costs one solve of
    (tau Kt - z_j M) x_j = s r_j M y, complex-symmetric for a complex pole,
    and y' = s c0 y + sum_j w_j Re x_j.  The poles of every admitted R lie
    in the left half-plane, so each system matrix (for a complex pole, its
    Hermitian part) is positive definite.  The solves run at
    OUTER_TOL / (1 + |c0|) because the c0 term cancels against the pole
    terms.

    Each pole is ``(s r, w, solving)``.  A ``BandedSolver`` is ``solving``
    itself.  A ``Multigrid``, with float32 levels, is the ``solver`` of a
    ``_Projection``: float64 CG preconditioned by it, each solve started
    from the projection onto the system's last solutions (README.md), so a
    stepper follows one trajectory.  ``advance(y, My)``, every step's body,
    substitutes a certified real band factor inline for an in-range b and
    calls the checked ``solving.solve`` otherwise.  Factors are made and
    certified on the first step (``_terms``): a failure names level 1.  An
    inline x's finiteness shows in y, which ``step`` and ``run_scheme`` test.
    """

    def __init__(self, sys: FemSystem, p: np.ndarray, q: np.ndarray,
                 tau: float, mu: float):
        self.M = sys.M
        self.scale = math.exp(-mu * tau)
        self.c0, terms = _partial_fractions(p, q)
        self.tol = OUTER_TOL / (1.0 + abs(self.c0))
        self.poles = []
        for z, r, w in terms:
            solver = choose_solver(_pole_operator(sys, tau, mu, z), sys.mesh)
            self.poles.append((self.scale * r, w,
                               solver if isinstance(solver, BandedSolver)
                               else _Projection(solver)))

    @functools.cached_property
    def _terms(self) -> list:   # each pole, with a band factor to substitute
        return [(sr, w, solving,
                 solving._factor if isinstance(solving, BandedSolver)
                 and not solving.is_complex and
                 solving.certificate.backward_bound <= self.tol else None)
                for sr, w, solving in self.poles]

    def advance(self, y: np.ndarray, My: np.ndarray) -> np.ndarray:
        out = self.scale * self.c0 * y if self.c0 else None
        for sr, w, solving, factor in self._terms:
            b = My if sr == 1.0 else sr * My    # theta_standard's s r is 1
            x, info = (dpbtrs(factor, b) if factor is not None and
                       _in_range(math.sqrt(np.vdot(b, b))) else (None, 1))
            if info:        # no in-range b on a certified band factor
                x = solving.solve(b, self.tol)[0]
            x = x if w == 1.0 else w * x.real   # a real pole's w is exactly 1
            out = x if out is None else out + x
        return out

    def step(self, y: np.ndarray, My: np.ndarray | None = None) -> np.ndarray:
        y = self.advance(y, self.M @ y if My is None else My)
        if not np.isfinite(y).all():
            raise ConvergenceError("state is not finite")
        return y


def _pole_operator(sys: FemSystem, tau: float, mu: float, z) -> sp.dia_matrix:
    """tau (K - mu M) - z M by scipy's DIA arithmetic's operations on each
    entry (so its bits), in place on K's and M's rows placed on their
    offsets' union (M's offsets when assembled or folded) and one scratch."""
    K, M = sp.dia_matrix(sys.K), sp.dia_matrix(sys.M)
    offsets, n = np.union1d(K.offsets, M.offsets), M.shape[1]
    Kd, Md = np.zeros((2, len(offsets), n))
    for A, data in ((K, Kd), (M, Md)):
        data[np.searchsorted(offsets, A.offsets), :A.data.shape[1]] = (
            A.data[:, :n])
    Kd -= (scratch := np.multiply(mu, Md))
    Kd *= tau
    zMd = np.multiply(z, Md, out=None if np.iscomplexobj(z) else scratch)
    return sp.dia_matrix((np.subtract(Kd, zMd, out=zMd), offsets), M.shape)


class _ModalStepper:
    """Apply exp(-lambda1 tau) R_lm((lambda_k - lambda1) tau) mode by mode,
    with the multipliers of each mirror block made once.  As for every FMES
    kind, ``lambda1`` is the basis's fundamental eigenvalue: the run's,
    which sits up to 1e-12 relative off ``eigh``'s, so the fundamental
    multiplier (the first of the block whose first eigenvalue is smallest)
    is exp(-lambda1 tau) R(0) = exp(-lambda1 tau).  A modal stepper follows
    one trajectory of ``n_steps`` steps, computed MODAL_CHUNK states
    ahead (chunk x n x 8 bytes): per block, C_b = [f c, f^2 c, ...] by
    repeated products c <- f c, then Q_b (W_b C_b), one dense product that
    reads W_b once per chunk.  Entries of C_b below the smallest normal
    float are set to zero before c is carried: such a coordinate adds less
    than 2^-1022 |W_b| to a state, and subnormal operands slow the dense
    product many times over.  A ``y`` equal to its last output takes the
    next state (after the chunk's last, from the carried c); any other ``y``
    is projected first (ModalBasis.coordinates)."""

    def __init__(self, basis: ModalBasis, l: int, m: int, tau: float,
                 lambda1: float, n_steps: int):
        scale = math.exp(-lambda1 * tau)
        self.multipliers = [scale * pade_rational(l, m, (lam - lambda1) * tau)
                            for _, lam, _ in basis.blocks]
        first = np.argmin([lam[0] for _, lam, _ in basis.blocks])
        self.multipliers[first][0] = scale
        self.basis, self.remaining = basis, n_steps
        self.states, self.coords, self.next = None, None, 0

    def step(self, y: np.ndarray, My: np.ndarray | None = None) -> np.ndarray:
        if (self.states is None
                or not np.array_equal(y, self.states[:, self.next - 1])):
            My = self.basis.mass @ y if My is None else My
            self._compute(self.basis.coordinates(My))
        elif self.next == self.states.shape[1]:
            self._compute(self.coords)
        self.next += 1
        self.remaining -= 1
        return self.states[:, self.next - 1].copy()

    advance = step      # run_scheme's name for a step

    def _compute(self, coords: list[np.ndarray]):
        k = max(1, min(MODAL_CHUNK, self.remaining))
        # column j + 1 is f times column j, the bits of c <- f c
        blocks = [np.cumprod(np.column_stack([f * c] + [f] * (k - 1)), axis=1)
                  for f, c in zip(self.multipliers, coords)]
        for C in blocks:
            C[np.abs(C) < np.finfo(float).tiny] = 0.0
        self.coords = [C[:, -1].copy() for C in blocks]
        self.states = self.basis.synthesize(blocks)
        self.next = 0


def make_stepper(spec: SchemeSpec, sys: FemSystem, *,
                 basis: ModalBasis | None = None):
    """Build the cached stepper object for a scheme specification.

    pade_modal steps with ``basis``, whose node count must match ``sys``.
    """
    if spec.kind == "pade_modal":
        if basis is None:
            raise ValueError("pade_modal needs a ModalBasis")
        if basis.mass.shape[0] != sys.n_nodes:
            raise ValueError(f"ModalBasis has {basis.mass.shape[0]} nodes, "
                             f"the system {sys.n_nodes}")
        return _ModalStepper(basis, spec.l, spec.m, spec.tau, spec.lambda1,
                             spec.n_steps)
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

    Each level is ``stepper.advance(y, M y)``; a non-finite one is refused.
    Its norm is ``sparse._mass_norm``'s, and every solve but an in-range
    inline substitution enters through ``sparse._solve_in_range``.

    Raises
    ------
    ValueError
        If w0 is not a finite vector of one value per node, or the basis
        does not fit the system, or from a step (a LAPACK info).
    ConvergenceError
        If a step's solve fails or its state is not finite.  A step's error
        names its level and chains the step's own, with its report.
    """
    y = np.array(w0, dtype=float)
    if y.shape != (sys.n_nodes,):
        raise ValueError(f"w0 has shape {y.shape}, expected ({sys.n_nodes},)")
    if not np.isfinite(y).all():
        raise ValueError("w0 has non-finite entries")
    stepper = make_stepper(spec, sys, basis=basis)

    n_steps = spec.n_steps
    keep = None if store_levels is None else set(store_levels) | {0, n_steps}
    times = np.arange(n_steps + 1) * spec.tau
    m_norms = np.empty(n_steps + 1)
    amplitudes = np.empty(n_steps + 1) if phi1 is not None else None
    vectors: dict[int, np.ndarray] = {}

    M, n = sp.dia_matrix(sys.M), len(y)
    # scipy's kernel of M @ y, called into zeros (private API; tested bits)
    dia = (*M.shape, len(M.offsets), M.data.shape[1], M.offsets, M.data)
    advance, fail = stepper.advance, f"{spec.kind} step failed at level"
    for level in range(n_steps + 1):
        if level:
            try:
                y = advance(y, My)
            except ConvergenceError as err:
                raise ConvergenceError(f"{fail} {level}: {err}",
                                       report=err.report) from err
            except ValueError as err:       # e.g. a LAPACK info
                raise ValueError(f"{fail} {level}: {err}") from err
        dia_matvec(*dia, y, My := np.zeros(n))
        m_norms[level] = norm = _mass_norm(M, y, My)
        # an inf or nan entry of y (of a pole's Re x) makes its term of
        # y^T M y non-finite: M's diagonal is positive
        if not (math.isfinite(norm) or np.isfinite(y).all()):
            raise ConvergenceError(f"{fail} {level}: state is not finite")
        if amplitudes is not None:      # phi1 @ My's bits, sooner
            amplitudes[level] = np.vdot(phi1, My)
        if keep is None or level in keep:
            vectors[level] = y
    return Trajectory(times=times, m_norms=m_norms,
                      amplitudes=amplitudes, vectors=vectors)
