"""Experiment runner: error metrics, reference solutions, CSV emission.

The runner reproduces the standard study for the model problem: assemble,
compute the fundamental eigenpair, advance each configured scheme from the
flat initial state u0 = 1 (whose mass projection is exactly the all-ones
nodal vector), and measure two errors per time level,

* eps_a, the defect in the fundamental-mode amplitude against its exact
  exponential decay, and
* eps_u, the relative mass-norm distance to a fine fully-implicit reference
  trajectory.

One CSV per run (columns t,norm_m,eps_a,eps_u) plus a summary CSV are
written; output is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .assembly import FemSystem, ProblemCoefficients, assemble
from .mesh import build_mesh
from .schemes import SchemeSpec, run_scheme
from .sparse import ConvergenceError
from .spectral import EigenPair, inverse_iteration, modal_decompose

OUTPUT_DIR_ENV = "FMES_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeRequest:
    """A scheme family plus the list of step counts to run it with."""

    kind: str
    sigma: float | None = None
    l: int | None = None
    m: int | None = None
    steps: tuple[int, ...] = (10, 20, 40, 100)

    def to_spec(self, T: float, n_steps: int, lambda1: float) -> SchemeSpec:
        lam = None if self.kind == "theta_standard" else lambda1
        return SchemeSpec(self.kind, tau=T / n_steps, n_steps=n_steps,
                          sigma=self.sigma, l=self.l, m=self.m, lambda1=lam)

    # the label reads only kind, sigma, l and m, which both classes carry
    params_label = SchemeSpec.params_label


BASELINE_SCHEMES = (
    SchemeRequest("theta_standard", sigma=1.0),
    SchemeRequest("theta_fmes", sigma=1.0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; defaults are the baseline study
    (n_side 26, discontinuous diffusivity, c = 0, T = 0.1, fully implicit
    standard vs. shifted scheme at N in 10/20/40/100, reference N = 1000)."""

    n_side: int = 26
    coefficients: ProblemCoefficients = ProblemCoefficients()
    T: float = 0.1
    schemes: tuple[SchemeRequest, ...] = BASELINE_SCHEMES
    reference_steps: int = 1000
    eigen_grids: tuple[int, ...] = (26, 51, 101)
    output_dir: str = "results"
    eig_tol: float = 1e-13
    eig_max_iter: int = 50

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.reference_steps < 1:
            raise ValueError("reference_steps must be >= 1")
        for req in self.schemes:
            # SchemeSpec holds the scheme rules; 0.0 stands in for lambda1
            req.to_spec(self.T, self.reference_steps, 0.0)
            for n in req.steps:
                if n < 1:
                    raise ValueError(f"step count must be >= 1, got {n}")
                if self.reference_steps % n != 0:
                    raise ValueError(
                        f"step count {n} must divide reference_steps "
                        f"{self.reference_steps}")


def resolve_output_dir(config: ExperimentConfig) -> Path:
    """Configured output directory, overridable by the environment."""
    return Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def epsilon_u(y_n: np.ndarray, reference_n: np.ndarray, M: sp.spmatrix) -> float:
    """Relative solution error ||y^n - ref^n||_M / ||y^n||_M."""
    y_n = np.asarray(y_n, dtype=float)
    diff = y_n - np.asarray(reference_n, dtype=float)
    den = math.sqrt(float(y_n @ (M @ y_n)))
    if den == 0.0:
        raise ValueError("relative error undefined: ||y^n||_M is zero")
    return math.sqrt(float(diff @ (M @ diff))) / den


# ---------------------------------------------------------------------------
# reference trajectory
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    """Fully implicit fine-grid trajectory sampled where coarse runs need it."""

    n_steps: int
    vectors: dict[int, np.ndarray] = field(repr=False)

    def at(self, coarse_steps: int, level: int) -> np.ndarray:
        """Reference vector at time level ``level`` of a coarse run with
        ``coarse_steps`` steps over the same interval."""
        if self.n_steps % coarse_steps != 0:
            raise ValueError(f"reference with {self.n_steps} steps cannot be "
                             f"sampled at a {coarse_steps}-step run")
        return self.vectors[level * (self.n_steps // coarse_steps)]


def make_reference(sys: FemSystem, w0: np.ndarray, T: float,
                   n_steps: int = 1000,
                   coarse_steps: tuple[int, ...] = (10, 20, 40, 100),
                   ) -> Reference:
    """Run the fully implicit scheme on the fine time grid and keep the
    vectors at every sample time of the coarse runs.

    Raises
    ------
    ValueError
        If some coarse step count exceeds n_steps or does not divide it
        (sample times would not align).
    """
    needed: set[int] = {0, n_steps}
    for n in coarse_steps:
        if n < 1 or n > n_steps or n_steps % n != 0:
            raise ValueError(
                f"coarse step count {n} must divide reference n_steps {n_steps}")
        stride = n_steps // n
        needed.update(range(0, n_steps + 1, stride))
    spec = SchemeSpec("theta_standard", tau=T / n_steps, n_steps=n_steps,
                      sigma=1.0)
    traj = run_scheme(spec, sys, w0, store_levels=needed)
    return Reference(n_steps=n_steps, vectors=traj.vectors)


# ---------------------------------------------------------------------------
# runs and CSV output
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """The summary.csv row of one scheme run; a failed run keeps its error
    and nan metrics."""

    kind: str
    params: str
    n_steps: int
    max_eps_a: float = math.nan
    max_eps_u: float = math.nan
    final_norm: float = math.nan
    error: str | None = None
    csv_name: str | None = None

    @property
    def converged(self) -> bool:
        return self.error is None


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def run_csv_name(kind: str, params: str, n_steps: int) -> str:
    return f"{kind}_{params}_N{n_steps}.csv"


def initial_state(sys: FemSystem) -> np.ndarray:
    """Mass projection of u0 = 1: exactly the all-ones nodal vector."""
    return np.ones(sys.n_nodes)


def run_table1(config: ExperimentConfig) -> dict[int, EigenPair]:
    """Inverse iteration on each configured grid, ten iterations minimum.

    Returns the eigenpair per grid and writes eigen_iterations.csv (one
    column of estimates per grid) into the output directory.
    """
    pairs: dict[int, EigenPair] = {}
    for n_side in config.eigen_grids:
        mesh = build_mesh(n_side)
        sys = assemble(mesh, config.coefficients)
        pairs[n_side] = inverse_iteration(sys, tol=config.eig_tol,
                                          max_iter=config.eig_max_iter,
                                          min_iter=10)
    outdir = resolve_output_dir(config)
    outdir.mkdir(parents=True, exist_ok=True)
    header = "m," + ",".join(f"nside_{n}" for n in config.eigen_grids)
    rows = []
    for i in range(10):
        row = [str(i + 1)]
        for n_side in config.eigen_grids:
            row.append(_fmt(pairs[n_side].history[i]))
        rows.append(row)
    _write_csv(outdir / "eigen_iterations.csv", header, rows)
    return pairs


@dataclass
class ExperimentResult:
    eigenpair: EigenPair
    runs: list[RunResult]
    output_dir: Path

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.runs)

    def find_run(self, kind: str, params: str, n_steps: int) -> RunResult:
        for r in self.runs:
            if (r.kind, r.params, r.n_steps) == (kind, params, n_steps):
                return r
        raise KeyError(f"no run {kind}/{params}/N{n_steps}")


def run_experiment(config: ExperimentConfig,
                   output_dir: Path | str | None = None) -> ExperimentResult:
    """Assemble, eigensolve, run every scheme/step-count pair, write CSVs.

    A failing run is recorded (its error message, nan metrics) and the
    remaining runs continue.  With an empty scheme list only the eigenpair
    summary is emitted.  ``output_dir`` bypasses the config/environment
    resolution (used by sweeps writing one subdirectory per variant).
    pade_modal schemes share one dense modal basis, built (or refused
    above 2500 nodes) before the output directory is made.
    """
    mesh = build_mesh(config.n_side)
    sys = assemble(mesh, config.coefficients)
    basis = (modal_decompose(sys) if any(req.kind == "pade_modal"
                                         for req in config.schemes) else None)
    outdir = Path(output_dir) if output_dir is not None else resolve_output_dir(config)
    outdir.mkdir(parents=True, exist_ok=True)
    pair = inverse_iteration(sys, tol=config.eig_tol,
                             max_iter=config.eig_max_iter)
    _write_csv(outdir / "eigenpair.csv",
               "n_side,c,lambda1_bar,lambda1,iterations,residual",
               [[str(config.n_side), _fmt(config.coefficients.c),
                 _fmt(pair.lambda1_bar), _fmt(pair.lambda1),
                 str(pair.iterations), _fmt(pair.residual)]])

    runs: list[RunResult] = []
    if not config.schemes:
        return ExperimentResult(eigenpair=pair, runs=runs, output_dir=outdir)

    w0 = initial_state(sys)
    all_steps = tuple(sorted({n for req in config.schemes for n in req.steps}))
    reference = make_reference(sys, w0, config.T, config.reference_steps,
                               all_steps)

    for req in config.schemes:
        for n_steps in req.steps:
            spec = req.to_spec(config.T, n_steps, pair.lambda1)
            try:
                traj = run_scheme(spec, sys, w0, phi1=pair.phi1, basis=basis)
            except ConvergenceError as err:
                runs.append(RunResult(req.kind, req.params_label(), n_steps,
                                      error=str(err)))
                continue
            eps_a = traj.amplitudes - traj.amplitudes[0] * np.exp(
                -pair.lambda1 * traj.times)
            eps_u = np.array([
                epsilon_u(traj.vector_at(n), reference.at(n_steps, n), sys.M)
                for n in range(n_steps + 1)])
            name = run_csv_name(req.kind, req.params_label(), n_steps)
            _write_csv(outdir / name, "t,norm_m,eps_a,eps_u",
                       ([_fmt(traj.times[n]), _fmt(traj.m_norms[n]),
                         _fmt(eps_a[n]), _fmt(eps_u[n])]
                        for n in range(n_steps + 1)))
            runs.append(RunResult(
                req.kind, req.params_label(), n_steps,
                max_eps_a=float(np.max(np.abs(eps_a))),
                max_eps_u=float(np.max(eps_u)),
                final_norm=float(traj.m_norms[-1]), csv_name=name))

    _write_csv(outdir / "summary.csv",
               "scheme,params,N,max_eps_a,max_eps_u,final_norm",
               ([r.kind, r.params, str(r.n_steps), _fmt(r.max_eps_a),
                 _fmt(r.max_eps_u), _fmt(r.final_norm)] for r in runs))
    return ExperimentResult(eigenpair=pair, runs=runs, output_dir=outdir)


def sweep_reaction(config: ExperimentConfig, c_values: tuple[float, ...] = (0.0, 10.0, 30.0),
                   ) -> dict[float, ExperimentResult]:
    """Re-run the experiment for several reaction constants, one output
    subdirectory per value."""
    results: dict[float, ExperimentResult] = {}
    base_out = resolve_output_dir(config)
    for c in c_values:
        cfg = replace(config, coefficients=replace(config.coefficients, c=c))
        results[c] = run_experiment(cfg, output_dir=base_out / f"c{c:g}")
    return results
