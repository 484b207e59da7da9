"""Experiment runner: error metrics, reference solutions, CSV emission.

The runner reproduces the standard study for the model problem: assemble,
compute the fundamental eigenpair, advance each configured scheme from the
flat initial state u0 = 1 (whose mass projection is exactly the all-ones
nodal vector), and measure two errors per time level,

* eps_a, the defect in the fundamental-mode amplitude against its exact
  exponential decay, and
* eps_u, the relative mass-norm distance to a fine fully-implicit reference
  trajectory.

Every state is even under the node swap (ix, iy) -> (iy, ix), so all of it
runs on the system's mirror-even half (``assembly.half_system``), whose
mass norms and amplitudes are the whole system's; nothing is expanded.  One
CSV per run (columns t,norm_m,eps_a,eps_u) plus a summary CSV are written;
output is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .assembly import FemSystem, ProblemCoefficients, assemble, half_system
from .mesh import build_mesh
from .schemes import SchemeSpec, Trajectory, run_scheme
from .sparse import ConvergenceError, _mass_norm, fold
from .spectral import (MIN_SWEEPS, EigenPair, inverse_iteration,
                       modal_decompose)

OUTPUT_DIR_ENV = "FMES_OUTPUT_DIR"
_FMT = "%.17g"      # every number in the CSVs (_write_csv)


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
        return SchemeSpec(self.kind, tau=T / n_steps, n_steps=n_steps,
                          sigma=self.sigma, l=self.l, m=self.m,
                          lambda1=lambda1)

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
    eig_tol = eig_max_iter = None   # not fields; the benchmarks read them

    def __post_init__(self):
        # written as 0 < x < inf so that nan fails too
        if not 0.0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        if self.reference_steps < 1:
            raise ValueError("reference_steps must be >= 1")
        if not self.eigen_grids:
            raise ValueError("[eigen] grids must name at least one grid")
        if len(set(self.eigen_grids)) < len(self.eigen_grids):
            raise ValueError("[eigen] grids names a grid twice: "
                             + " ".join(map(str, self.eigen_grids)))
        runs = set()
        for req in self.schemes:
            # SchemeSpec holds the scheme rules; 0.0 stands in for lambda1
            req.to_spec(self.T, self.reference_steps, 0.0)
            if not req.steps:
                raise ValueError(f"scheme {req.kind} {req.params_label()} "
                                 "needs at least one step count")
            for n in req.steps:
                if n < 1:
                    raise ValueError(f"step count must be >= 1, got {n}")
                if self.reference_steps % n != 0:
                    raise ValueError(
                        f"step count {n} must divide reference_steps "
                        f"{self.reference_steps}")
                run = (req.kind, req.params_label(), n)
                if run in runs:
                    raise ValueError(f"run {req.kind} {run[1]} N={n} is "
                                     f"requested twice")
                runs.add(run)


def resolve_output_dir(config: ExperimentConfig) -> Path:
    """Configured output directory, overridable by the environment."""
    return Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def epsilon_u(y_n: np.ndarray, reference_n: np.ndarray, M: sp.spmatrix,
              y_norm: float | np.ndarray | None = None):
    """Relative error ||y^n - ref^n||_M / ||y^n||_M; y_norm is ||y^n||_M.
    Levels stacked in rows take one mass product, each with its own bits."""
    y_n = np.asarray(y_n, dtype=float)
    diff = np.atleast_2d(y_n - np.asarray(reference_n, dtype=float))
    den = (np.atleast_1d(y_norm) if y_norm is not None else
           [_mass_norm(M, y) for y in np.atleast_2d(y_n)])
    if not np.all(den):
        raise ValueError("relative error undefined: ||y^n||_M is zero")
    Mdiff = np.ascontiguousarray((M @ diff.T).T)    # C rows: vdot's bits
    eps = np.array([_mass_norm(M, d, Md) for d, Md in zip(diff, Mdiff)]) / den
    return eps if y_n.ndim == 2 else float(eps[0])


# ---------------------------------------------------------------------------
# reference trajectory
# ---------------------------------------------------------------------------

def make_reference(sys: FemSystem, w0: np.ndarray, T: float,
                   n_steps: int = 1000,
                   coarse_steps: tuple[int, ...] = (10, 20, 40, 100),
                   ) -> Trajectory:
    """Run the fully implicit scheme on the fine time grid and keep the
    vectors only at the sample times of the coarse runs: level n of an
    N-step run is reference level ``n * (n_steps // N)``.

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
        needed.update(range(0, n_steps + 1, n_steps // n))
    spec = SchemeSpec("theta_standard", tau=T / n_steps, n_steps=n_steps,
                      sigma=1.0)
    return run_scheme(spec, sys, w0, store_levels=needed)


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


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write path, making its directory: the header, then one row per index
    of the columns (sequences or arrays).  Strings are written as they are,
    every other value as _FMT, which writes an int as str does; an array
    goes through .tolist(), and all rows through one row format."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    row = ",".join("%s" if isinstance(c[0], str) else _FMT for c in columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header, *(row % r for r in zip(*columns)), ""]))


def initial_state(sys: FemSystem) -> np.ndarray:
    """Mass projection of u0 = 1: exactly the all-ones nodal vector."""
    return np.ones(sys.n_nodes)


def run_table1(config: ExperimentConfig) -> dict[int, EigenPair]:
    """The eigenpair of each configured grid; writes eigen_iterations.csv
    (one column of the first MIN_SWEEPS estimates per grid)."""
    pairs: dict[int, EigenPair] = {}
    for n_side in config.eigen_grids:
        mesh = build_mesh(n_side)
        sys = assemble(mesh, config.coefficients)
        pairs[n_side] = inverse_iteration(sys)
    _write_csv(resolve_output_dir(config) / "eigen_iterations.csv",
               "m," + ",".join(f"nside_{n}" for n in config.eigen_grids),
               range(1, MIN_SWEEPS + 1),
               *(pairs[n].history[:MIN_SWEEPS] for n in config.eigen_grids))
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

    eps_u at level n of an N-step run is measured against level
    ``n * (reference_steps // N)`` of the make_reference trajectory.  A run
    whose stepping fails is recorded (its error message, nan metrics) and
    the remaining runs continue.  With an empty scheme list only the
    eigenpair summary is emitted.  ``output_dir`` bypasses the
    config/environment resolution (used by sweeps writing one subdirectory
    per variant).  pade_modal schemes share one dense modal basis of the
    half; it (refused above 2500 mesh nodes) and the eigenpair are computed
    before the output directory is made, so an unconverged eigensolve
    raises ConvergenceError and leaves no output behind.
    """
    mesh = build_mesh(config.n_side)
    full = assemble(mesh, config.coefficients)
    sys = half_system(full) or full
    basis = (modal_decompose(sys) if any(req.kind == "pade_modal"
                                         for req in config.schemes) else None)
    pair = inverse_iteration(sys)
    outdir = Path(output_dir) if output_dir is not None else resolve_output_dir(config)
    _write_csv(outdir / "eigenpair.csv",
               "n_side,c,lambda1_bar,lambda1,iterations,residual",
               *([x] for x in (config.n_side, config.coefficients.c,
                               pair.lambda1_bar, pair.lambda1,
                               pair.iterations, pair.residual)))

    runs: list[RunResult] = []
    if not config.schemes:
        return ExperimentResult(eigenpair=pair, runs=runs, output_dir=outdir)

    w0 = initial_state(sys)
    phi1 = pair.phi1 if sys.whole is None else pair.phi1[fold(mesh.n_side).rep]
    all_steps = tuple(sorted({n for req in config.schemes for n in req.steps}))
    reference = make_reference(sys, w0, config.T, config.reference_steps,
                               all_steps)

    for req in config.schemes:
        for n_steps in req.steps:
            spec = req.to_spec(config.T, n_steps, pair.lambda1)
            try:
                traj = run_scheme(spec, sys, w0, phi1=phi1, basis=basis)
            except ConvergenceError as err:
                runs.append(RunResult(req.kind, req.params_label(), n_steps,
                                      error=str(err)))
                continue
            eps_a = traj.amplitudes - traj.amplitudes[0] * np.exp(
                -pair.lambda1 * traj.times)
            stride = config.reference_steps // n_steps
            try:
                eps_u = epsilon_u(
                    [traj.vector_at(n) for n in range(n_steps + 1)],
                    [reference.vector_at(n * stride)
                     for n in range(n_steps + 1)], sys.M, traj.m_norms)
            except ValueError as err:       # a state that is exactly zero
                runs.append(RunResult(req.kind, req.params_label(), n_steps,
                                      error=str(err)))
                continue
            name = f"{req.kind}_{req.params_label()}_N{n_steps}.csv"
            _write_csv(outdir / name, "t,norm_m,eps_a,eps_u",
                       traj.times, traj.m_norms, eps_a, eps_u)
            runs.append(RunResult(
                req.kind, req.params_label(), n_steps,
                max_eps_a=float(np.max(np.abs(eps_a))),
                max_eps_u=float(np.max(eps_u)),
                final_norm=float(traj.m_norms[-1]), csv_name=name))

    _write_csv(outdir / "summary.csv",
               "scheme,params,N,max_eps_a,max_eps_u,final_norm",
               *zip(*((r.kind, r.params, r.n_steps, r.max_eps_a,
                       r.max_eps_u, r.final_norm) for r in runs)))
    return ExperimentResult(eigenpair=pair, runs=runs, output_dir=outdir)


def sweep_reaction(config: ExperimentConfig, c_values: tuple[float, ...] = (0.0, 10.0, 30.0),
                   ) -> dict[float, ExperimentResult]:
    """Re-run the experiment for several reaction constants, one output
    subdirectory per value, labelled like ``SchemeSpec.params_label``."""
    results: dict[float, ExperimentResult] = {}
    base_out = resolve_output_dir(config)
    for c in c_values:
        cfg = replace(config, coefficients=replace(config.coefficients, c=c))
        label = "c" + np.format_float_positional(c, trim="-")
        results[c] = run_experiment(cfg, output_dir=base_out / label)
    return results
