import math
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fmes import (assemble, build_mesh, experiments, inverse_iteration,
                  m_norm, sparse, spectral)
from fmes.assembly import ProblemCoefficients
from fmes.config import default_config_text, load_config, parse_config
from fmes.experiments import (ExperimentConfig, SchemeRequest, epsilon_u,
                              initial_state, make_reference, run_experiment,
                              run_table1, sweep_reaction)
from fmes.schemes import SchemeSpec, run_scheme
from fmes.sparse import ConvergenceError
from fmes.spectral import exact_semidiscrete_solution


SMALL_SCHEMES = (SchemeRequest("theta_standard", sigma=1.0, steps=(5, 10)),
                 SchemeRequest("theta_fmes", sigma=1.0, steps=(5, 10)))


def _small_config(tmp_path, **overrides):
    base = dict(n_side=6, schemes=SMALL_SCHEMES, reference_steps=100,
                eigen_grids=(6,), output_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_epsilon_a_fmes_trajectory_bounded(sys6, pair6):
    w0 = initial_state(sys6)
    spec = SchemeSpec("theta_fmes", tau=0.01, n_steps=10, sigma=1.0,
                      lambda1=pair6.lambda1)
    traj = run_scheme(spec, sys6, w0, phi1=pair6.phi1)
    a0 = abs(traj.amplitudes[0])
    eps = traj.amplitudes - traj.amplitudes[0] * np.exp(
        -pair6.lambda1 * traj.times)
    assert eps[0] == 0.0
    assert np.all(np.abs(eps) <= 1e-9 * a0)


def test_epsilon_a_standard_scheme_first_order(sys6, pair6):
    w0 = initial_state(sys6)
    maxima = {}
    for n_steps in (10, 100):
        spec = SchemeSpec("theta_standard", tau=0.1 / n_steps,
                          n_steps=n_steps, sigma=1.0)
        traj = run_scheme(spec, sys6, w0, phi1=pair6.phi1)
        eps = traj.amplitudes - traj.amplitudes[0] * np.exp(
            -pair6.lambda1 * traj.times)
        maxima[n_steps] = np.abs(eps).max()
    assert maxima[10] / maxima[100] == pytest.approx(10.0, abs=2.0)


def test_epsilon_u_basics(sys6, rng):
    y = rng.standard_normal(sys6.n_nodes)
    assert epsilon_u(y, y, sys6.M) == 0.0
    assert epsilon_u(2.0 * y, y, sys6.M) == pytest.approx(0.5, rel=1e-13)
    with pytest.raises(ValueError):
        epsilon_u(np.zeros(sys6.n_nodes), y, sys6.M)


@pytest.mark.parametrize("scale", [0, -700])
def test_epsilon_u_takes_the_trajectory_norm_bit_for_bit(sys6, rng, scale):
    # run_experiment passes Trajectory.m_norms[n] for ||y^n||_M, also for
    # states whose squared norm leaves the float range
    w0 = np.ldexp(initial_state(sys6), scale)
    spec = SchemeSpec("theta_standard", tau=0.01, n_steps=5, sigma=1.0)
    traj = run_scheme(spec, sys6, w0)
    ref = w0 + np.ldexp(rng.standard_normal(sys6.n_nodes), scale - 10)
    for n in range(6):
        assert (epsilon_u(traj.vector_at(n), ref, sys6.M, traj.m_norms[n])
                == epsilon_u(traj.vector_at(n), ref, sys6.M))
    # the levels stacked take one mass product and keep each level's bits
    states = [traj.vector_at(n) for n in range(6)]
    assert np.array_equal(
        epsilon_u(states, [ref] * 6, sys6.M, traj.m_norms),
        [m_norm(sys6, y - ref) / m_norm(sys6, y) for y in states])
    with pytest.raises(ValueError, match="is zero"):
        epsilon_u(states + [0.0 * ref], [ref] * 7, sys6.M)


def test_mass_norms_are_invariant_under_a_power_of_2_scale(sys6, rng):
    # (2^-700 y)^T M (2^-700 y) underflows to zero and (2^700 y)^T M
    # (2^700 y) overflows; the norms rescale by a power of 2, exactly
    y = rng.standard_normal(sys6.n_nodes)
    ref = y + 1e-3 * rng.standard_normal(sys6.n_nodes)
    tiny = np.ldexp(y, -700)
    assert tiny @ (sys6.M @ tiny) == 0.0
    assert (epsilon_u(tiny, np.ldexp(ref, -700), sys6.M)
            == epsilon_u(y, ref, sys6.M))
    assert m_norm(sys6, tiny) == np.ldexp(m_norm(sys6, y), -700)
    assert m_norm(sys6, np.ldexp(y, 700)) == np.ldexp(m_norm(sys6, y), 700)


# ---------------------------------------------------------------------------
# reference trajectory
# ---------------------------------------------------------------------------

def test_reference_starts_at_initial_state(sys6):
    w0 = initial_state(sys6)
    ref = make_reference(sys6, w0, 0.1, 50, (5, 10))
    assert ref.vector_at(0) == pytest.approx(w0, abs=0)


def test_reference_stores_only_sample_levels(sys6):
    # levels 0 and n_steps plus every multiple of 50 // 5 and 50 // 25
    ref = make_reference(sys6, initial_state(sys6), 0.1, 50, (5, 25))
    assert set(ref.vectors) == set(range(0, 51, 2))
    ref = make_reference(sys6, initial_state(sys6), 0.1, 50, (5,))
    assert set(ref.vectors) == {0, 10, 20, 30, 40, 50}
    ref = make_reference(sys6, initial_state(sys6), 0.1, 50, ())
    assert set(ref.vectors) == {0, 50}
    assert len(ref.m_norms) == 51


def test_reference_rejects_nondivisible_steps(sys6):
    w0 = initial_state(sys6)
    with pytest.raises(ValueError):
        make_reference(sys6, w0, 0.1, 100, (7,))
    with pytest.raises(ValueError):
        make_reference(sys6, w0, 0.1, 100, (200,))


def test_reference_first_order_against_modal_oracle(sys6, basis6):
    # reference discrepancy to the exact semi-discrete solution halves when
    # the reference grid is refined twofold
    w0 = initial_state(sys6)
    T, coarse = 0.1, 5
    worst = {}
    for n_ref in (250, 500):
        ref = make_reference(sys6, w0, T, n_ref, (coarse,))
        ds = []
        for lvl in range(1, coarse + 1):
            exact = exact_semidiscrete_solution(basis6, w0, lvl * T / coarse)
            ds.append(epsilon_u(exact, ref.vector_at(lvl * n_ref // coarse),
                                sys6.M))
        worst[n_ref] = max(ds)
    assert 1.7 <= worst[250] / worst[500] <= 2.3


def test_reference_norm_decays_monotonically(sys6):
    w0 = initial_state(sys6)
    spec = SchemeSpec("theta_standard", tau=0.1 / 50, n_steps=50, sigma=1.0)
    traj = run_scheme(spec, sys6, w0)
    assert np.all(np.diff(traj.m_norms) < 0)


@pytest.mark.parametrize("mu, T", [(10.0, 0.1), (0.01, 1e4)],
                         ids=["defaults", "weak"])
def test_reference_fundamental_amplitude_has_a_closed_form(mu, T):
    # The reference's fundamental amplitude a_k = phi1^T M y_k is
    # a_0 rho^k, rho = 1 / (1 + lambda1 tau), up to the eigenpair's and
    # the solves' residuals: with K phi1 = lambda1 M phi1 + r and
    # (M + tau K) y_k = M y_(k-1) + s_k, exactly
    # a_k = rho (a_(k-1) + phi1^T s_k - tau r^T y_k).  r and s_k are formed
    # in long double, adding gamma_10 (u_ld) of their terms' absolute sums;
    # a_k's own product adds gamma_8 |phi1|^T |M| |y_k| (rho^k that of a_0),
    # and the closed form's rounding (2k + 3) u of itself.  Measured: 5e-14
    # relative on the default run, 6.5e-9 after the weakly damped run's
    # 1,000 steps of tau 10 (lambda1 tau = 0.2).
    config = ExperimentConfig()
    n = config.reference_steps
    sys = assemble(build_mesh(config.n_side),
                   ProblemCoefficients(mu_right_top=mu))
    pair = inverse_iteration(sys)
    lam1, tau, phi = pair.lambda1, T / n, pair.phi1
    ref = make_reference(sys, initial_state(sys), T, n, (n,))  # every level
    u, u_ld = np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2
    M, K = sys.M.astype(np.longdouble), sys.K.astype(np.longdouble)
    z = phi.astype(np.longdouble)
    r = (np.abs(K @ z - lam1 * (M @ z))
         + 10 * u_ld * (abs(K) @ np.abs(z) + lam1 * (abs(M) @ np.abs(z))))
    rho = 1.0 / (1.0 + lam1 * tau)

    def rounding(y):
        return 8 * u * (np.abs(phi) @ (abs(sys.M) @ np.abs(y)))

    a0, residuals = phi @ (sys.M @ ref.vector_at(0)), 0.0
    for k in range(1, n + 1):
        y, prev = (ref.vector_at(j).astype(np.longdouble) for j in (k, k - 1))
        s = (np.abs(M @ y + tau * (K @ y) - M @ prev)
             + 10 * u_ld * (abs(M) @ np.abs(y) + tau * (abs(K) @ np.abs(y))
                            + abs(M) @ np.abs(prev)))
        residuals = rho * (residuals + np.abs(z) @ s + tau * (r @ np.abs(y)))
        closed = a0 * (1.0 + lam1 * tau) ** -k
        bound = (float(residuals) + rounding(ref.vector_at(k))
                 + rho ** k * rounding(ref.vector_at(0))
                 + (2 * k + 3) * u * abs(closed))
        assert abs(phi @ (sys.M @ ref.vector_at(k)) - closed) <= bound


def test_initial_state_is_all_ones(sys6):
    w0 = initial_state(sys6)
    assert np.all(w0 == 1.0)
    # projection identity (w0, v)_M = (1, v)_M holds by construction
    assert sys6.M @ w0 == pytest.approx(sys6.M @ np.ones(sys6.n_nodes), abs=0)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def test_zero_schemes_emit_only_eigenpair(tmp_path):
    config = _small_config(tmp_path, schemes=())
    result = run_experiment(config)
    out = Path(config.output_dir)
    assert (out / "eigenpair.csv").exists()
    assert not (out / "summary.csv").exists()
    assert result.runs == []
    assert result.eigenpair.lambda1_bar > 0


def test_run_experiment_csvs_and_summary(tmp_path):
    config = _small_config(tmp_path)
    result = run_experiment(config)
    out = result.output_dir
    assert result.all_converged
    for req in config.schemes:
        for n in req.steps:
            path = out / f"{req.kind}_{req.params_label()}_N{n}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "t,norm_m,eps_a,eps_u"
            assert len(lines) == n + 2          # header + n_steps + 1 records
            first = lines[1].split(",")
            assert float(first[0]) == 0.0
            assert float(first[2]) == 0.0 and float(first[3]) == 0.0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "scheme,params,N,max_eps_a,max_eps_u,final_norm"
    assert len(summary) == 1 + 4


def test_run_experiment_pade_modal(tmp_path, sys6):
    config = _small_config(tmp_path, schemes=(
        SchemeRequest("pade_modal", l=2, m=2, steps=(5, 10)),))
    result = run_experiment(config)
    assert result.all_converged
    a0 = abs(result.eigenpair.phi1 @ (sys6.M @ initial_state(sys6)))
    for n in (5, 10):
        run = result.find_run("pade_modal", "l2m2", n)
        assert (result.output_dir / run.csv_name).exists()
        assert run.max_eps_a <= 1e-8 * a0


def test_failed_run_is_a_nan_summary_row(tmp_path, monkeypatch):
    def failing(spec, *args, **kwargs):
        if spec.kind == "theta_fmes":
            raise ConvergenceError("forced failure")
        return run_scheme(spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_scheme", failing)
    result = run_experiment(_small_config(tmp_path))
    assert not result.all_converged
    failed = result.find_run("theta_fmes", "sigma1", 5)
    assert not failed.converged and failed.error == "forced failure"
    assert result.find_run("theta_standard", "sigma1", 5).converged
    with pytest.raises(KeyError, match="no run theta_fmes/sigma1/N7"):
        result.find_run("theta_fmes", "sigma1", 7)
    summary = (result.output_dir / "summary.csv").read_text().splitlines()
    assert "theta_fmes,sigma1,5,nan,nan,nan" in summary
    assert not (result.output_dir / "theta_fmes_sigma1_N5.csv").exists()


def test_long_run_keeps_positive_norms(tmp_path, sys6, basis6):
    # at T = 100 the fundamental-mode-exact runs decay to about 1e-208, far
    # below the ~1e-154 where y^T M y and ||b||^2 underflow; every norm_m
    # stays finite and positive, and the fundamental mode still decays as
    # exp(-lambda1 t).  Each step's solve is backward stable for the pole
    # matrix M + tau (K - lambda1 M), whose pencil eigenvalues reach
    # 1 + tau (lambda_max - lambda1), so N steps of tau = T / N move the
    # fundamental amplitude by about u T (lambda_max - lambda1), 6.3e-11
    # here; it moved by 3.3e-12 (N = 10) and 8.7e-13 (N = 100)
    schemes = tuple(SchemeRequest(kind, sigma=1.0, steps=(10, 100))
                    for kind in ("theta_standard", "theta_fmes"))
    result = run_experiment(_small_config(tmp_path, T=100.0,
                                          schemes=schemes))
    assert result.all_converged
    for run in result.runs:
        rows = np.loadtxt(result.output_dir / run.csv_name, delimiter=",",
                          skiprows=1)
        assert np.isfinite(rows).all() and (rows[:, 1] > 0.0).all()
    pair = result.eigenpair
    a0 = pair.phi1 @ (sys6.M @ initial_state(sys6))
    drift = (np.finfo(float).eps / 2 * 100.0
             * (basis6.eigenvalues[-1] - pair.lambda1))
    for n in (10, 100):
        final = result.find_run("theta_fmes", "sigma1", n).final_norm
        assert final < 1e-200
        assert final == pytest.approx(a0 * np.exp(-100.0 * pair.lambda1),
                                      rel=drift, abs=0.0)


def test_a_state_that_underflows_to_zero_is_a_failed_run(tmp_path):
    # at T = 1e4, exp(-lambda1 tau) is 0 for 10 steps: the state is exactly
    # zero and has no relative error; the other runs still get their CSVs
    schemes = tuple(SchemeRequest(kind, sigma=1.0, steps=(10, 100))
                    for kind in ("theta_standard", "theta_fmes"))
    result = run_experiment(_small_config(tmp_path, T=1e4, schemes=schemes))
    assert not result.all_converged            # fmes run exits 1
    failed = result.find_run("theta_fmes", "sigma1", 10)
    assert failed.error == "relative error undefined: ||y^n||_M is zero"
    assert result.find_run("theta_standard", "sigma1", 10).converged
    summary = (result.output_dir / "summary.csv").read_text().splitlines()
    assert "theta_fmes,sigma1,10,nan,nan,nan" in summary


def test_fmes_beats_standard_in_summary(tmp_path):
    config = _small_config(tmp_path)
    result = run_experiment(config)
    for n in (5, 10):
        std = result.find_run("theta_standard", "sigma1", n)
        fm = result.find_run("theta_fmes", "sigma1", n)
        assert fm.max_eps_u < std.max_eps_u
        assert fm.max_eps_a < 1e-8
        assert std.max_eps_a > 1e-4


def test_csv_output_deterministic(tmp_path):
    config1 = _small_config(tmp_path / "a")
    config2 = _small_config(tmp_path / "b")
    out1 = run_experiment(config1).output_dir
    out2 = run_experiment(config2).output_dir
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# the reference in a forked child
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """run_experiment forks as on 2 cores at one BLAS thread; the list
    counts its forks."""
    monkeypatch.setattr(experiments, "_overlap", lambda: True)
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def any_size(monkeypatch):
    """run_experiment may fork at any size (with forks)."""
    monkeypatch.setattr(experiments, "FORK_WORK", 0)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_and_in_order_runs_write_the_same_bytes(tmp_path, forks,
                                                       any_size, monkeypatch):
    schemes = SMALL_SCHEMES + (
        SchemeRequest("pade_fmes", l=0, m=2, steps=(5,)),
        SchemeRequest("pade_modal", l=2, m=2, steps=(10,)))
    config = _small_config(tmp_path, n_side=11, schemes=schemes)
    forked = run_experiment(config, tmp_path / "forked").output_dir
    assert forks == [1]
    _assert_no_child_left()
    monkeypatch.setattr(experiments, "_overlap", lambda: False)
    in_order = run_experiment(config, tmp_path / "in_order").output_dir
    assert forks == [1]
    names = sorted(path.name for path in forked.iterdir())
    assert names == sorted(path.name for path in in_order.iterdir())
    assert len(names) == 8
    for name in names:
        assert (forked / name).read_bytes() == (in_order / name).read_bytes()


@pytest.mark.parametrize("error", [ConvergenceError, ValueError])
def test_a_child_error_arrives_with_its_message(tmp_path, forks, any_size,
                                                monkeypatch, error):
    parent = os.getpid()

    def failing(*args):
        where = "the parent" if os.getpid() == parent else "a child"
        raise error(f"make_reference failed in {where}")

    monkeypatch.setattr(experiments, "make_reference", failing)
    with pytest.raises(error, match="^make_reference failed in a child$"):
        run_experiment(_small_config(tmp_path))
    assert forks == [1]
    _assert_no_child_left()


@pytest.mark.parametrize("where, error", [
    ("inverse_iteration", ConvergenceError), ("run_scheme", ValueError)])
def test_a_failing_parent_kills_and_reaps_its_child(tmp_path, forks, any_size,
                                                    monkeypatch, where, error):
    # the child starts before the eigensolve and would sleep for a minute
    # unless it is killed; a failed eigensolve still leaves no output
    def failing(*args, **kwargs):
        raise error(f"{where} failed")

    monkeypatch.setattr(experiments, "make_reference",
                        lambda *args: time.sleep(60))
    monkeypatch.setattr(experiments, where, failing)
    config = _small_config(tmp_path)
    start = time.monotonic()
    with pytest.raises(error, match=f"^{where} failed$"):
        run_experiment(config)
    assert time.monotonic() - start < 30
    assert forks == [1]
    _assert_no_child_left()
    assert Path(config.output_dir).exists() == (where == "run_scheme")


def test_a_killed_child_is_a_one_line_os_error(tmp_path, forks, any_size,
                                               monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(experiments, "make_reference", lambda *args: (
        os.getpid() != parent and os.kill(os.getpid(), signal.SIGKILL)))
    with pytest.raises(OSError, match="^the reference process died: "
                                      "Killed$"):
        run_experiment(_small_config(tmp_path))
    assert forks == [1]
    _assert_no_child_left()


def test_nothing_forks_below_the_threshold_or_beside_a_thread(
        tmp_path, forks, monkeypatch):
    # the shorter side is the runs' 30 steps (against 100 reference
    # steps), on the n_side 6 half's 21 nodes: 630 node steps
    config = _small_config(tmp_path)
    monkeypatch.setattr(experiments, "FORK_WORK", 631)
    run_experiment(config, tmp_path / "below")
    assert forks == []
    monkeypatch.setattr(experiments, "FORK_WORK", 630)
    run_experiment(config, tmp_path / "at")
    assert forks == [1]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        run_experiment(config, tmp_path / "beside_a_thread")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [1]
    _assert_no_child_left()


def test_the_default_study_forks_from_n_side_21(tmp_path, forks):
    # 340 run steps on 136 and 231 half nodes: 46,240 and 78,540
    for n_side in (16, 21):
        run_experiment(ExperimentConfig(n_side=n_side, eigen_grids=(n_side,)),
                       tmp_path / str(n_side))
    assert forks == [1]
    _assert_no_child_left()


def test_run_csv_rows_are_fmt_text(tmp_path):
    # the run CSVs write each row with one %-format on .tolist() floats;
    # every value must read as format(x, ".17g") writes it
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
              0.1 + 0.2]
    assert repr(0.1 + 0.2) == "0.30000000000000004"     # all 17 digits
    column = np.array(values)
    path = tmp_path / "rows.csv"
    experiments._write_csv(path, "x,y,z", column, column[::-1], -column)
    header, *rows = path.read_text().splitlines()
    assert rows == [",".join(format(v, ".17g") for v in (x, y, -x))
                    for x, y in zip(values, values[::-1])]
    assert rows[0].split(",")[0] == "nan" and rows[3].startswith("-0,")


def test_write_csv_writes_strings_as_they_are_and_ints_as_str(tmp_path):
    # summary.csv's columns: strings, an int column, floats (nan for a
    # failed run); a list column and an array column read alike
    path = tmp_path / "new" / "dir" / "summary.csv"
    ints = [26, 10, 1000, 10**16]
    floats = [math.nan, -0.0, math.inf, 1 / 3]
    experiments._write_csv(path, "scheme,N,x,y", ["a", "b_c", "1e5", "nan"],
                           ints, floats, np.array(floats))
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.splitlines() == ["scheme,N,x,y"] + [
        f"{s},{n},{format(x, '.17g')},{format(x, '.17g')}"
        for s, n, x in zip(["a", "b_c", "1e5", "nan"], ints, floats)]
    assert [format(n, ".17g") for n in ints] == [str(n) for n in ints]


def test_write_csv_one_row_file_opened_once(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(experiments, "open",
                        lambda *args, **kw: opened.append(args[0])
                        or open(*args, **kw), raising=False)
    path = tmp_path / "missing" / "eigenpair.csv"
    experiments._write_csv(path, "n_side,c,iterations", [26], [0.0], [13])
    assert path.read_bytes() == b"n_side,c,iterations\n26,0,13\n"
    assert opened == [path]


def test_run_experiment_opens_each_csv_once(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(experiments, "open",
                        lambda *args, **kw: opened.append(args[0].name)
                        or open(*args, **kw), raising=False)
    outdir = tmp_path / "a" / "b"
    result = run_experiment(_small_config(tmp_path), outdir)
    assert result.output_dir == outdir
    assert sorted(opened) == sorted(p.name for p in outdir.iterdir())
    assert len(opened) == len(set(opened)) == 6


def test_run_experiment_folds_its_system_once(tmp_path, monkeypatch):
    # run_experiment and its inverse_iteration share one fold of the whole
    # system; the modal basis is made on the half, which folds nothing
    calls = []
    halves = sparse.Fold.halves
    monkeypatch.setattr(sparse.Fold, "halves",
                        lambda *args: calls.append(1) or halves(*args))
    schemes = SMALL_SCHEMES + (
        SchemeRequest("pade_modal", l=1, m=1, steps=(5,)),)
    result = run_experiment(_small_config(tmp_path, schemes=schemes))
    assert result.all_converged
    assert len(calls) == 1


def _read_columns(outdir):
    columns = {}
    for path in sorted(outdir.glob("*.csv")):
        header, *rows = path.read_text().splitlines()
        for name, values in zip(header.split(","),
                                zip(*(row.split(",") for row in rows))):
            columns[path.name, name] = values
    return columns


@pytest.mark.parametrize("n_side", [11, 12])
@pytest.mark.parametrize("modules, n_blocks", [
    ((experiments,), 2), ((experiments, spectral), 1)],
    ids=["whole_run", "whole_run_and_spectral"])
def test_folded_run_matches_the_unfolded_run(tmp_path, monkeypatch, n_side,
                                             modules, n_blocks):
    # both seam parities.  Without experiments' fold the run steps the
    # whole system, while its eigensolve and pade_modal basis still fold:
    # the basis has the mirror split's 2 blocks.  Without spectral's fold
    # too, the eigensolve iterates the whole system and the basis is one
    # block.  Solves and products differ at roundoff only; measured at most
    # 4.0e-14 relative in norm_m and 2.3e-14 a0 in eps_a and eps_u (the
    # same lambda_1) without experiments' fold, and 5.4e-15 relative in
    # lambda_1, 3.5e-14 in norm_m and 2.2e-14 a0 and 2.1e-14 in eps_a and
    # eps_u without both
    schemes = SMALL_SCHEMES + (
        SchemeRequest("pade_fmes", l=0, m=2, steps=(5,)),
        SchemeRequest("pade_modal", l=2, m=2, steps=(5,)))
    config = _small_config(tmp_path, n_side=n_side, schemes=schemes)
    folded = run_experiment(config, tmp_path / "folded")
    for module in modules:
        monkeypatch.setattr(module, "half_system", lambda sys: None)
    bases = []
    decompose = experiments.modal_decompose
    monkeypatch.setattr(experiments, "modal_decompose",
                        lambda sys: bases.append(decompose(sys)) or bases[-1])
    whole = run_experiment(config, tmp_path / "whole")
    assert [len(basis.blocks) for basis in bases] == [n_blocks]
    a, b = _read_columns(folded.output_dir), _read_columns(whole.output_dir)
    assert a.keys() == b.keys()
    for (name, column), values in a.items():
        if column in ("scheme", "params", "t", "N", "n_side", "c",
                      "iterations"):
            assert values == b[name, column]
            continue
        x, y = np.array(values, float), np.array(b[name, column], float)
        if column.startswith("lambda1"):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
        elif column in ("norm_m", "final_norm"):
            assert np.all(np.abs(x - y) <= 1e-12 * np.abs(y))
        elif column != "residual":      # eps_a in units of a0 (about 1)
            assert np.abs(x - y).max() <= 1e-12, (name, column)


def test_output_dir_environment_override(tmp_path, monkeypatch):
    override = tmp_path / "env_out"
    monkeypatch.setenv("FMES_OUTPUT_DIR", str(override))
    config = _small_config(tmp_path)
    result = run_experiment(config)
    assert result.output_dir == override
    assert (override / "eigenpair.csv").exists()


def test_run_table1_histories(tmp_path):
    config = _small_config(tmp_path, eigen_grids=(6, 11))
    pairs = run_table1(config)
    assert set(pairs) == {6, 11}
    for pair in pairs.values():
        assert len(pair.history) >= 10
    # refinement lowers the estimate at every iteration index
    for i in range(10):
        assert pairs[6].history[i] > pairs[11].history[i]
    table = (Path(config.output_dir) / "eigen_iterations.csv").read_text()
    lines = table.splitlines()
    assert lines[0] == "m,nside_6,nside_11"
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_baseline():
    assert parse_config("") == ExperimentConfig()


def test_default_config_text_round_trips():
    assert parse_config(default_config_text()) == ExperimentConfig()


def test_config_overrides():
    text = """
[mesh]
n_side = 11     ; inline comments are allowed

[coefficients]
c = 10
k_inner = 5

[time]
T = 0.2
reference_steps = 400

[output]
directory = elsewhere

[scheme.a]
kind = pade_fmes
l = 0
m = 2
steps = 4, 8
"""
    config = parse_config(text)
    assert config.n_side == 11
    assert config.coefficients.c == 10.0
    assert config.coefficients.k_inner == 5.0
    assert config.coefficients.k_outer == 1.0
    assert config.T == 0.2
    assert config.reference_steps == 400
    assert config.output_dir == "elsewhere"
    assert config.schemes == (SchemeRequest("pade_fmes", l=0, m=2,
                                            steps=(4, 8)),)


def test_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        parse_config("[mesh]\nn_sides = 4\n")
    with pytest.raises(ValueError, match=r"unknown section \[solver\]"):
        parse_config("[solver]\nouter_tol = 1e-10\n")
    with pytest.raises(ValueError):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ValueError, match=r"unknown section \[scheme:a\]"):
        parse_config("[scheme:a]\nkind = theta_standard\nsigma = 1\n")
    with pytest.raises(ValueError):
        parse_config("[scheme.a]\nsigma = 1\n")     # kind missing


@pytest.mark.parametrize("overrides, match", [
    (dict(T=float("nan")), "T must be positive"),
    (dict(T=float("inf")), "T must be positive"),
    (dict(reference_steps=0), "^reference_steps must be >= 1$"),
    (dict(eigen_grids=()), "at least one grid"),
    (dict(eigen_grids=(6, 11, 6)), "names a grid twice: 6 11 6"),
    (dict(schemes=(SchemeRequest("theta_fmes", sigma=1.0, steps=(4, 4)),)),
     "requested twice"),
    (dict(schemes=(SchemeRequest("pade_fmes", l=0, m=1, steps=(4,)),
                   SchemeRequest("pade_fmes", l=0, m=1, steps=(2, 4)))),
     "pade_fmes l0m1 N=4 is requested twice"),
], ids=["T_nan", "T_inf", "no_reference_steps", "no_grids", "grid_twice", "steps_twice", "section_twice"])
def test_config_refusals(overrides, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**overrides)


def test_same_scheme_at_other_steps_or_weights_is_not_a_duplicate():
    ExperimentConfig(schemes=(
        SchemeRequest("theta_fmes", sigma=1.0, steps=(10,)),
        SchemeRequest("theta_fmes", sigma=1.0, steps=(20,)),
        SchemeRequest("theta_fmes", sigma=0.5, steps=(10,)),
        SchemeRequest("theta_standard", sigma=1.0, steps=(10,))))


def test_close_theta_weights_get_their_own_runs(tmp_path):
    # sigma is labelled by its shortest round-tripping digits, not by :g
    near = (SchemeRequest("theta_fmes", sigma=0.5, steps=(5,)),
            SchemeRequest("theta_fmes", sigma=0.5000001, steps=(5,)))
    assert [req.params_label() for req in near] == ["sigma0.5",
                                                     "sigma0.5000001"]
    result = run_experiment(_small_config(tmp_path, schemes=near))
    assert result.all_converged
    for label in ("sigma0.5", "sigma0.5000001"):
        run = result.find_run("theta_fmes", label, 5)
        assert (result.output_dir / run.csv_name).exists()
    assert SchemeRequest("theta_fmes", sigma=1.0).params_label() == "sigma1"


def test_sweep_reaction_gives_each_constant_its_own_directory(tmp_path):
    # c is labelled by its shortest round-tripping digits, not by :g
    c_values = (0.0, 10.0, 30.0, 0.5, 0.5000001)
    results = sweep_reaction(_small_config(tmp_path), c_values)
    assert [results[c].output_dir.name for c in c_values] == [
        "c0", "c10", "c30", "c0.5", "c0.5000001"]
    for c in c_values:
        assert (results[c].output_dir / "summary.csv").exists()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[mesh]\nn_side = 9\n")
    assert load_config(path).n_side == 9
