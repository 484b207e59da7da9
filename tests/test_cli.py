import os
import re
import signal

import pytest

from fmes import cli, experiments, spectral
from fmes.cli import main
from fmes.experiments import run_table1
from fmes.sparse import ConvergenceError


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    target = tmp_path / "cli_out"
    monkeypatch.setenv("FMES_OUTPUT_DIR", str(target))
    return target


def test_eigens_verb(outdir, capsys):
    assert main(["eigens", "--nside", "6"]) == 0
    captured = capsys.readouterr().out
    assert "converged nside 6" in captured
    table = (outdir / "eigen_iterations.csv").read_text().splitlines()
    assert table[0] == "m,nside_6"
    assert len(table) == 11


def test_run_verb_with_overrides(outdir, capsys):
    code = main(["run", "--nside", "6", "--steps", "4,8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary.csv" in out
    assert (outdir / "theta_fmes_sigma1_N8.csv").exists()
    assert (outdir / "theta_standard_sigma1_N4.csv").exists()
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert len(summary) == 5


def test_run_verb_reports_a_failed_run(outdir, capsys, monkeypatch):
    run_scheme = experiments.run_scheme

    def failing(spec, *args, **kwargs):
        if spec.kind == "theta_fmes":
            raise ConvergenceError("forced failure")
        return run_scheme(spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_scheme", failing)
    assert main(["run", "--nside", "6", "--steps", "4"]) == 1
    out = capsys.readouterr().out
    assert "  theta_fmes sigma1 N=4: FAILED (forced failure)\n" in out
    assert "  theta_standard sigma1 N=4: max|eps_a| = " in out


@pytest.fixture
def forked(monkeypatch):
    """run forks make_reference at any size, as on 2 cores at one BLAS
    thread; the list counts the forks."""
    monkeypatch.setattr(experiments, "_overlap", lambda: True)
    monkeypatch.setattr(experiments, "FORK_WORK", 0)
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.mark.parametrize("error, code", [(ConvergenceError, 1),
                                         (ValueError, 2)])
def test_run_verb_exits_on_its_childs_error(outdir, capsys, monkeypatch,
                                            forked, error, code):
    parent = os.getpid()

    def failing(*args):
        where = "the parent" if os.getpid() == parent else "a child"
        raise error(f"make_reference failed in {where}")

    monkeypatch.setattr(experiments, "make_reference", failing)
    assert main(["run", "--nside", "6", "--steps", "4"]) == code
    assert forked == [1]
    captured = capsys.readouterr()
    assert captured.err == "error: make_reference failed in a child\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_verb_exits_2_on_a_killed_child(outdir, capsys, monkeypatch,
                                            forked):
    parent = os.getpid()
    monkeypatch.setattr(experiments, "make_reference", lambda *args: (
        os.getpid() != parent and os.kill(os.getpid(), signal.SIGKILL)))
    assert main(["run", "--nside", "6", "--steps", "4"]) == 2
    assert forked == [1]
    captured = capsys.readouterr()
    assert captured.err == "error: the reference process died: Killed\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_verb_reaction_override(outdir):
    assert main(["run", "--nside", "6", "--steps", "4", "--c", "10"]) == 0
    eigen = (outdir / "eigenpair.csv").read_text().splitlines()
    header, row = eigen[0].split(","), eigen[1].split(",")
    values = dict(zip(header, row))
    assert float(values["c"]) == 10.0
    assert float(values["lambda1"]) == pytest.approx(
        float(values["lambda1_bar"]) + 10.0, rel=1e-12)


def test_run_verb_with_config_file(outdir, tmp_path):
    config = tmp_path / "small.ini"
    config.write_text("""
[mesh]
n_side = 6

[time]
reference_steps = 40

[scheme.only]
kind = theta_fmes
sigma = 1
steps = 4
""")
    assert main(["run", "--config", str(config)]) == 0
    assert (outdir / "theta_fmes_sigma1_N4.csv").exists()


def test_analyze_verb(outdir, capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "exact-weight samples" in out
    weight = (outdir / "fmes_weight.csv").read_text().splitlines()
    assert weight[0] == "eta,sigma1,r_minus_exp"
    # defining-equation defect stays at rounding level
    assert all(abs(float(line.split(",")[2])) < 1e-13 for line in weight[1:])
    pade = (outdir / "pade_error.csv").read_text().splitlines()
    assert pade[0] == "z,err_01,err_11,err_02,err_22"


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["analyze", "--nside", "6"], ["analyze", "--c", "3"],
    ["analyze", "--steps", "4"], ["eigens", "--steps", "7"],
], ids=["analyze_nside", "analyze_c", "analyze_steps", "eigens_steps"])
def test_verb_refuses_overrides_it_does_not_read(outdir, capsys, argv):
    # "--c" must not be taken as an abbreviation of "--config" either
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = argv[1]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not outdir.exists()


# n_side 10^16: the mesh's first array, 10^16 doubles (71.1 PiB), exceeds any
# 64-bit address space, so its allocation fails at once
_HUGE_NSIDE = ["--nside", "10000000000000000"]


@pytest.mark.parametrize("argv", [["--nside", "1"], ["--steps", "0"],
                                  ["--nside", "6", "--steps", "7"],
                                  ["--steps", ""], _HUGE_NSIDE],
                         ids=["nside1", "steps0", "steps7", "steps_empty",
                              "nside_huge"])
def test_run_verb_bad_input_is_one_line_error(outdir, capsys, argv):
    assert main(["run"] + argv) == 2
    _assert_refused(outdir, capsys)


def test_eigens_verb_grid_too_large_is_one_line_error(outdir, capsys):
    assert main(["eigens"] + _HUGE_NSIDE) == 2
    _assert_refused(outdir, capsys)


def _assert_refused(outdir, capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    # refused before any work: not even the output directory is made
    assert not outdir.exists()


@pytest.mark.parametrize("text", [
    "[scheme.a]\nkind = thta\nsigma = 1\n",
    "[scheme.a]\nkind = theta_fmes\n",
    "[scheme.a]\nkind = pade_fmes\nl = 0\nm = 7\n",
    "[mesh]\nn_side = 51\n[scheme.a]\nkind = pade_modal\nl = 2\nm = 2\n",
    "[scheme.a]\nkind = pade_modal\nl = 2\nm = 0\n",
    "[scheme.a]\nkind = theta_standard\nsigma = 1e-6\n",
    "[scheme.a]\nkind = theta_fmes\nsigma = 0.49\n",
    "[solver]\nouter_tol = 1e-10\n",
    "n_side = 6\n",
    "[eigen]\ntol = 0\n",
    "[eigen]\nmax_iter = 0\n",
    None,
    "[mesh]\nn_side = 6\n[time]\nT = nan\n",
    "[mesh]\nn_side = 6\n[time]\nT = inf\n",
    "[mesh]\nn_side = 6\n[coefficients]\nc = inf\n",
    "[mesh]\nn_side = 6\n[coefficients]\nk_outer = inf\n",
    "[mesh]\nn_side = 6\n[eigen]\ntol = nan\n",
    "[eigen]\ngrids =\n",
    "[mesh]\nn_side = 6\n[eigen]\ngrids = 6 6\n",
    "[scheme.a]\nkind = theta_fmes\nsigma = 1\nl = 3\n",
    "[scheme.a]\nkind = pade_fmes\nl = 0\nm = 2\nsigma = 0.7\n",
    "[scheme.a]\nkind = theta_fmes\nsigma = 1\n"
    "[scheme.b]\nkind = theta_fmes\nsigma = 1\n",
    "[scheme.a]\nkind = theta_fmes\nsigma = 1\nsteps = 4 4\n",
    "[scheme.a]\nkind = theta_fmes\nsigma = 1\nsteps =\n",
    "[mesh]\nn_side = 6\n[coefficients]\nmu_right_top = 0\n",
    "[eigen]\ntol = 1e-13\n",
    "[eigen]\nmax_iter = 50\n",
    "[mesh]\nn_side = 6\n[coefficients]\nc = -1000\n",
], ids=["bad_kind", "no_sigma", "pade07", "modal_too_large", "modal_l_above_m",
        "tiny_sigma", "sigma_below_half", "solver_section", "no_section",
        "eig_tol0", "eig_max_iter0", "missing_file", "T_nan", "T_inf",
        "c_inf", "k_outer_inf", "eig_tol_nan", "empty_grids",
        "same_grid_twice", "theta_with_l", "pade_with_sigma",
        "same_section_twice", "same_steps_twice", "empty_steps",
        "pure_neumann", "eig_tol_key", "eig_max_iter_key", "c_negative"])
def test_run_verb_bad_config_is_one_line_error(outdir, tmp_path, capsys, text):
    config = tmp_path / "bad.ini"
    if text is not None:
        config.write_text(text)
    assert main(["run", "--config", str(config)]) == 2
    _assert_refused(outdir, capsys)


def test_run_verb_unconverged_eigensolve_is_one_line_error(outdir, tmp_path,
                                                          capsys, monkeypatch):
    # at sweep 10 the Ritz residual is still falling
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 10)
    config = tmp_path / "short.ini"
    config.write_text("[mesh]\nn_side = 6\n")
    assert main(["run", "--config", str(config)]) == 1
    _assert_refused(outdir, capsys)


def test_eigens_verb_unconverged_eigensolve_is_one_line_error(outdir,
                                                             tmp_path, capsys,
                                                             monkeypatch):
    # 10 sweeps fill the table, but the Ritz residual is still falling
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 10)
    config = tmp_path / "short.ini"
    config.write_text("[eigen]\ngrids = 6 11\n")
    assert main(["eigens", "--config", str(config)]) == 1
    _assert_refused(outdir, capsys)


@pytest.mark.parametrize("verb", ["run", "eigens"])
@pytest.mark.parametrize("coeffs, message", [
    # spectral's INNER_FAILURES: 10 2^1000, 2^1000 and 10 2^1000 in repr
    ("k_inner = 1.0715086071862673e+302\nk_outer = 1.0715086071862673e+301"
     "\nmu_right_top = 1.0715086071862673e+302\n",
     r"5: CG breakdown: r\^T z = \S+ underflowed or is not finite"),
    ("k_inner = 1e16\n", r"1: operator is not positive definite "
     r"\(Re\(p\^H A p\) <= 0 in CG\)"),
    ("k_inner = 1e18\n", r"1: operator is not positive definite \(banded "
     r"Cholesky of its Hermitian part failed: 16-th leading minor not "
     r"positive definite\)")],
    ids=["cg_breakdown", "cg_indefinite", "band_cholesky"])
def test_failed_inner_solve_is_one_line_error_with_its_cause(
        outdir, tmp_path, capsys, verb, coeffs, message):
    config = tmp_path / "failing.ini"
    config.write_text("[mesh]\nn_side = 6\n[eigen]\ngrids = 6\n"
                      f"[coefficients]\n{coeffs}")
    assert main([verb, "--config", str(config)]) == 1
    assert re.fullmatch(f"error: inner solve failed at iteration {message}\n",
                        capsys.readouterr().err)
    assert not outdir.exists()


def _refuses_fewer_sweeps_than_the_table(verb, outdir, tmp_path, capsys,
                                         monkeypatch):
    # every eigensolve takes at least the table's 10 sweeps and chooses its
    # own stop, so [eigen] has no tol or max_iter: a config that asks for
    # fewer sweeps names an unknown key, refused before any eigensolve
    def eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the refusal")

    monkeypatch.setattr(experiments, "inverse_iteration", eigensolve)
    for text in ("tol = 1e-3\nmax_iter = 5\n", "max_iter = 3\n",
                 "max_iter = 9\n"):
        config = tmp_path / "few.ini"
        config.write_text("[mesh]\nn_side = 6\n[eigen]\ngrids = 6 11\n"
                          + text)
        assert main([verb, "--config", str(config)]) == 2
        _assert_refused(outdir, capsys)


def test_eigens_verb_refuses_fewer_sweeps_than_its_table(outdir, tmp_path,
                                                        capsys, monkeypatch):
    _refuses_fewer_sweeps_than_the_table("eigens", outdir, tmp_path, capsys,
                                         monkeypatch)


def test_run_verb_refuses_fewer_sweeps_than_the_table(outdir, tmp_path,
                                                     capsys, monkeypatch):
    _refuses_fewer_sweeps_than_the_table("run", outdir, tmp_path, capsys,
                                         monkeypatch)


def test_run_and_eigens_find_the_same_eigenpair(outdir, tmp_path,
                                                monkeypatch):
    # the benchmark's paper_run seed 8 coefficients, on which the stop test
    # alone fell on roundoff noise after 9 sweeps, one short of the table's
    pairs = {}

    def recording(config):
        pairs.update(run_table1(config))
        return pairs

    monkeypatch.setattr(cli, "run_table1", recording)
    config = tmp_path / "seed8.ini"
    config.write_text(
        "[mesh]\nn_side = 26\n[eigen]\ngrids = 26\n[coefficients]\n"
        "k_inner = 9.653944553211122\nc = 1.5935541924275838\n"
        "mu_right_top = 10.97455368667585\n[time]\nreference_steps = 10\n"
        "[scheme.shifted]\nkind = theta_fmes\nsigma = 1\nsteps = 10\n")
    assert main(["eigens", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    header, row = (outdir / "eigenpair.csv").read_text().splitlines()
    written = dict(zip(header.split(","), row.split(",")))
    assert written["iterations"] == str(pairs[26].iterations)
    assert written["lambda1"] == format(pairs[26].lambda1, ".17g")


@pytest.mark.parametrize("verb", ["run", "eigens"])
@pytest.mark.parametrize("key", ["k_inner = 1e308", "k_outer = 1e308"],
                         ids=["k_inner", "k_outer"])
def test_coefficient_that_overflows_assembly_is_one_line_error(
        outdir, tmp_path, capsys, verb, key):
    # finite coefficients whose stiffness entries (about 4 k) overflow at
    # n_side 26; under filterwarnings = error a numpy warning would fail
    # this test
    config = tmp_path / "overflow.ini"
    config.write_text(f"[coefficients]\n{key}\n")
    assert main([verb, "--config", str(config)]) == 2
    _assert_refused(outdir, capsys)


def test_huge_robin_coefficient_still_runs(outdir, tmp_path):
    # its assembled matrices are finite
    config = tmp_path / "robin.ini"
    config.write_text("[mesh]\nn_side = 6\n[coefficients]\n"
                      "mu_right_top = 1.7e308\n")
    assert main(["run", "--config", str(config), "--steps", "4"]) == 0
    assert (outdir / "summary.csv").exists()


@pytest.mark.parametrize("verb", ["run", "eigens"])
@pytest.mark.parametrize("c", ["inf", "nan"])
def test_non_finite_reaction_override_is_one_line_error(outdir, capsys, verb,
                                                        c):
    assert main([verb, "--nside", "6", "--c", c]) == 2
    _assert_refused(outdir, capsys)


def test_eigens_verb_refuses_empty_grid_list(outdir, tmp_path, capsys):
    config = tmp_path / "nogrids.ini"
    config.write_text("[eigen]\ngrids =\n")
    assert main(["eigens", "--config", str(config)]) == 2
    _assert_refused(outdir, capsys)


def test_run_verb_refuses_repeated_step_override(outdir, capsys):
    assert main(["run", "--nside", "6", "--steps", "4,8,4"]) == 2
    _assert_refused(outdir, capsys)
