import pytest

from fmes.cli import main


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


@pytest.mark.parametrize("argv", [["--nside", "1"], ["--steps", "0"],
                                  ["--nside", "6", "--steps", "7"]],
                         ids=["nside1", "steps0", "steps7"])
def test_run_verb_bad_input_is_one_line_error(outdir, capsys, argv):
    assert main(["run"] + argv) == 2
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
    "[solver]\nouter_tol = 1e-10\n",
    "n_side = 6\n",
    None,
], ids=["bad_kind", "no_sigma", "pade07", "modal_too_large", "modal_l_above_m",
        "tiny_sigma", "solver_section", "no_section", "missing_file"])
def test_run_verb_bad_config_is_one_line_error(outdir, tmp_path, capsys, text):
    config = tmp_path / "bad.ini"
    if text is not None:
        config.write_text(text)
    assert main(["run", "--config", str(config)]) == 2
    _assert_refused(outdir, capsys)
