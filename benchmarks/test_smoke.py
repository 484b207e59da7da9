"""Tests of the benchmark itself: python -m pytest benchmarks -q

The smoke runs shrink every workload to n_side 6 and a few steps and check
that the result line names every metric BENCHMARK.json declares, with its
unit, for both the untraced and the traced run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace.absent_names"]["value"] == 0
        assert result["metrics"]["sparse.cg_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, tmp_path / HERE.name / "run.py", "paper_run", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture
def benchmark_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import spans
    import workloads
    return spans, workloads


def test_seed_zero_is_the_paper_configuration(benchmark_modules):
    _, workloads = benchmark_modules
    from fmes.assembly import ProblemCoefficients
    paper = workloads.generate_inputs(0)
    assert paper.coefficients == ProblemCoefficients()
    assert (paper.initial_state(36) == 1.0).all()
    drawn = workloads.generate_inputs(7)
    assert drawn == workloads.generate_inputs(7)
    assert drawn.coefficients != paper.coefficients
    for name, (lo, hi) in workloads.COEFFICIENT_RANGES.items():
        assert lo <= getattr(drawn.coefficients, name) <= hi
    w0 = drawn.initial_state(36)
    assert (w0 > 0).all() and (w0 == drawn.initial_state(36)).all()


def test_missing_binding_is_reported_absent(benchmark_modules, monkeypatch):
    spans, _ = benchmark_modules
    import fmes.schemes
    monkeypatch.delattr(fmes.schemes, "cg_solve")
    tracer = spans.Tracer()
    tracer.instrument()
    try:
        assert tracer.absent == ["fmes.schemes.cg_solve"]
        assert "fmes.schemes.cg_solve" not in tracer.calls
        assert tracer.calls["fmes.spectral.cg_solve"] == 0
    finally:
        tracer.restore()
