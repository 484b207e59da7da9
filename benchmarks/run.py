"""fmes benchmark: one workload per process, metrics on the last stdout line.

Run from the repository root:

    python3 benchmarks/run.py --workload paper_run --seed 0 \
        --seconds 20 --trace 0

The workload is run once at its smoke size as an untimed warm-up, then
repeated until ``--seconds`` have passed (at least twice).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics plus the tracing overhead.
``--smoke`` shrinks every workload to n_side 6 and a few steps.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines above it are a readable report.  Times are in
reference seconds (see clock.py).  The exit code is 0 only if every op
succeeded and passed its check.  README.md beside this file has the details.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "fmes_amp_digits": "digits"}
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "assembly.assemble_s": "s", "assembly.nnz": "count",
    "spectral.inverse_iteration_s": "s", "spectral.eig_iterations": "count",
    "spectral.eig_residual": "1", "spectral.modal_decompose_s": "s",
    "sparse.cg_calls": "count", "sparse.cg_iterations": "count",
    "sparse.iters_per_call": "iter/call", "sparse.cg_self_s": "s",
    "sparse.cg_failed": "count", "schemes.make_stepper_s": "s",
    "schemes.step_ms_p50": "ms", "schemes.step_ms_p90": "ms",
    "schemes.steps": "count", "experiments.reference_s": "s",
    "experiments.self_s": "s", "trace.overhead_s": "s",
    "trace.absent_names": "count",
}
WORKLOAD_NAMES = ("paper_run", "fine_grid", "pade_family")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's configuration")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n_side 6 and a few steps, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def tail(samples: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p > 50:
        text += f", p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return f"{text} (n={n})"


def measure(args, workdir: Path) -> int:
    import numpy
    import scipy

    import workloads
    from clock import REFERENCE_S, ReferenceClock
    from fmes.sparse import ConvergenceError
    from spans import Tracer

    inputs = workloads.generate_inputs(args.seed)
    kind = workloads.WORKLOADS[args.workload]
    (workdir / "warmup").mkdir()
    kind(inputs, True, workdir / "warmup").run(contextlib.nullcontext,
                                               perf_counter)
    workload = kind(inputs, args.smoke, workdir)

    clock = ReferenceClock()
    tracer = Tracer(clock)
    passes = {False: [], True: []}          # completed passes by tracing
    failures: dict[str, str] = {}
    attempted = failed = 0
    defect = 0.0
    start = perf_counter()
    rep = 0
    while rep < MIN_PASSES or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and rep % 2 == 1
        context = (functools.partial(tracer.recording, rep) if traced
                   else contextlib.nullcontext)
        attempted += workload.ops
        rep += 1
        try:
            with clock:
                done = workload.run(context, clock)
        except ConvergenceError as err:
            failed += workload.ops
            failures[f"pass {rep}"] = str(err)
            continue
        checked = workload.check(done)
        failed += min(len(checked.failed), workload.ops)
        failures.update(checked.failed)
        defect = max(defect, checked.amp_defect)
        # keep the timings only, so no pass's arrays outlive it
        passes[traced].append((done.wall_s, done.setup_s, done.steps))
        del done

    co = inputs.coefficients
    print(f"fmes benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    print(f"environment: nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} threads=1 ({', '.join(THREAD_VARS)})")
    print(f"inputs: n_side={workload.n_side} nodes={workload.n_side ** 2} "
          f"nnz={getattr(workload, 'nnz', 'n/a')} k_inner={co.k_inner!r} "
          f"k_outer={co.k_outer!r} mu_right_top={co.mu_right_top!r} "
          f"mu_left_bottom={co.mu_left_bottom!r} c={co.c!r}")
    print(f"passes: {rep} measured after one warm-up at smoke size; "
          f"ops {attempted} attempted, {failed} failed")
    for op, reason in failures.items():
        print(f"  FAILED {op}: {reason}")
    print(f"machine speed: {len(clock.samples)} calibration samples, median "
          f"{statistics.median(clock.samples) * 1e3:.4g} ms against "
          f"{REFERENCE_S * 1e3:g} ms; timings below are reference seconds")

    plain = passes[False]
    walls = [wall for wall, _, _ in plain]
    setups = [setup for _, setup, _ in plain]
    rates = [steps / (wall - setup) for wall, setup, steps in plain]
    if plain:
        print(f"wall_s: {tail(walls)}; setup_s: {tail(setups)}; "
              f"steps_per_s: {tail(rates)}")
    if args.trace:
        traced_walls = [wall for wall, _, _ in passes[True]]
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
            if traced_walls and walls else 0.0)
        metrics["trace.absent_names"] = len(tracer.absent)
        units = PER_LAYER_UNITS
        print("traced wall_s: "
              + (tail(traced_walls) if traced_walls else "n/a"))
        print("calls per binding: " + ", ".join(
            f"{name}={count}" for name, count in tracer.calls.items()))
        print("absent: " + (", ".join(tracer.absent) or "none"))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(HERE.parent)}")
    else:
        metrics = {
            "wall_s": statistics.median(walls) if plain else 0.0,
            "setup_s": statistics.median(setups) if plain else 0.0,
            "steps_per_s": statistics.median(rates) if plain else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "fmes_amp_digits": -math.log10(
                max(defect, numpy.finfo(float).eps)),
        }
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fmes" / "__init__.py").is_file():
        print(f"error: fmes sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP pools before numpy is first imported, which is when
    # they read these variables; the fmes import below pulls numpy in.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FMES_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))
    import fmes
    if Path(fmes.__file__).resolve().parent != (SRC / "fmes").resolve():
        print(f"error: imported fmes from {fmes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
