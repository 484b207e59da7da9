"""Command line front end.

Three verbs:

* ``fmes eigens``  -- fundamental-eigenvalue iteration table per grid
* ``fmes run``     -- full experiment (schemes, metrics, CSV files)
* ``fmes analyze`` -- scalar tables: exact weight vs. eta, Pade errors

Each verb accepts ``--config PATH`` plus only the overrides it reads:
``--nside`` and ``--c`` for ``eigens`` and ``run``, ``--steps`` for ``run``.
The output directory can also be overridden through the FMES_OUTPUT_DIR
environment variable.  Exit status is 0 when every requested computation
converged and 1 when one did not: an unconverged eigensolve is a one-line
``error:`` message on stderr and writes nothing, a failed scheme run is
listed as FAILED.  Invalid input, a missing or malformed configuration
file or a grid too large to allocate included, is exit 2 with a one-line
``error:`` message and no output directory (argparse adds a usage line for
an unknown option).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import _int_list, load_config
from .experiments import (ExperimentConfig, resolve_output_dir, run_experiment,
                          run_table1, _write_csv)
from .schemes import amplification_factor, fmes_weight, pade_rational
from .sparse import ConvergenceError
from .spectral import MIN_SWEEPS


_FLAGS = {
    "--config": dict(metavar="PATH",
                     help="configuration file (INI); defaults otherwise"),
    "--nside": dict(type=int, metavar="N",
                    help="override the grid (nodes per side)"),
    "--c": dict(type=float, metavar="C",
                help="override the reaction constant"),
    "--steps": dict(metavar="N1,N2,...",
                    help="override every scheme's step counts"),
}


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.nside is not None:
        config = replace(config, n_side=args.nside,
                         eigen_grids=(args.nside,))
    if args.c is not None:
        config = replace(config,
                         coefficients=replace(config.coefficients, c=args.c))
    if args.steps is not None:
        steps = _int_list(args.steps)
        config = replace(config, schemes=tuple(
            replace(req, steps=steps) for req in config.schemes))
    return config


def _cmd_eigens(args) -> int:
    config = _load(args)
    pairs = run_table1(config)
    grids = config.eigen_grids
    print("m   " + "".join(f"nside {n:<18d}" for n in grids))
    for i in range(MIN_SWEEPS):
        row = "".join(f"{pairs[n].history[i]:<24.11f}" for n in grids)
        print(f"{i + 1:<4d}{row}")
    for n in grids:
        pair = pairs[n]
        extra = (f"  lambda1 = {pair.lambda1:.11f} (c = {config.coefficients.c:g})"
                 if config.coefficients.c else "")
        print(f"converged nside {n}: lambda1_bar = {pair.lambda1_bar:.11f}"
              f" after {pair.iterations} iterations{extra}")
    print(f"wrote {resolve_output_dir(config) / 'eigen_iterations.csv'}")
    return 0


def _cmd_run(args) -> int:
    config = _load(args)
    result = run_experiment(config)
    pair = result.eigenpair
    print(f"grid {config.n_side}, c = {config.coefficients.c:g}: "
          f"lambda1 = {pair.lambda1:.11f} "
          f"({pair.iterations} iterations)")
    for r in result.runs:
        if r.converged:
            print(f"  {r.kind} {r.params} N={r.n_steps}: "
                  f"max|eps_a| = {r.max_eps_a:.3e}  "
                  f"max eps_u = {r.max_eps_u:.3e}  -> {r.csv_name}")
        else:
            print(f"  {r.kind} {r.params} N={r.n_steps}: FAILED ({r.error})")
    print(f"wrote {result.output_dir / 'summary.csv'}")
    return 0 if result.all_converged else 1


def _cmd_analyze(args) -> int:
    config = _load(args)
    outdir = resolve_output_dir(config)
    etas = np.concatenate([np.logspace(-3, -1, 20, endpoint=False),
                           np.linspace(0.1, 5.0, 30)])
    sigma1 = [fmes_weight(eta) for eta in etas]
    _write_csv(outdir / "fmes_weight.csv", "eta,sigma1,r_minus_exp", etas,
               sigma1, [amplification_factor(s, eta) - np.exp(-eta)
                        for s, eta in zip(sigma1, etas)])

    pairs = ((0, 1), (1, 1), (0, 2), (2, 2))
    zs = np.logspace(-3, 1, 41)
    _write_csv(outdir / "pade_error.csv",
               "z," + ",".join(f"err_{l}{m}" for l, m in pairs), zs,
               *(abs(pade_rational(l, m, zs) - np.exp(-zs)) for l, m in pairs))

    print("exact-weight samples (eta, sigma1):")
    for eta in (0.01, 0.1, 1.0, 5.0):
        print(f"  {eta:<6g} {fmes_weight(eta):.9f}")
    print(f"wrote {outdir / 'fmes_weight.csv'} and {outdir / 'pade_error.csv'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fmes",
        description="Fundamental-mode-exact time stepping workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags, help_text in (
            ("eigens", _cmd_eigens, ("--config", "--nside", "--c"),
             "eigenvalue iteration table per grid"),
            ("run", _cmd_run, ("--config", "--nside", "--c", "--steps"),
             "run the configured schemes and write CSVs"),
            ("analyze", _cmd_analyze, ("--config",),
             "scalar amplification and Pade tables")):
        # no abbreviations: "--c" must not stand for "--config"
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        # overrides a verb does not take stay unset for _load
        p.set_defaults(func=func, nside=None, c=None, steps=None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, ValueError, OSError, MemoryError) as err:
        # OSError: an unreadable --config; MemoryError: too large a grid
        print(f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
