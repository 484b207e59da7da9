"""INI configuration for the experiment runner.

The format is plain key-value text with sections, parsed by configparser.
Every key is optional; omitted values fall back to the baseline defaults,
so an empty file (or no file at all) reproduces the standard study.

Recognized sections and keys::

    [mesh]          n_side
    [coefficients]  k_inner  k_outer  c  mu_right_top  mu_left_bottom
    [time]          T  reference_steps
    [eigen]         grids  tol  max_iter
    [solver]        outer_tol  dense_limit
    [output]        directory
    [scheme.NAME]   kind  sigma  l  m  steps     (one section per scheme)

``steps`` and ``grids`` are comma- or space-separated integer lists.  When
any [scheme.*] section is present the default scheme list is replaced
entirely.  Unknown sections or keys raise, so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from pathlib import Path

from .experiments import ExperimentConfig, SchemeRequest

_KNOWN = {
    "mesh": {"n_side"},
    "coefficients": {"k_inner", "k_outer", "c", "mu_right_top", "mu_left_bottom"},
    "time": {"T", "reference_steps"},
    "eigen": {"grids", "tol", "max_iter"},
    "solver": {"outer_tol", "dense_limit"},
    "output": {"directory"},
}
_SCHEME_KEYS = {"kind", "sigma", "l", "m", "steps"}


def _int_list(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    return tuple(int(p) for p in parts)


# (section, key) -> (ExperimentConfig field, converter)
_FIELDS = {
    ("mesh", "n_side"): ("n_side", int),
    ("time", "T"): ("T", float),
    ("time", "reference_steps"): ("reference_steps", int),
    ("eigen", "grids"): ("eigen_grids", _int_list),
    ("eigen", "tol"): ("eig_tol", float),
    ("eigen", "max_iter"): ("eig_max_iter", int),
    ("solver", "outer_tol"): ("outer_tol", float),
    ("solver", "dense_limit"): ("dense_limit", int),
    ("output", "directory"): ("output_dir", str),
}


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in section "
                         f"[{section}]")


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from INI text (see module docstring)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str        # keep key case (T vs t)
    parser.read_string(text)

    # collected first and validated together, since step counts are
    # checked against reference_steps
    fields: dict = {}
    coeffs: dict = {}
    schemes: list[SchemeRequest] = []

    for section in parser.sections():
        items = parser[section]
        if section.startswith("scheme.") or section.startswith("scheme:"):
            _check_keys(section, items.keys(), _SCHEME_KEYS)
            if "kind" not in items:
                raise ValueError(f"section [{section}] needs a 'kind'")
            steps = (_int_list(items["steps"]) if "steps" in items
                     else (10, 20, 40, 100))
            schemes.append(SchemeRequest(
                kind=items["kind"],
                sigma=float(items["sigma"]) if "sigma" in items else None,
                l=int(items["l"]) if "l" in items else None,
                m=int(items["m"]) if "m" in items else None,
                steps=steps))
            continue
        if section not in _KNOWN:
            raise ValueError(f"unknown section [{section}]")
        _check_keys(section, items.keys(), _KNOWN[section])
        if section == "coefficients":
            coeffs.update({k: float(items[k]) for k in items})
            continue
        for key in items:
            name, convert = _FIELDS[section, key]
            fields[name] = convert(items[key])

    config = ExperimentConfig()
    fields["coefficients"] = replace(config.coefficients, **coeffs)
    if schemes:
        fields["schemes"] = tuple(schemes)
    return replace(config, **fields)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text())


def default_config_text() -> str:
    """A fully populated sample configuration matching the defaults."""
    cfg = ExperimentConfig()
    co = cfg.coefficients
    lines = [
        "[mesh]",
        f"n_side = {cfg.n_side}",
        "",
        "[coefficients]",
        f"k_inner = {co.k_inner:g}",
        f"k_outer = {co.k_outer:g}",
        f"c = {co.c:g}",
        f"mu_right_top = {co.mu_right_top:g}",
        f"mu_left_bottom = {co.mu_left_bottom:g}",
        "",
        "[time]",
        f"T = {cfg.T:g}",
        f"reference_steps = {cfg.reference_steps}",
        "",
        "[eigen]",
        "grids = " + " ".join(str(n) for n in cfg.eigen_grids),
        f"tol = {cfg.eig_tol:g}",
        f"max_iter = {cfg.eig_max_iter}",
        "",
        "[solver]",
        f"outer_tol = {cfg.outer_tol:g}",
        f"dense_limit = {cfg.dense_limit}",
        "",
        "[output]",
        f"directory = {cfg.output_dir}",
        "",
    ]
    for req in cfg.schemes:
        lines.append(f"[scheme.{req.kind}_{req.params_label()}]")
        lines.append(f"kind = {req.kind}")
        if req.sigma is not None:
            lines.append(f"sigma = {req.sigma:g}")
        if req.l is not None:
            lines.append(f"l = {req.l}")
            lines.append(f"m = {req.m}")
        lines.append("steps = " + " ".join(str(n) for n in req.steps))
        lines.append("")
    return "\n".join(lines)
