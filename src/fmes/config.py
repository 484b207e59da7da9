"""INI configuration for the experiment runner.

The format is plain key-value text with sections, parsed by configparser.
Every key is optional; omitted values fall back to the baseline defaults,
so an empty file (or no file at all) reproduces the standard study.

The schema is two tables: ``_FIELDS`` maps each ``(section, key)`` to an
ExperimentConfig field (the [coefficients] rows are the fields of
ProblemCoefficients), and ``_SCHEME_FIELDS`` lists the keys of the
``[scheme.NAME]`` sections, one section per scheme.  Key checks, parsing
and ``default_config_text()``, which prints every key with its default,
are all derived from these tables.

``steps`` and ``grids`` are comma- or space-separated integer lists.  When
any [scheme.*] section is present the default scheme list is replaced
entirely.  Unknown sections or keys raise, so typos fail loudly; scheme
parameters are checked when the ExperimentConfig is built.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, replace
from pathlib import Path

from .assembly import ProblemCoefficients
from .experiments import ExperimentConfig, SchemeRequest


def _int_list(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    return tuple(int(p) for p in parts)


# (section, key) -> (field, converter); [coefficients] fields belong to
# ExperimentConfig.coefficients, every other field to ExperimentConfig
_FIELDS = {
    ("mesh", "n_side"): ("n_side", int),
    **{("coefficients", f.name): (f.name, float)
       for f in fields(ProblemCoefficients)},
    ("time", "T"): ("T", float),
    ("time", "reference_steps"): ("reference_steps", int),
    ("eigen", "grids"): ("eigen_grids", _int_list),
    ("eigen", "tol"): ("eig_tol", float),
    ("eigen", "max_iter"): ("eig_max_iter", int),
    ("output", "directory"): ("output_dir", str),
}
# key (= SchemeRequest field) -> converter
_SCHEME_FIELDS = {"kind": str, "sigma": float, "l": int, "m": int,
                  "steps": _int_list}


def parse_config(text: str) -> ExperimentConfig:
    """Build an ExperimentConfig from INI text (see module docstring)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    parser.optionxform = str        # keep key case (T vs t)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ValueError(" ".join(str(err).split())) from None

    # collected first and validated together, since step counts are
    # checked against reference_steps
    values: dict = {}
    coeffs: dict = {}
    schemes: list[SchemeRequest] = []

    for section in parser.sections():
        items = parser[section]
        is_scheme = section.startswith("scheme.")
        if is_scheme:
            table = {key: (key, convert)
                     for key, convert in _SCHEME_FIELDS.items()}
        else:
            table = {key: row for (sec, key), row in _FIELDS.items()
                     if sec == section}
            if not table:
                raise ValueError(f"unknown section [{section}]")
        unknown = set(items) - set(table)
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} in section "
                             f"[{section}]")
        parsed = {table[key][0]: table[key][1](items[key]) for key in items}
        if is_scheme:
            if "kind" not in parsed:
                raise ValueError(f"section [{section}] needs a 'kind'")
            schemes.append(SchemeRequest(**parsed))
        elif section == "coefficients":
            coeffs.update(parsed)
        else:
            values.update(parsed)

    config = ExperimentConfig()
    values["coefficients"] = replace(config.coefficients, **coeffs)
    if schemes:
        values["schemes"] = tuple(schemes)
    return replace(config, **values)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text())


def _format(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def default_config_text() -> str:
    """A fully populated sample configuration matching the defaults."""
    cfg = ExperimentConfig()
    sections: dict[str, list[str]] = {}
    for (section, key), (name, _) in _FIELDS.items():
        owner = cfg.coefficients if section == "coefficients" else cfg
        sections.setdefault(section, []).append(
            f"{key} = {_format(getattr(owner, name))}")
    for req in cfg.schemes:
        sections[f"scheme.{req.kind}_{req.params_label()}"] = [
            f"{key} = {_format(getattr(req, key))}"
            for key in _SCHEME_FIELDS if getattr(req, key) is not None]
    return "\n".join("\n".join([f"[{section}]", *lines, ""])
                     for section, lines in sections.items())
