"""Spans around calls into fmes's public functions, recorded from outside.

The traced run patches each binding through which one fmes module calls a
public function of another (the module attribute the caller looks up at call
time), records one span per call and restores the originals afterwards.
Spans stay in memory and are written once, when the run ends.

A span's layer is the module that defines the called function.  A layer's
self time is the time its outermost spans cover minus the part covered by
spans of other layers; calls within one layer (``epsilon_u`` inside
``run_experiment``, the nested mass and preconditioner solves inside the
(0,2) stepper's outer CG) stay with that layer.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass
class Span:
    rep: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    data: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _assembled(span, system):
    span.data["nnz"] = int(system.K.nnz)
    return system


def _eigenpair(span, pair):
    span.data["iterations"] = pair.iterations
    span.data["residual"] = pair.residual
    return pair


def _solved(span, result):
    span.data["iterations"] = result[1].iterations
    return result


# (module, attribute, span name, hook on the result).  Every binding of a
# function that crosses a module boundary is listed, so a call is traced
# whichever module makes it; ``make_stepper`` additionally wraps ``.step``
# on each stepper it returns (see Tracer.instrument).
BINDINGS = (
    ("fmes.mesh", "build_mesh", "mesh.build_mesh", None),
    ("fmes.experiments", "build_mesh", "mesh.build_mesh", None),
    ("fmes.assembly", "assemble", "assembly.assemble", _assembled),
    ("fmes.experiments", "assemble", "assembly.assemble", _assembled),
    ("fmes.spectral", "inverse_iteration", "spectral.inverse_iteration",
     _eigenpair),
    ("fmes.experiments", "inverse_iteration", "spectral.inverse_iteration",
     _eigenpair),
    ("fmes.spectral", "modal_decompose", "spectral.modal_decompose", None),
    ("fmes.schemes", "run_scheme", "schemes.run_scheme", None),
    ("fmes.experiments", "run_scheme", "schemes.run_scheme", None),
    ("fmes.experiments", "make_reference", "experiments.make_reference", None),
    ("fmes.experiments", "epsilon_u", "experiments.epsilon_u", None),
    ("fmes.experiments", "run_experiment", "experiments.run_experiment", None),
    ("fmes.cli", "run_experiment", "experiments.run_experiment", None),
    ("fmes.schemes", "cg_solve", "sparse.cg_solve", _solved),
    ("fmes.spectral", "cg_solve", "sparse.cg_solve", _solved),
)


class Tracer:
    """Records one span per call into a wrapped binding while recording."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.rep: int | None = None
        self.absent: list[str] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, func, name: str, binding: str, hook=None):
        self.calls.setdefault(binding, 0)

        def wrapper(*args, **kwargs):
            self.calls[binding] += 1
            span = Span(self.rep, name, self.clock(),
                        parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            return hook(span, result) if hook else result
        return wrapper

    @contextlib.contextmanager
    def recording(self, rep: int):
        """Trace the calls made inside the block as repetition ``rep``.

        The bindings are patched only inside the block, so the untraced
        repetitions run the program exactly as it is.
        """
        self.instrument()
        self.rep = rep
        try:
            yield
        finally:
            self.rep = None
            self.restore()

    def instrument(self) -> None:
        """Patch every binding in BINDINGS; report missing ones absent."""
        def wrap_steps(span, stepper):
            try:
                stepper.step = self.traced(stepper.step, "schemes.step",
                                           "stepper.step")
            except AttributeError:
                self._mark_absent("stepper.step")
            return stepper

        bindings = BINDINGS + (("fmes.schemes", "make_stepper",
                                "schemes.make_stepper", wrap_steps),)
        for module_name, attr, name, hook in bindings:
            binding = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            func = getattr(module, attr, None)
            if func is None:
                self._mark_absent(binding)
                continue
            self._patches.append((module, attr, func))
            setattr(module, attr, self.traced(func, name, binding, hook))

    def _mark_absent(self, binding: str) -> None:
        if binding not in self.absent:
            self.absent.append(binding)

    def restore(self) -> None:
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "absent": self.absent, "calls": self.calls,
            "spans": [asdict(s) for s in self.spans]}))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: the median over repetitions of each value."""
        by_rep: dict[int, list[int]] = defaultdict(list)
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_rep[span.rep].append(i)
            if span.parent is not None:
                children[span.parent].append(i)
        rows = ([self._rep_metrics(ids, children) for ids in by_rep.values()]
                or [self._rep_metrics([], children)])
        return {name: statistics.median(row[name] for row in rows)
                for name in rows[0]}

    def _rep_metrics(self, ids: list[int], children) -> dict[str, float]:
        spans = self.spans
        named: dict[str, list[Span]] = defaultdict(list)
        for i in ids:
            named[spans[i].name].append(spans[i])

        def total(name: str) -> float:
            return sum(s.duration for s in named[name])

        def data(name: str, key: str) -> list:
            return [s.data[key] for s in named[name] if key in s.data]

        def foreign(i: int) -> float:
            """Time of span i covered by spans of other layers."""
            return sum(spans[c].duration if spans[c].layer != spans[i].layer
                       else foreign(c) for c in children[i])

        def self_time(layer: str) -> float:
            return sum(spans[i].duration - foreign(i) for i in ids
                       if spans[i].layer == layer
                       and (spans[i].parent is None
                            or spans[spans[i].parent].layer != layer))

        cg = named["sparse.cg_solve"]
        cg_iterations = sum(data("sparse.cg_solve", "iterations"))
        steps_ms = [1e3 * s.duration for s in named["schemes.step"]]
        return {
            "mesh.build_s": total("mesh.build_mesh"),
            "assembly.assemble_s": total("assembly.assemble"),
            "assembly.nnz": max(data("assembly.assemble", "nnz"), default=0),
            "spectral.inverse_iteration_s":
                total("spectral.inverse_iteration"),
            "spectral.eig_iterations": sum(
                data("spectral.inverse_iteration", "iterations")),
            "spectral.eig_residual": max(
                data("spectral.inverse_iteration", "residual"), default=0.0),
            "spectral.modal_decompose_s": total("spectral.modal_decompose"),
            "sparse.cg_calls": len(cg),
            "sparse.cg_iterations": cg_iterations,
            "sparse.iters_per_call": cg_iterations / len(cg) if cg else 0.0,
            "sparse.cg_self_s": self_time("sparse"),
            "sparse.cg_failed": sum(s.failed for s in cg),
            "schemes.make_stepper_s": total("schemes.make_stepper"),
            "schemes.step_ms_p50": (float(np.percentile(steps_ms, 50))
                                    if steps_ms else 0.0),
            "schemes.step_ms_p90": (float(np.percentile(steps_ms, 90))
                                    if steps_ms else 0.0),
            "schemes.steps": len(steps_ms),
            "experiments.reference_s": total("experiments.make_reference"),
            "experiments.self_s": self_time("experiments"),
        }
