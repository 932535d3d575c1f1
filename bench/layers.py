"""Span tracing of nvpolar's layers, installed from outside the package.

The tracer wraps the public module attributes and methods that each layer's
callers look up (``lindblad.expm``, ``SchedulePropagator.propagate``,
``ramsey.fft_spectrum``, ...). Every wrapped call records a span -- name,
start, end, parent -- in memory while the tracer is enabled; when it is
disabled the wrappers only forward. ``layer_metrics`` turns the spans of one
workload pass into the per-layer metrics the benchmark reports.

Nothing under ``src/`` is modified: the wrappers replace module attributes
at run time and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Function attributes wrapped wherever an nvpolar module holds them, because
# ``from .x import f`` copies the binding into every caller's namespace. Spans
# without a metric of their own (sweeps, content_hash, the ramsey writers)
# still matter: cli.self_s is main's time minus every wrapped call it makes.
FUNCTIONS = (
    ("nvpolar.lindblad", "expm", "lindblad.expm"),
    ("nvpolar.lindblad", "liouvillian", "lindblad.liouvillian"),
    ("nvpolar.hamiltonian", "rotating_hamiltonian", "hamiltonian.rotating_hamiltonian"),
    ("nvpolar.eigensystem", "eigen_system", "eigensystem.eigen_system"),
    ("nvpolar.polarization", "polarization_of_state", "polarization.readout"),
    ("nvpolar.experiments", "sequence_polarization", "experiments.sequence_polarization"),
    ("nvpolar.experiments", "sweep_detuning", "experiments.sweep"),
    ("nvpolar.experiments", "sweep_repetitions", "experiments.sweep"),
    ("nvpolar.experiments", "sweep_field", "experiments.sweep"),
    ("nvpolar.experiments", "predicted_resonance", "experiments.predicted_resonance"),
    ("nvpolar.experiments", "content_hash", "experiments.content_hash"),
    ("nvpolar.fitting", "fit_polarization_curve", "fitting.fit_polarization_curve"),
    ("nvpolar.ramsey", "ramsey_model", "ramsey.ramsey_model"),
    ("nvpolar.ramsey", "dominant_line_pair", "ramsey.dominant_line_pair"),
    ("nvpolar.ramsey", "synthesize_ramsey", "ramsey.synthesize"),
    ("nvpolar.ramsey", "fft_spectrum", "ramsey.fft"),
    ("nvpolar.ramsey", "fit_lorentzian_pair", "ramsey.fit"),
    ("nvpolar.ramsey", "fit_time_domain", "ramsey.fit"),
    ("nvpolar.ramsey", "write_signal_csv", "ramsey.write"),
    ("nvpolar.ramsey", "write_spectrum_csv", "ramsey.write"),
    ("nvpolar.cli", "main", "cli.main"),
)

# Methods wrapped on their class; every instance looks them up there.
METHODS = (
    ("nvpolar.lindblad", "SchedulePropagator", "segment_generator", "lindblad.segment_generator"),
    ("nvpolar.lindblad", "SchedulePropagator", "segment_propagator", "lindblad.segment_propagator"),
    ("nvpolar.lindblad", "SchedulePropagator", "propagate", "lindblad.propagate"),
    ("nvpolar.experiments", "SweepResult", "write_csv", "experiments.write"),
    ("nvpolar.experiments", "SweepResult", "write_metadata", "experiments.write"),
)

# ``least_squares`` serves two layers, so each caller's binding gets its own
# span name, and the problem's model is wrapped to count evaluations.
SOLVERS = (
    ("nvpolar.fitting", "fitting"),
    ("nvpolar.ramsey", "ramsey"),
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.artifact_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.artifact_bytes = 0
        self._stack = []

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span named ``name``.

        ``after(args, result)`` runs inside the span when given.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                span[END] = perf_counter_ns()
                self._stack.pop()

        return traced

    def _count_bytes(self, args, _result) -> None:
        self.artifact_bytes += os.path.getsize(args[1])

    def _solver(self, layer: str, fn):
        def least_squares(problem):
            if self.enabled:
                problem = dataclasses.replace(
                    problem, model=self.wrap(f"{layer}.model_eval", problem.model)
                )
            return fn(problem)

        return self.wrap(f"{layer}.least_squares", functools.wraps(fn)(least_squares))

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced attribute; the package must already be imported."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "nvpolar" or n.startswith("nvpolar.")
        ]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            after = self._count_bytes if name == "experiments.write" else None
            self._set(cls, attr, self.wrap(name, vars(cls)[attr], after))
        for mod_name, layer in SOLVERS:
            mod = sys.modules[mod_name]
            self._set(mod, "least_squares", self._solver(layer, mod.least_squares))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write_spans(self, path) -> None:
        """Dump the recorded spans as CSV (index, name, start_ns, end_ns, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


# -- aggregation ----------------------------------------------------------------

#: Metrics that must repeat exactly between passes and runs of one seed: the
#: per-layer metrics of BENCHMARK.json counted in ``count`` or ``bytes``.
COUNT_METRICS = tuple(
    m["name"]
    for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    if m["unit"] in ("count", "bytes")
) + ("lindblad.cache_hit_ratio",)


def layer_metrics(spans: list[list], artifact_bytes: int) -> dict[str, float]:
    """Counts and times of one traced pass, computed from its spans.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are single-threaded, so children never overlap.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)

    def dur(i: int) -> float:
        return (spans[i][END] - spans[i][START]) * 1e-9

    def self_s(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children[i])

    def has_child(i: int, name: str) -> bool:
        return any(spans[c][NAME] == name for c in children[i])

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(*names: str) -> float:
        return sum(dur(i) for n in names for i in by_name.get(n, ()))

    def total_self(name: str) -> float:
        return sum(self_s(i) for i in by_name.get(name, ()))

    builds = [
        i for i in by_name.get("lindblad.segment_generator", ())
        if has_child(i, "lindblad.liouvillian")
    ]
    lookups = by_name.get("lindblad.segment_propagator", [])
    hits = sum(1 for i in lookups if not has_child(i, "lindblad.expm"))
    points = by_name.get("experiments.sequence_polarization", [])
    return {
        "lindblad.generator_builds": len(builds),
        "lindblad.generator_s": sum(dur(i) for i in builds),
        "lindblad.expm_calls": calls("lindblad.expm"),
        "lindblad.expm_s": total("lindblad.expm"),
        "lindblad.segment_lookups": len(lookups),
        "lindblad.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
        "lindblad.propagate_calls": calls("lindblad.propagate"),
        "lindblad.propagate_self_s": total_self("lindblad.propagate"),
        "hamiltonian.calls": calls("hamiltonian.rotating_hamiltonian"),
        "hamiltonian.s": total("hamiltonian.rotating_hamiltonian"),
        "eigensystem.calls": calls("eigensystem.eigen_system"),
        "eigensystem.s": total("eigensystem.eigen_system"),
        "polarization.readouts": calls("polarization.readout"),
        "polarization.s": total("polarization.readout"),
        "experiments.points": len(points),
        "experiments.point_ms": (
            statistics.median(dur(i) for i in points) * 1e3 if points else 0.0
        ),
        "experiments.write_s": total("experiments.write"),
        "experiments.artifact_bytes": artifact_bytes,
        "fitting.model_evals": calls("fitting.model_eval"),
        "fitting.forward_s": total("fitting.model_eval"),
        "fitting.solver_self_s": total_self("fitting.least_squares"),
        "ramsey.synthesize_s": total("ramsey.synthesize"),
        "ramsey.fft_s": total("ramsey.fft"),
        "ramsey.fit_s": total("ramsey.fit"),
        "ramsey.fit_evals": calls("ramsey.model_eval"),
        "cli.invocations": calls("cli.main"),
        "cli.self_s": total_self("cli.main"),
    }
