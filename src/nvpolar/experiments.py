"""Parameter sweeps of the polarization sequence.

Every sweep is a set of (parameter set, detuning grid) jobs on one preset,
whose parameter sets differ only in their SystemParams. One
lindblad.CycleEngine holds the jobs as cells, runs the standard schedule
plus the terminal relaxation train over every (cell, detuning) pair and
reads out the polarization, CHUNK pairs per batch. The batches are dealt
round-robin over min(workers, jobs, CPUs) ranks: this thread and one
thread per other rank (see _evaluate). A pair's result does not depend on
the batch it falls in, so the CSV bytes do not depend on the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError
from .lindblad import CHUNK, CycleEngine
from .params import SystemParams
from .presets import MAX_GRID_POINTS, Preset

#: Default grid steps; the coefficient tables give none, so these are
#: artifact choices sized to resolve the narrowest simulated features.
DELTA_STEP = 5e3
FIELD_STEP = 5.0
ANI_STEP = 12.5e3

#: Half-width of the per-field detuning window used when a sweep re-optimizes
#: the drive detuning at every grid point. Centered on the eigen-predicted
#: resonance, +-600 kHz covers both driven lines at every field of interest.
INNER_HALFWIDTH = 600e3

#: Detuning range (Hz) of a standard detuning sweep, stepped by DELTA_STEP;
#: sweep_repetitions places its default drive at the peak of that sweep.
DETUNING_RANGE = (-1e6, 1e6)

#: |P| values this close to the largest count as tied for the peak, so the
#: first of them is picked. The mirror lobes at +-delta tie to a few ulp, and
#: last-bit changes of the propagation move P by up to ~2e-13; both lie far
#: below this, and this lies far below the 1e-9 agreement asked of any path.
PEAK_TIE = 1e-12

_METADATA_SCHEMA = "nvpolar-sweep/1"


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name, a unit label, and its grid values."""

    name: str
    unit: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has an empty grid")

    @property
    def header(self) -> str:
        return f"{self.name}_{self.unit}"


@dataclass(frozen=True)
class SweepResult:
    """Polarization over one or two swept parameters.

    The grid shape always matches the axis lengths: 1-D sweeps store p with
    shape (n,), 2-D sweeps with shape (n_axis0, n_axis1).
    """

    axes: tuple[SweepAxis, ...]
    p: np.ndarray
    metadata: dict

    def __post_init__(self) -> None:
        expected = tuple(len(ax.values) for ax in self.axes)
        if self.p.shape != expected:
            raise ConfigError(f"grid shape {self.p.shape} != axis lengths {expected}")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def write_csv(self, path: str | Path) -> None:
        """1-D sweeps as (x, P); 2-D sweeps as long-form (x, y, P)."""
        columns = [[_cell(v, ax) for v in ax.values] for ax in self.axes]
        cells = itertools.product(*columns)
        p = np.asarray(self.p, dtype=float).reshape(-1).tolist()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([ax.header for ax in self.axes] + ["P"])
            writer.writerows([*row, repr(value)] for row, value in zip(cells, p))

    def write_metadata(self, path: str | Path) -> None:
        """JSON sidecar with the resolved configuration and its content hash."""
        doc = dict(self.metadata)
        doc["schema"] = _METADATA_SCHEMA
        doc["axes"] = [
            {"name": ax.name, "unit": ax.unit, "count": len(ax.values), "values": list(ax.values)}
            for ax in self.axes
        ]
        write_json(path, doc)


def _cell(value: float, axis: SweepAxis) -> str:
    if axis.unit == "count":
        return repr(int(value))
    return repr(float(value))


def write_json(path: str | Path, doc: dict) -> None:
    """Write doc plus its config_hash as indented, key-sorted JSON, in one call."""
    doc = dict(doc, config_hash=content_hash(doc))
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def content_hash(doc: dict) -> str:
    """Hash of the canonical JSON form, excluding any embedded hash field."""
    stripped = {k: v for k, v in doc.items() if k != "config_hash"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Closed uniform grid from lo to hi (hi included when step divides).

    Raises:
        ConfigError: A non-finite bound or step, a step <= 0, hi < lo, or
            more than MAX_GRID_POINTS points (checked before allocating).
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    if hi < lo:
        raise ConfigError("grid upper bound below lower bound")
    steps = np.floor((hi - lo) / step + 1e-9)
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"grid of {steps + 1:.3g} points exceeds {MAX_GRID_POINTS}")
    return tuple(lo + k * step for k in range(int(steps) + 1))


# -- point evaluation ---------------------------------------------------------


def peak(p: np.ndarray) -> int:
    """The package's one peak-pick rule: the first index whose |P| lies
    within PEAK_TIE of the largest |P|."""
    magnitude = np.abs(p)
    return int(np.argmax(magnitude >= magnitude.max() - PEAK_TIE))


def sequence_polarization(
    preset: Preset,
    delta: float,
    *,
    n_cycles: int | None = None,
) -> float:
    """Readout polarization after the full sequence at one drive detuning."""
    return float(CycleEngine(preset).polarizations([delta], n_cycles)[0])


def _evaluate(
    preset: Preset,
    jobs: list[tuple[SystemParams, tuple[float, ...]]],
    n_cycles: int | None,
    workers: int,
) -> list[np.ndarray]:
    """Polarization over the detuning grid of every (system, grid) job.

    This thread builds one engine that holds the jobs as cells (each job
    runs the preset with its own SystemParams) and cuts their (cell,
    detuning) pairs, in job order, into batches of CHUNK. Batch i goes to
    rank i mod W, W = min(workers, jobs, CPUs): rank 0 is this thread and
    W - 1 threads are the others. They share the engine without a lock, as
    no CycleEngine method writes to the engine after __init__. numpy
    releases the GIL in the engine's stacked products and element-wise
    work, though not in eigh, so the threads overlap only there. A batch
    that fails, or an interrupt of this thread, stops the other ranks before
    their next batch. Every thread is joined before this returns or raises;
    the first error in batch order is raised unchanged, and an error
    building the engine before any thread starts.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n = preset.cycles(n_cycles)
    if not jobs:
        return []
    engine = CycleEngine(preset, [system for system, _ in jobs])
    sizes = [len(deltas) for _, deltas in jobs]
    cells = np.repeat(np.arange(len(jobs)), sizes)
    deltas = np.concatenate([d for _, d in jobs])
    starts = range(0, len(deltas), CHUNK)
    # Clamped by jobs as well: splitting one 401-point grid over 2 threads
    # gained nothing (on 2 vCPUs, 0.0111-0.0125 s against 0.0120-0.0124 s on
    # one thread for table-a1-fit, 0.0123-0.0134 s against 0.0118-0.0128 s
    # for table-a1-fig4).
    width = min(workers, len(jobs), os.cpu_count() or 1)
    answers: list = [None] * len(starts)  # per batch: its P, or the error it raised
    stop = threading.Event()

    def run(rank: int) -> None:
        for i in range(rank, len(starts), width):
            if stop.is_set():
                return
            part = slice(starts[i], starts[i] + CHUNK)
            try:
                answers[i] = engine.polarizations(deltas[part], n, cells[part])
            except BaseException as exc:  # handed to the caller, which raises it
                stop.set()
                answers[i] = exc
                return

    threads = [
        threading.Thread(target=run, args=(rank,), daemon=True) for rank in range(1, width)
    ]
    for thread in threads:
        thread.start()
    try:
        run(0)
        for thread in threads:
            thread.join()
    finally:  # after an interrupt while joining, stop and join the rest
        stop.set()
        for thread in threads:
            thread.join()
    errors = [answer for answer in answers if isinstance(answer, BaseException)]
    if errors:
        raise errors[0]
    return np.split(np.concatenate(answers), np.cumsum(sizes)[:-1])


def predicted_resonance(preset: Preset) -> float:
    """Detuning of the outer nuclear-state-flipping line, from the eigensystem.

    The two drive resonances that deplete the lower-frequency nuclear state
    sit at (gamma_c B_z -+ R)/2 where R is the m_s = +1 eigen-splitting; the
    returned value is their upper edge, so a symmetric window around it of
    +-R or more covers both lines.
    """
    es = eigen_system(preset.system)
    return (preset.system.nuclear_zeeman + es.splitting_plus) / 2.0


def _base_metadata(preset: Preset, kind: str, n_cycles: int | None = None) -> dict:
    doc = {"sweep": kind, "preset": preset.to_dict()}
    if n_cycles is not None:
        doc["preset"]["n_cycles"] = n_cycles
    return doc


# -- sweeps -------------------------------------------------------------------


def sweep_detuning(
    preset: Preset,
    deltas: Sequence[float],
    *,
    n_cycles: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Polarization vs drive detuning (the two-lobed response curve)."""
    values = tuple(float(d) for d in deltas)
    (p,) = _evaluate(preset, [(preset.system, values)], n_cycles, workers)
    axis = SweepAxis("delta", "hz", values)
    return SweepResult((axis,), p, _base_metadata(preset, "detuning", n_cycles))


def sweep_repetitions(
    preset: Preset,
    n_max: int,
    *,
    delta: float | None = None,
) -> SweepResult:
    """Polarization after each complete cycle 0..n_max at fixed detuning.

    With delta None, the drive is placed at the |P|-maximizing detuning of a
    standard detuning sweep over DETUNING_RANGE. The cycle map is applied
    repeatedly, with the readout tail applied after each cycle count.

    Raises:
        ConfigError: n_max < 0, or more than MAX_GRID_POINTS cycle counts.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if n_max + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"{n_max + 1} cycle counts exceed {MAX_GRID_POINTS}")
    engine = CycleEngine(preset)
    if delta is None:
        deltas = grid(*DETUNING_RANGE, DELTA_STEP)
        delta = deltas[peak(engine.polarizations(deltas))]
    delta = float(delta)
    values = engine.buildup(delta, n_max)
    axis = SweepAxis("n_cycles", "count", tuple(float(n) for n in range(n_max + 1)))
    meta = _base_metadata(preset, "repetitions")
    meta["delta_hz"] = delta
    return SweepResult((axis,), values, meta)


def _best_in_windows(
    preset: Preset,
    kind: str,
    cells: list[Preset],
    inner_halfwidth: float,
    inner_step: float,
    workers: int,
) -> tuple[np.ndarray, dict]:
    """Signed P of largest |P| in each cell's detuning window, and the metadata.

    The resonances move with the cell's parameters, so each cell gets its own
    window centered on its eigen-predicted line position.
    """
    centers = [predicted_resonance(q) for q in cells]
    jobs = [
        (q.system, grid(c - inner_halfwidth, c + inner_halfwidth, inner_step))
        for q, c in zip(cells, centers)
    ]
    p = np.array([w[peak(w)] for w in _evaluate(preset, jobs, None, workers)])
    meta = _base_metadata(preset, kind)
    meta["inner_halfwidth_hz"] = inner_halfwidth
    meta["inner_step_hz"] = inner_step
    return p, meta


def sweep_field(
    preset: Preset,
    b_values: Sequence[float],
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
    workers: int = 1,
) -> SweepResult:
    """Best polarization vs axial field, re-optimizing the detuning per field."""
    values = tuple(float(b) for b in b_values)
    cells = [preset.with_system(b_z=b) for b in values]
    p, meta = _best_in_windows(preset, "field", cells, inner_halfwidth, inner_step, workers)
    return SweepResult((SweepAxis("b_z", "gauss", values),), p, meta)


def _axes_2d(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A 2-D sweep's axes as floats; more than MAX_GRID_POINTS output rows is
    a ConfigError, raised before any cell is built."""
    xs, ys = tuple(float(x) for x in xs), tuple(float(y) for y in ys)
    if len(xs) * len(ys) > MAX_GRID_POINTS:
        raise ConfigError(f"sweep of {len(xs) * len(ys)} rows exceeds {MAX_GRID_POINTS}")
    return xs, ys


def sweep_ani_detuning(
    preset: Preset,
    ani_values: Sequence[float],
    deltas: Sequence[float],
    *,
    workers: int = 1,
) -> SweepResult:
    """Polarization over a (transverse coupling, detuning) grid."""
    ani, dts = _axes_2d(ani_values, deltas)
    jobs = [(preset.with_system(a_ani=a).system, dts) for a in ani]
    p = np.array(_evaluate(preset, jobs, None, workers)).reshape(len(ani), len(dts))
    axes = (SweepAxis("a_ani", "hz", ani), SweepAxis("delta", "hz", dts))
    return SweepResult(axes, p, _base_metadata(preset, "ani-detuning"))


def sweep_field_ani(
    preset: Preset,
    b_values: Sequence[float],
    ani_values: Sequence[float],
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
    workers: int = 1,
) -> SweepResult:
    """Max-over-detuning polarization per (field, transverse coupling) cell."""
    bs, ani = _axes_2d(b_values, ani_values)
    cells = [preset.with_system(b_z=b, a_ani=a) for b in bs for a in ani]
    p, meta = _best_in_windows(preset, "field-ani", cells, inner_halfwidth, inner_step, workers)
    axes = (SweepAxis("b_z", "gauss", bs), SweepAxis("a_ani", "hz", ani))
    return SweepResult(axes, p.reshape(len(bs), len(ani)), meta)


def max_trace(sweep: SweepResult) -> SweepResult:
    """Reduce a 2-D sweep to the signed P of largest |P| in each row (see peak)."""
    if sweep.ndim != 2:
        raise ConfigError("max_trace needs a 2-D sweep")
    values = np.array([row[peak(row)] for row in sweep.p])
    meta = dict(sweep.metadata, reduced_axis=sweep.axes[1].name)
    return SweepResult((sweep.axes[0],), values, meta)
