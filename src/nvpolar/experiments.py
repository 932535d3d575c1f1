"""Parameter sweeps of the polarization sequence.

Every sweep is a set of detuning grids, one per parameter set, and each grid
goes through lindblad.CycleEngine: the standard schedule plus the terminal
relaxation train, evaluated in batches of lindblad.CHUNK detunings, ending in
the readout polarization. With workers > 1 those batches fan out over a
process pool. Batch boundaries depend only on the grid and every point is
computed independently of its batch, so the CSV bytes do not depend on the
worker count.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError
from .lindblad import CHUNK, CycleEngine
from .presets import Preset

#: Default grid steps; the coefficient tables give none, so these are
#: artifact choices sized to resolve the narrowest simulated features.
DELTA_STEP = 5e3
FIELD_STEP = 5.0
ANI_STEP = 12.5e3

#: Half-width of the per-field detuning window used when a sweep re-optimizes
#: the drive detuning at every grid point. Centered on the eigen-predicted
#: resonance, +-600 kHz covers both driven lines at every field of interest.
INNER_HALFWIDTH = 600e3

#: Most points one grid axis may hold.
MAX_GRID_POINTS = 10**6

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
    """The package's one peak-pick rule: the index of the largest |P|, the first on a tie."""
    return int(np.argmax(np.abs(p)))


def sequence_polarization(
    preset: Preset,
    delta: float,
    *,
    n_cycles: int | None = None,
) -> float:
    """Readout polarization after the full sequence at one drive detuning."""
    return float(CycleEngine(preset).polarizations([delta], n_cycles)[0])


def _eval_task(task: tuple[Preset, tuple[float, ...], int | None]) -> np.ndarray:
    preset, deltas, n_cycles = task
    return CycleEngine(preset).polarizations(deltas, n_cycles)


def _evaluate(
    jobs: list[tuple[Preset, tuple[float, ...]]],
    n_cycles: int | None,
    workers: int,
) -> list[np.ndarray]:
    """Polarization over the detuning grid of every (preset, grid) job.

    With workers > 1 each grid is cut into CHUNK-point tasks for the pool;
    the engine cuts it at the same points when it runs in this process.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    tasks = [
        (preset, deltas[i : i + CHUNK], n_cycles)
        for preset, deltas in jobs
        for i in range(0, len(deltas), CHUNK)
    ]
    if workers == 1 or len(tasks) <= 1:
        return [CycleEngine(preset).polarizations(d, n_cycles) for preset, d in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        flat = np.concatenate(list(pool.map(_eval_task, tasks)))
    return np.split(flat, np.cumsum([len(d) for _, d in jobs])[:-1])


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
    deltas: Sequence[float] | None = None,
    *,
    n_cycles: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Polarization vs drive detuning (the two-lobed response curve)."""
    if deltas is None:
        deltas = grid(-1e6, 1e6, DELTA_STEP)
    values = tuple(float(d) for d in deltas)
    (p,) = _evaluate([(preset, values)], n_cycles, workers)
    axis = SweepAxis("delta", "hz", values)
    return SweepResult((axis,), p, _base_metadata(preset, "detuning", n_cycles))


def sweep_repetitions(
    preset: Preset,
    n_max: int = 20,
    *,
    delta: float | None = None,
) -> SweepResult:
    """Polarization after each complete cycle 0..n_max at fixed detuning.

    With delta None, the drive is placed at the |P|-maximizing detuning of a
    standard detuning sweep. The cycle map is applied repeatedly, with the
    readout tail applied after each cycle count.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if delta is None:
        base = sweep_detuning(preset)
        delta = base.axes[0].values[peak(base.p)]
    delta = float(delta)
    values = CycleEngine(preset).buildup(delta, n_max)
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
        (q, grid(c - inner_halfwidth, c + inner_halfwidth, inner_step))
        for q, c in zip(cells, centers)
    ]
    p = np.array([w[peak(w)] for w in _evaluate(jobs, None, workers)])
    meta = _base_metadata(preset, kind)
    meta["inner_halfwidth_hz"] = inner_halfwidth
    meta["inner_step_hz"] = inner_step
    return p, meta


def sweep_field(
    preset: Preset,
    b_values: Sequence[float] | None = None,
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
    workers: int = 1,
) -> SweepResult:
    """Best polarization vs axial field, re-optimizing the detuning per field."""
    if b_values is None:
        b_values = grid(450.0, 850.0, FIELD_STEP)
    values = tuple(float(b) for b in b_values)
    cells = [preset.with_system(b_z=b) for b in values]
    p, meta = _best_in_windows(preset, "field", cells, inner_halfwidth, inner_step, workers)
    return SweepResult((SweepAxis("b_z", "gauss", values),), p, meta)


def sweep_ani_detuning(
    preset: Preset,
    ani_values: Sequence[float] | None = None,
    deltas: Sequence[float] | None = None,
    *,
    workers: int = 1,
) -> SweepResult:
    """Polarization over a (transverse coupling, detuning) grid."""
    if ani_values is None:
        ani_values = grid(0.0, 400e3, ANI_STEP)
    if deltas is None:
        deltas = grid(-600e3, 600e3, DELTA_STEP)
    ani = tuple(float(a) for a in ani_values)
    dts = tuple(float(d) for d in deltas)
    jobs = [(preset.with_system(a_ani=a), dts) for a in ani]
    p = np.array(_evaluate(jobs, None, workers)).reshape(len(ani), len(dts))
    axes = (SweepAxis("a_ani", "hz", ani), SweepAxis("delta", "hz", dts))
    return SweepResult(axes, p, _base_metadata(preset, "ani-detuning"))


def sweep_field_ani(
    preset: Preset,
    b_values: Sequence[float] | None = None,
    ani_values: Sequence[float] | None = None,
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
    workers: int = 1,
) -> SweepResult:
    """Max-over-detuning polarization per (field, transverse coupling) cell."""
    if b_values is None:
        b_values = grid(450.0, 850.0, 10.0)
    if ani_values is None:
        ani_values = grid(0.0, 400e3, 50e3)
    bs = tuple(float(b) for b in b_values)
    ani = tuple(float(a) for a in ani_values)
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
