"""Parameter sweeps of the polarization sequence.

Every sweep is a set of (parameter set, detuning grid) jobs on one preset,
whose parameter sets differ only in their SystemParams. One
lindblad.CycleEngine holds the jobs as cells, runs the standard schedule
plus the terminal relaxation train over every (cell, detuning) pair and
reads out the polarization, CHUNK pairs per batch, in the calling thread.
A pair's result does not depend on the batch it falls in.

It also owns the artifact format: write_rows writes every CSV file and
write_json every JSON file; no other module but cli opens a file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError
from .lindblad import DRIVEN_INDICES, CycleEngine
from .operators import DIM
from .params import SystemParams
from .polarization import POPULATION_FLOOR, polarization_of_state
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

#: Rows per write call of write_rows: a trajectory's text is never held whole.
ROW_BLOCK = 1024


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
        """1-D sweeps as (x, P); 2-D sweeps as long-form (x, y, P); CRLF rows."""
        columns = [map(repr, map(int if ax.unit == "count" else float, ax.values)) for ax in self.axes]
        p = np.asarray(self.p, dtype=float).reshape(-1).tolist()
        rows = (f"{','.join(row)},{v!r}" for row, v in zip(itertools.product(*columns), p))
        write_rows(path, ",".join([ax.header for ax in self.axes] + ["P"]), rows)

    def write_metadata(self, path: str | Path) -> None:
        """JSON sidecar with the resolved configuration and its content hash."""
        axes = [
            {"name": ax.name, "unit": ax.unit, "count": len(ax.values), "values": list(ax.values)}
            for ax in self.axes
        ]
        write_json(path, dict(self.metadata, schema=_METADATA_SCHEMA, axes=axes))


def write_rows(path: str | Path, header: str, rows: Iterable[str], eol: str = "\r\n") -> None:
    """Write a CSV file: the header, then the formatted rows, each line ended by
    eol; opened once, as UTF-8, and written ROW_BLOCK rows per call."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + eol)
        while block := list(itertools.islice(rows, ROW_BLOCK)):
            fh.write(eol.join(block) + eol)


def write_trajectory_csv(times: Sequence[int], states: np.ndarray, path: str | Path) -> None:
    """CSV export: time_ns, interleaved Re/Im of the 6x6 rho (row-major), P.

    states are the (k, 4, 4) driven blocks at the k times of
    CycleEngine.trajectory; any other shape is a ValueError. The 40 m_s = -1
    floats of each row, all zero, are the constant text of their reprs. P is
    empty at times when both readout populations vanish."""
    n = len(DRIVEN_INDICES)
    states = np.asarray(states, dtype=complex)
    if states.shape != (len(times), n, n):
        raise ValueError(f"states of shape {states.shape} are not {len(times)} {n}x{n} blocks")
    pairs = [f"rho_re_{i}{j},rho_im_{i}{j}" for i in range(DIM) for j in range(DIM)]
    # Viewed as floats, each entry is its (Re, Im) pair, in column order. Each row
    # becomes Python floats only when it is formatted, so they are never all alive.
    block = np.ascontiguousarray(states).view(float).reshape(len(states), -1)
    # P of every row with a readout population, in one stacked call.
    defined = ~(states[:, 0, 0].real + states[:, 1, 1].real <= POPULATION_FLOOR)
    cells = np.full(len(states), "", dtype=object)
    cells[defined] = [repr(p) for p in polarization_of_state(states[defined]).p.tolist()]
    # Each block row's 2n floats end with its m_s = -1 columns' zeros; the
    # m_s = -1 rows follow, all zeros.
    zeros = "0.0," * (2 * (DIM - n))
    row = ("{}," + ("{!r}," * (2 * n) + zeros) * n + zeros * DIM + "{}").format
    rows = (row(int(t), *values.tolist(), cell) for t, values, cell in zip(times, block, cells))
    write_rows(path, ",".join(["time_ns", *pairs, "P"]), rows)


def write_json(path: str | Path, doc: dict) -> None:
    """Write doc plus its config_hash as indented, key-sorted JSON, in one call."""
    doc = dict(doc, config_hash=content_hash(doc))
    Path(path).write_text(_indented(doc) + "\n", encoding="utf-8")


def _indented(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) with its newlines as pad; strings,
    ints, finite floats, None, str-keyed dicts and lists skip json's Python encoder."""
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value)
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = (f"{_indented(k)}: {_indented(value[k], inner)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(value) in (list, tuple) and value:
        floats = set(map(type, value)) == {float} and all(map(math.isfinite, value))
        items = map(repr, value) if floats else (_indented(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, (dict, list, tuple)):  # empty, subclassed or non-str keys
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    return json.dumps(value)


def content_hash(doc: dict) -> str:
    """Hash of the canonical JSON form, excluding any embedded hash field."""
    stripped = {k: v for k, v in doc.items() if k != "config_hash"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Closed uniform grid from lo to hi (hi included when step divides);
    grid_size checks it before it is allocated."""
    return tuple(lo + k * step for k in range(grid_size(lo, hi, step)))


def grid_size(lo: float, hi: float, step: float) -> int:
    """Number of points of grid(lo, hi, step), without building it.

    Raises:
        ConfigError: A non-finite bound or step, a step <= 0, hi < lo, or
            more than MAX_GRID_POINTS points.
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
    return int(steps) + 1


# -- point evaluation ---------------------------------------------------------


def peak(p: np.ndarray) -> int:
    """The package's one peak-pick rule: the first index whose |P| lies
    within PEAK_TIE of the largest |P|."""
    magnitude = np.abs(p)
    return int(np.argmax(magnitude >= magnitude.max() - PEAK_TIE))


def sequence_polarization(preset: Preset, delta: float) -> float:
    """Readout polarization after the full sequence at one drive detuning."""
    return float(CycleEngine(preset).polarizations([delta])[0])


def _evaluate(
    preset: Preset, jobs: list[tuple[SystemParams, tuple[float, ...]]]
) -> list[np.ndarray]:
    """Polarization over the detuning grid of every (system, grid) job.

    One engine holds the jobs as cells (each job runs the preset with its
    own SystemParams) and evaluates their (cell, detuning) pairs, in job
    order, in one call.
    """
    if not jobs:
        return []
    engine = CycleEngine(preset, [system for system, _ in jobs])
    sizes = [len(deltas) for _, deltas in jobs]
    cells = np.repeat(np.arange(len(jobs)), sizes)
    p = engine.polarizations(np.concatenate([d for _, d in jobs]), cells)
    return np.split(p, np.cumsum(sizes)[:-1])


def predicted_resonance(preset: Preset) -> float:
    """Detuning of the outer nuclear-state-flipping line, from the eigensystem.

    The two drive resonances that deplete the lower-frequency nuclear state
    sit at (gamma_c B_z -+ R)/2 where R is the m_s = +1 eigen-splitting; the
    returned value is their upper edge, so a symmetric window around it of
    +-R or more covers both lines.
    """
    es = eigen_system(preset.system)
    return (preset.system.nuclear_zeeman + es.splitting_plus) / 2.0


def _base_metadata(preset: Preset, kind: str, **extra) -> dict:
    return {"sweep": kind, "preset": preset.to_dict(), **extra}


# -- sweeps -------------------------------------------------------------------


def sweep_detuning(preset: Preset, deltas: Sequence[float]) -> SweepResult:
    """Polarization vs drive detuning (the two-lobed response curve)."""
    values = tuple(float(d) for d in deltas)
    (p,) = _evaluate(preset, [(preset.system, values)])
    axis = SweepAxis("delta", "hz", values)
    return SweepResult((axis,), p, _base_metadata(preset, "detuning"))


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
    return SweepResult((axis,), values, _base_metadata(preset, "repetitions", delta_hz=delta))


def _best_in_windows(
    preset: Preset,
    kind: str,
    cells: list[Preset],
    inner_halfwidth: float,
    inner_step: float,
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
    p = np.array([w[peak(w)] for w in _evaluate(preset, jobs)])
    return p, _base_metadata(
        preset, kind, inner_halfwidth_hz=inner_halfwidth, inner_step_hz=inner_step
    )


def sweep_field(
    preset: Preset,
    b_values: Sequence[float],
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
) -> SweepResult:
    """Best polarization vs axial field, re-optimizing the detuning per field."""
    _check_pairs(len(b_values), grid_size(-inner_halfwidth, inner_halfwidth, inner_step))
    values = tuple(float(b) for b in b_values)
    cells = [preset.with_system(b_z=b) for b in values]
    p, meta = _best_in_windows(preset, "field", cells, inner_halfwidth, inner_step)
    return SweepResult((SweepAxis("b_z", "gauss", values),), p, meta)


def _check_pairs(cells: int, per_cell: int) -> None:
    """The bound of every multi-cell sweep: more than MAX_GRID_POINTS (cell,
    detuning) pairs is a ConfigError, raised before any cell, window or
    engine is built."""
    if cells * per_cell > MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep of {cells * per_cell} (cell, detuning) pairs exceeds {MAX_GRID_POINTS}"
        )


def sweep_ani_detuning(
    preset: Preset,
    ani_values: Sequence[float],
    deltas: Sequence[float],
) -> SweepResult:
    """Polarization over a (transverse coupling, detuning) grid."""
    _check_pairs(len(ani_values), len(deltas))
    ani, dts = tuple(float(a) for a in ani_values), tuple(float(d) for d in deltas)
    jobs = [(preset.with_system(a_ani=a).system, dts) for a in ani]
    p = np.array(_evaluate(preset, jobs)).reshape(len(ani), len(dts))
    axes = (SweepAxis("a_ani", "hz", ani), SweepAxis("delta", "hz", dts))
    return SweepResult(axes, p, _base_metadata(preset, "ani-detuning"))


def sweep_field_ani(
    preset: Preset,
    b_values: Sequence[float],
    ani_values: Sequence[float],
    *,
    inner_halfwidth: float = INNER_HALFWIDTH,
    inner_step: float = DELTA_STEP,
) -> SweepResult:
    """Max-over-detuning polarization per (field, transverse coupling) cell."""
    window = grid_size(-inner_halfwidth, inner_halfwidth, inner_step)
    _check_pairs(len(b_values) * len(ani_values), window)
    bs, ani = tuple(float(b) for b in b_values), tuple(float(a) for a in ani_values)
    cells = [preset.with_system(b_z=b, a_ani=a) for b in bs for a in ani]
    p, meta = _best_in_windows(preset, "field-ani", cells, inner_halfwidth, inner_step)
    axes = (SweepAxis("b_z", "gauss", bs), SweepAxis("a_ani", "hz", ani))
    return SweepResult(axes, p.reshape(len(bs), len(ani)), meta)


def max_trace(sweep: SweepResult) -> SweepResult:
    """Reduce a 2-D sweep to the signed P of largest |P| in each row (see peak)."""
    if sweep.ndim != 2:
        raise ConfigError("max_trace needs a 2-D sweep")
    values = np.array([row[peak(row)] for row in sweep.p])
    meta = dict(sweep.metadata, reduced_axis=sweep.axes[1].name)
    return SweepResult((sweep.axes[0],), values, meta)
