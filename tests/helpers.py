"""Numerical oracles shared across the test modules."""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.linalg import expm

from nvpolar.experiments import content_hash
from nvpolar.hamiltonian import rotating_hamiltonian
from nvpolar.lindblad import DRIVE_SCALE, SchedulePropagator, build_channels, liouvillian
from nvpolar.operators import spin_operators
from nvpolar.params import RelaxationRates, SystemParams
from nvpolar.schedule import PulseSegment, Schedule


def rk4_propagate(
    generator: np.ndarray, vec: np.ndarray, duration_s: float, dt_s: float = 1e-10
) -> np.ndarray:
    """Integrate dv/dt = G v with classic fixed-step RK4."""
    n = max(1, int(round(duration_s / dt_s)))
    h = duration_s / n
    for _ in range(n):
        k1 = generator @ vec
        k2 = generator @ (vec + 0.5 * h * k1)
        k3 = generator @ (vec + 0.5 * h * k2)
        k4 = generator @ (vec + h * k3)
        vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec


def rk4_schedule(
    prop: SchedulePropagator,
    rho: np.ndarray,
    schedule: Schedule,
    dt_s: float = 1e-10,
) -> np.ndarray:
    """Propagate a schedule with the RK4 oracle instead of expm."""
    frame = prop._resolve_frame(schedule)
    vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
    for seg in schedule:
        if seg.duration_ns == 0:
            continue
        gen = prop.segment_generator(seg, frame)
        vec = rk4_propagate(gen, vec, seg.duration_ns * 1e-9, dt_s)
    return vec.reshape(rho.shape)


def full_drive_propagate(
    p: SystemParams, rates: RelaxationRates, rho: np.ndarray, schedule: Schedule
) -> np.ndarray:
    """Propagate with the whole S_x drive, its 0 <-> -1 half included.

    The rotating-wave propagator keeps only the 0 <-> +1 half of the drive;
    this oracle keeps the other half as a static term, in the same frame and
    with the same channels, so the two differ by exactly what RWA drops.
    """
    frame = next((seg.mw_delta for seg in schedule if seg.mw_on), 0.0)
    s_x = spin_operators().s_x
    vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
    for seg in schedule:
        if seg.duration_ns == 0:
            continue
        h = rotating_hamiltonian(p, seg.mw_delta if seg.mw_on else frame, 0.0)
        if seg.mw_on:
            h = h + seg.mw_rabi * DRIVE_SCALE * s_x
        gen = liouvillian(h, build_channels(rates, p, laser_on=seg.laser_on))
        vec = expm(gen * (seg.duration_ns * 1e-9)) @ vec
    return vec.reshape(rho.shape)


def random_density_matrix(rng: np.random.Generator, dim: int = 6) -> np.ndarray:
    """A random full-rank density matrix (Hermitian, unit trace, PSD)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_schedule(rng: np.random.Generator) -> Schedule:
    """A short block schedule mixing laser, rest, and microwave segments."""
    segments = []
    for _ in range(int(rng.integers(2, 6))):
        kind = int(rng.integers(0, 3))
        duration = int(rng.integers(10, 200))
        if kind == 0:
            segments.append(PulseSegment(duration, laser_on=True))
        elif kind == 1:
            segments.append(PulseSegment(duration))
        else:
            segments.append(
                PulseSegment(
                    duration,
                    mw_on=True,
                    mw_delta=float(rng.normal(0.0, 4e5)),
                    mw_rabi=float(rng.uniform(5e4, 4e5)),
                )
            )
    return Schedule(tuple(segments))


# -- row-by-row artifact writers ------------------------------------------------
# The per-row formatting the artifact writers replaced; the writers must keep
# producing these bytes.


def rowwise_sweep_csv(result, path) -> None:
    """SweepResult.write_csv through csv.writer, one row at a time (CRLF)."""

    def cell(value, axis):
        return repr(int(value)) if axis.unit == "count" else repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([ax.header for ax in result.axes] + ["P"])
        if result.ndim == 1:
            for x, value in zip(result.axes[0].values, result.p):
                writer.writerow([cell(x, result.axes[0]), repr(float(value))])
        else:
            for i, x in enumerate(result.axes[0].values):
                for j, y in enumerate(result.axes[1].values):
                    writer.writerow(
                        [
                            cell(x, result.axes[0]),
                            cell(y, result.axes[1]),
                            repr(float(result.p[i, j])),
                        ]
                    )


def rowwise_sweep_metadata(result, path) -> None:
    """SweepResult.write_metadata through a streaming json.dump."""
    doc = dict(result.metadata)
    doc["schema"] = "nvpolar-sweep/1"
    doc["axes"] = [
        {"name": ax.name, "unit": ax.unit, "count": len(ax.values), "values": list(ax.values)}
        for ax in result.axes
    ]
    doc["config_hash"] = content_hash(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def rowwise_signal_csv(path, t, s) -> None:
    """ramsey.write_signal_csv, formatting one sample at a time (LF)."""
    lines = ["time_ns,signal"]
    for ti, si in zip(t, s):
        lines.append(f"{repr(float(ti * 1e9))},{repr(float(si))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rowwise_spectrum_csv(path, spectrum) -> None:
    """ramsey.write_spectrum_csv, formatting one bin at a time (LF)."""
    lines = ["frequency_hz,magnitude"]
    for f, m in zip(spectrum.frequencies, spectrum.magnitude):
        lines.append(f"{repr(float(f))},{repr(float(m))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
