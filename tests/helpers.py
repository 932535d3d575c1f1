"""Numerical oracles shared across the test modules."""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
from scipy.linalg import expm

from nvpolar.errors import NumericalError
from nvpolar.experiments import content_hash
from nvpolar.hamiltonian import rotating_hamiltonian
from nvpolar.lindblad import (
    DRIVE_SCALE,
    SchedulePropagator,
    _checked,
    build_channels,
    liouvillian,
)
from nvpolar.operators import DIM, spin_operators
from nvpolar.polarization import POPULATION_FLOOR, polarization_of_state
from nvpolar.params import RelaxationRates, SystemParams
from nvpolar.schedule import PulseSegment, Schedule


def with_cycles(preset, n_cycles):
    """The preset with n_cycles as its cycle count, or the preset itself if
    n_cycles is None: the engine and the sweeps take N from the preset."""
    return preset if n_cycles is None else dataclasses.replace(preset, n_cycles=n_cycles)


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> None:
    """Raise NumericalError unless rho is a 6x6 density matrix to within tol.

    Checks Hermiticity, unit trace and the lowest eigenvalue.
    """
    if rho.shape != (DIM, DIM):
        raise NumericalError(f"density matrix must be {DIM}x{DIM}, got {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > tol:
        raise NumericalError(f"Hermiticity violated by {herm:.3e}")
    trace = abs(np.trace(rho) - 1.0)
    if trace > tol:
        raise NumericalError(f"trace deviates from 1 by {trace:.3e}")
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if lowest < -tol:
        raise NumericalError(f"negative eigenvalue {lowest:.3e}")


def liouvillian_reference(h: np.ndarray, channels) -> np.ndarray:
    """The generator of liouvillian in its three-kron form, channel by channel:

        -i 2 pi (H kron I - I kron H^T)
        + sum_L ( L kron conj(L) - (1/2) (L+L kron I + I kron (L+L)^T) ),

    with np.kron, for one Hamiltonian and a list of collapse operators."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[-1])
    gen = -1j * 2.0 * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in channels:
        opdag_op = op.conj().T @ op
        gen = gen + np.kron(op, op.conj())
        gen = gen - 0.5 * (np.kron(opdag_op, eye) + np.kron(eye, opdag_op.T))
    return gen


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


def reference_trajectory(
    prop: SchedulePropagator,
    rho: np.ndarray,
    schedule: Schedule,
    sample_ns: int | None = None,
) -> list[tuple[int, np.ndarray]]:
    """6x6 states along a schedule by segment-wise propagation.

    With sample_ns None, returns the state at t = 0 and after every
    segment. Otherwise returns the state at every multiple of sample_ns
    (plus t = 0 and the final time), splitting segments as needed.
    """
    frame = prop._resolve_frame(schedule)
    vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
    out: list[tuple[int, np.ndarray]] = [(0, vec.reshape(DIM, DIM).copy())]
    t = 0
    if sample_ns is None:
        for seg in schedule:
            if seg.duration_ns > 0:
                vec = prop.segment_propagator(seg, frame) @ vec
            t += seg.duration_ns
            out.append((t, _checked(vec[None])[0]))
        return out
    for seg in schedule:
        remaining = seg.duration_ns
        while remaining > 0:
            step = min(sample_ns - (t % sample_ns), remaining)
            vec = prop.segment_propagator(seg, frame, duration_ns=step) @ vec
            t += step
            remaining -= step
            if t % sample_ns == 0:
                out.append((t, _checked(vec[None])[0]))
    if out[-1][0] != t:
        out.append((t, _checked(vec[None])[0]))
    return out


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
    return tuple(segments)


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


def rowwise_spectrum_csv(path, frequencies, amplitudes) -> None:
    """ramsey.write_spectrum_csv, formatting one bin at a time (LF)."""
    lines = ["frequency_hz,magnitude"]
    for f, m in zip(frequencies, abs(amplitudes)):
        lines.append(f"{repr(float(f))},{repr(float(m))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rowwise_trajectory_csv(times, states, path) -> None:
    """experiments.write_trajectory_csv through csv.writer: each 4x4 block
    embedded in 6x6 zeros, one repr per float of all 72 (CRLF)."""
    header = ["time_ns"]
    for i in range(DIM):
        for j in range(DIM):
            header += [f"rho_re_{i}{j}", f"rho_im_{i}{j}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["P"])
        for t, block in zip(times, states):
            rho = np.zeros((DIM, DIM), dtype=complex)
            rho[:4, :4] = block
            values = rho.reshape(-1).view(float).tolist()
            populated = rho[0, 0].real + rho[1, 1].real > POPULATION_FLOOR
            cell = repr(float(polarization_of_state(rho).p)) if populated else ""
            writer.writerow([repr(int(t)), *map(repr, values), cell])
