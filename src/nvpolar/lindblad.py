"""Lindblad master equation for piecewise-constant schedules.

The density matrix is propagated exactly on each segment by exponentiating
the constant generator

    d rho / dt = -i 2 pi [H, rho]
                 + sum_L ( L rho L+ - (1/2) {L+ L, rho} )

with H in cyclic Hz and channel amplitudes sqrt(Gamma), Gamma a linear rate
in 1/s. Density matrices are vectorized row-major, so

    vec(A rho B) = (A kron B^T) vec(rho).

Two propagators share this generator. SchedulePropagator takes any schedule
and propagates the full 6x6 density matrix segment by segment, exponentiating
every distinct segment once per schedule; it is the reference path and the
one that samples trajectories. CycleEngine computes the standard polarization
sequence for a whole grid of drive detunings at once: it slices the
{m_s = 0, +1} block, which the sequence never leaves, out of the same 6-level
generators and exponentiates only that block (see its docstring).

Both exponentiate with expm, a NumPy scaling-and-squaring Padé exponential
that takes one matrix or a stack, so the package needs no SciPy at runtime.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError, NumericalError, UndefinedPolarizationError
from .hamiltonian import rotating_hamiltonian
from .operators import DIM, basis_index, spin_operators
from .params import RelaxationRates, SystemParams
from .polarization import polarization_of_state
from .schedule import PulseSegment, Schedule, chopped_laser_train

if TYPE_CHECKING:
    from .presets import Preset

#: Indices of the {m_s = 0, +1} block that the drive and the laser act on.
DRIVEN_INDICES = (0, 1, 2, 3)

#: Row-major vec indices of the driven block's 4x4 entries in a 6x6 matrix.
_BLOCK = np.array([i * DIM + j for i in DRIVEN_INDICES for j in DRIVEN_INDICES])

#: (ground, excited) basis-index pairs of the optical channels, which pump
#: only the driven 0 <-> +1 transition, one pair per nuclear state.
_OPTICAL_PAIRS = (
    (basis_index(0, True), basis_index(+1, True)),
    (basis_index(0, False), basis_index(+1, False)),
)

#: A segment's mw_rabi is the Rabi (flop) frequency of the driven transition.
#: The drive term is (mw_rabi / sqrt 2) * S_x, whose 0 <-> +1 matrix element
#: is mw_rabi / 2, so a resonant pulse with mw_rabi * duration = 1/2 is a pi
#: rotation; the bundled parameter sets satisfy that product exactly.
DRIVE_SCALE = 2.0**-0.5

_HERM_DRIFT_FIX = 1e-12
_HERM_DRIFT_FAIL = 1e-9

#: Detunings CycleEngine evaluates per batch. A 64-point batch keeps the
#: working set near 2 MiB (a whole 401-point grid would take 12.8 MiB), and
#: sweeps cut their grids at multiples of it whatever the worker count.
CHUNK = 64


def initial_mixed_state() -> np.ndarray:
    """Fully mixed nuclear state in m_s = 0: diag(1/2, 1/2, 0, 0, 0, 0)."""
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    return rho


def build_channels(
    rates: RelaxationRates, p: SystemParams, *, laser_on: bool
) -> list[np.ndarray]:
    """Collapse operators active for one segment (zero-rate channels omitted).

    Laser-gated channels: nuclear-conserving optical decay from the excited
    manifold at gamma_gl (1 + n_th) with the reverse channel at gamma_gl n_th,
    and symmetric nuclear cross-relaxation between the two m_s = 0 states
    (both carry the laser in their rate definitions). The dephasing projectors
    on the four driven-block eigenstates are generic and stay active in
    every segment.
    """
    ops: list[np.ndarray] = []
    needs_states = any(g > 0 for g in rates.gamma_d) or (
        laser_on and rates.gamma_n_gl > 0
    )
    states = eigen_system(p).states if needs_states else None

    if laser_on:
        down = rates.gamma_gl * (1.0 + rates.n_th)
        up = rates.gamma_gl * rates.n_th
        for g_idx, e_idx in _OPTICAL_PAIRS:
            if down > 0:
                op = np.zeros((DIM, DIM), dtype=complex)
                op[g_idx, e_idx] = np.sqrt(down)
                ops.append(op)
            if up > 0:
                op = np.zeros((DIM, DIM), dtype=complex)
                op[e_idx, g_idx] = np.sqrt(up)
                ops.append(op)
        if rates.gamma_n_gl > 0:
            amp = np.sqrt(rates.gamma_n_gl)
            psi1, psi2 = states[:, 0], states[:, 1]
            ops.append(amp * np.outer(psi1, psi2.conj()))
            ops.append(amp * np.outer(psi2, psi1.conj()))

    # Dephasing targets the driven block: psi_1, psi_2 and the lower and
    # upper m_s = +1 eigenstates (columns 4 and 5).
    for rate, col in zip(rates.gamma_d, (0, 1, 4, 5)):
        if rate > 0:
            psi = states[:, col]
            ops.append(np.sqrt(rate) * np.outer(psi, psi.conj()))
    return ops


def liouvillian(h: np.ndarray, channels: Iterable[np.ndarray]) -> np.ndarray:
    """Generator matrix acting on row-major vectorized density matrices.

    Args:
        h: Hermitian Hamiltonian in Hz (any dimension n).
        channels: Collapse operators with sqrt(rate) amplitudes.

    Raises:
        ValueError: If h is not Hermitian to 1e-12 relative.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
        raise ValueError("Hamiltonian must be Hermitian")
    eye = np.eye(n)
    gen = -1j * 2.0 * np.pi * (_kron(h, eye) - _kron(eye, h.T))
    for op in channels:
        op = np.asarray(op, dtype=complex)
        opdag_op = op.conj().T @ op
        gen = gen + _kron(op, op.conj())
        gen = gen - 0.5 * (_kron(opdag_op, eye) + _kron(eye, opdag_op.T))
    return gen


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, as one broadcast product (same bits)."""
    n, m = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


# -- matrix exponential ----------------------------------------------------------

#: Higham's theta_13: the largest 1-norm for which the [13/13] Padé
#: approximant of exp has a backward error below the unit roundoff of double
#: precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_THETA_13 = 5.371920351148152

#: Coefficients b_0 .. b_13 of the [13/13] Padé approximant of exp, as rows
#: (b_2j+1, b_2j): the coefficients of a^2j in U / a and in V.
_PADE_PAIRS = np.array(
    (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    )
).reshape(-1, 2)[:, ::-1].reshape(7, 2, 1, 1, 1)


@np.errstate(over="ignore", invalid="ignore")
def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one (n, n) matrix or of each slice of a (k, n, n) stack.

    Scaling and squaring with the [13/13] Padé approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26(4), 2005). Each slice takes its scaling s from its
    own 1-norm and is squared its own s times, so a slice's result does not
    depend on the stack it came in: it has the bits of a call on that slice
    alone. A slice with a non-finite entry comes out all NaN, and one whose
    squarings overflow comes out non-finite without a warning; the callers'
    drift checks turn either into a NumericalError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2:
        return expm(a[None])[0]
    norms = np.abs(a).sum(axis=-2).max(axis=-1).tolist()
    scalings = [
        math.ceil(math.log2(norm / _THETA_13)) if _THETA_13 < norm < math.inf else 0
        for norm in norms
    ]
    x = a * np.ldexp(1.0, -np.array(scalings))[:, None, None]
    bad = [i for i, norm in enumerate(norms) if not math.isfinite(norm)]
    x[bad] = 0.0
    x = _pade13(x)
    for j in range(max(scalings, default=0)):
        sel = [i for i, s in enumerate(scalings) if s > j]
        if len(sel) == len(x):
            x = x @ x
        else:
            y = x[sel]
            x[sel] = y @ y
    x[bad] = np.nan
    return x


def _pade13(a: np.ndarray) -> np.ndarray:
    """[13/13] Padé approximant (V - U)^-1 (V + U) of exp, slice by slice.

    U / a and V are sums of the same even powers of a, so they are
    accumulated side by side, in place, in one array of two rows.
    """
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    wv = _PADE_PAIRS[6] * a6
    wv += _PADE_PAIRS[5] * a4
    wv += _PADE_PAIRS[4] * a2
    wv = a6 @ wv
    wv += _PADE_PAIRS[3] * a6
    wv += _PADE_PAIRS[2] * a4
    wv += _PADE_PAIRS[1] * a2
    del a2, a4, a6
    n = a.shape[-1]
    diagonal = wv.reshape(wv.shape[:-2] + (n * n,))[..., :: n + 1]
    diagonal += _PADE_PAIRS[0, ..., 0]
    u = a @ wv[0]
    v = wv[1]
    w = v + u
    v -= u
    return np.linalg.solve(v, w)


class SchedulePropagator:
    """Exact segment-wise propagation for one parameter set.

    Holds a cache of segment propagators keyed by the segment controls and
    duration, so repeated chop and microwave segments are exponentiated once.
    Segments without microwave still live in the rotating frame of the
    schedule's drive (frame_delta), which matters for pulse-to-pulse
    coherence; frame_delta is inferred from the first microwave segment when
    not given.
    """

    def __init__(
        self, p: SystemParams, rates: RelaxationRates, *, frame_delta: float | None = None
    ) -> None:
        self.params = p
        self.rates = rates
        self.frame_delta = frame_delta
        self._propagators: dict[tuple, np.ndarray] = {}
        self._generators: dict[tuple, np.ndarray] = {}

    # -- generator / propagator construction --------------------------------

    def _segment_key(self, seg: PulseSegment, frame_delta: float) -> tuple:
        return (
            seg.laser_on,
            seg.mw_on,
            seg.mw_delta if seg.mw_on else frame_delta,
            seg.mw_rabi,
        )

    def _resolve_frame(self, schedule: Sequence[PulseSegment] | Schedule) -> float:
        if self.frame_delta is not None:
            return self.frame_delta
        for seg in schedule:
            if seg.mw_on:
                return seg.mw_delta
        return 0.0

    def segment_generator(self, seg: PulseSegment, frame_delta: float = 0.0) -> np.ndarray:
        """Constant Liouvillian for one segment (cached)."""
        key = self._segment_key(seg, frame_delta)
        gen = self._generators.get(key)
        if gen is None:
            delta = seg.mw_delta if seg.mw_on else frame_delta
            omega = seg.mw_rabi * DRIVE_SCALE if seg.mw_on else 0.0
            h = rotating_hamiltonian(self.params, delta, omega)
            channels = build_channels(self.rates, self.params, laser_on=seg.laser_on)
            gen = liouvillian(h, channels)
            self._generators[key] = gen
        return gen

    def segment_propagator(
        self, seg: PulseSegment, frame_delta: float = 0.0, duration_ns: int | None = None
    ) -> np.ndarray:
        """expm(generator * duration) for one segment (cached)."""
        ns = seg.duration_ns if duration_ns is None else duration_ns
        key = self._segment_key(seg, frame_delta) + (ns,)
        prop = self._propagators.get(key)
        if prop is None:
            gen = self.segment_generator(seg, frame_delta)
            prop = expm(gen * (ns * 1e-9))
            self._propagators[key] = prop
        return prop

    # -- state handling -----------------------------------------------------

    @staticmethod
    def _guard(rho: np.ndarray) -> np.ndarray:
        """Restore Hermiticity and trace if roundoff drift is detectable."""
        drift = max(
            float(np.max(np.abs(rho - rho.conj().T))),
            abs(float(np.real(np.trace(rho))) - 1.0),
            abs(float(np.imag(np.trace(rho)))),
        )
        if not drift <= _HERM_DRIFT_FAIL:
            raise NumericalError(f"propagation drift {drift:.3e} exceeds 1e-9")
        if drift > _HERM_DRIFT_FIX:
            rho = (rho + rho.conj().T) / 2.0
            rho = rho / np.real(np.trace(rho))
        return rho

    # -- propagation --------------------------------------------------------

    def propagate(self, rho: np.ndarray, schedule: Schedule) -> np.ndarray:
        """Final state after the whole schedule."""
        frame = self._resolve_frame(schedule)
        vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
        for seg in schedule:
            if seg.duration_ns == 0:
                continue
            vec = self.segment_propagator(seg, frame) @ vec
        return self._guard(vec.reshape(DIM, DIM))

    def trajectory(
        self,
        rho: np.ndarray,
        schedule: Schedule,
        sample_ns: int | None = None,
    ) -> list[tuple[int, np.ndarray]]:
        """States along the schedule.

        With sample_ns None, returns the state at t = 0 and after every
        segment. Otherwise returns the state at every multiple of sample_ns
        (plus t = 0 and the final time), splitting segments as needed.
        """
        frame = self._resolve_frame(schedule)
        vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
        out: list[tuple[int, np.ndarray]] = [(0, vec.reshape(DIM, DIM).copy())]
        t = 0
        if sample_ns is None:
            for seg in schedule:
                if seg.duration_ns > 0:
                    vec = self.segment_propagator(seg, frame) @ vec
                t += seg.duration_ns
                out.append((t, self._guard(vec.reshape(DIM, DIM))))
            return out
        if sample_ns <= 0:
            raise ConfigError("sample_ns must be positive")
        for seg in schedule:
            remaining = seg.duration_ns
            while remaining > 0:
                until_sample = sample_ns - (t % sample_ns)
                step = min(until_sample, remaining)
                vec = self.segment_propagator(seg, frame, duration_ns=step) @ vec
                t += step
                remaining -= step
                if t % sample_ns == 0:
                    out.append((t, self._guard(vec.reshape(DIM, DIM))))
        if out[-1][0] != t:
            out.append((t, self._guard(vec.reshape(DIM, DIM))))
        return out


class CycleEngine:
    """The standard polarization sequence over a grid of drive detunings.

    One engine serves one preset, and evaluates T C^N vec(rho_0) for every
    detuning delta of a grid, where C(delta) is the map of one cycle (chop
    train, rest, microwave pulse, rest) and T(delta) that of the readout
    tail (chop train, rest). Three facts make this cheap and exact:

    * With the rotating-wave drive and the optical channels of the driven
      transition, nothing couples the {m_s = 0, +1} block to m_s = -1, so
      the 16 rows and columns of that block are sliced out of each 6-level
      generator and the 16-dim block is propagated on its own.
    * delta enters every generator only as the frame term delta K, with
      K = i 2 pi (P+ kron I - I kron P+^T) diagonal. K commutes with the
      laser and rest generators, whose propagators are therefore
      exponentiated once per preset at delta = 0, in one stacked expm call,
      and shifted by the phases exp(delta K t). K is built from the
      projector: the difference of two generators would lose ~1e-6 to the
      4.3 GHz carrier cancellation.
    * The microwave generators G(0) + delta K of a batch are exponentiated
      in one stacked expm call, which treats every slice on its own.

    Every per-detuning result is therefore independent of the batch it was
    computed in. Each batch checks that its cycle and tail maps preserve
    the trace, and every final state is checked like SchedulePropagator's.
    """

    def __init__(self, preset: "Preset") -> None:
        ref = SchedulePropagator(preset.system, preset.rates)

        def generator(seg: PulseSegment) -> np.ndarray:
            return ref.segment_generator(seg)[np.ix_(_BLOCK, _BLOCK)]

        # One on/off pair of the train (none for zero reps), validated as such,
        # and the rest, exponentiated in one stacked call.
        pair = chopped_laser_train(
            preset.chop_on_ns, preset.chop_off_ns, min(preset.chop_reps, 1)
        )
        segments = (*pair, PulseSegment(preset.rest_ns))
        *chop_props, self._rest = expm(
            np.stack([generator(seg) * (seg.duration_ns * 1e-9) for seg in segments])
        )
        chop = np.eye(len(_BLOCK), dtype=complex)
        for prop in chop_props:
            chop = prop @ chop
        chop = np.linalg.matrix_power(chop, preset.chop_reps)
        # The readout tail (chop train, rest) is also the cycle's pre-pulse part.
        self._tail = self._rest @ chop
        self._tail_s = (pair.duration_ns * preset.chop_reps + preset.rest_ns) * 1e-9
        self._rest_s = preset.rest_ns * 1e-9
        pulse = PulseSegment(preset.t_mw_ns, mw_on=True, mw_rabi=preset.omega)
        self._mw = generator(pulse)
        self._mw_s = preset.t_mw_ns * 1e-9
        p_plus = np.real(np.diag(spin_operators().p_plus1))[list(DRIVEN_INDICES)]
        self._k_diag = 2j * np.pi * np.subtract.outer(p_plus, p_plus).reshape(-1)
        self._rho0 = initial_mixed_state().reshape(-1)[_BLOCK]
        self._n_cycles = preset.n_cycles

    def _phases(self, deltas: np.ndarray, seconds: float) -> np.ndarray:
        """diag(exp(delta K t)) per detuning, shape (n, 16)."""
        return np.exp(np.multiply.outer(deltas * seconds, self._k_diag))

    def maps(self, deltas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Cycle and tail maps, each of shape (n, 16, 16), for one batch."""
        d = np.asarray(deltas, dtype=float)
        tail = self._phases(d, self._tail_s)[:, :, None] * self._tail
        gens = np.repeat(self._mw[None] * self._mw_s, len(d), axis=0)
        idx = np.arange(len(self._k_diag))
        gens[:, idx, idx] += np.multiply.outer(d * self._mw_s, self._k_diag)
        pulse = self._rest @ expm(gens)
        cycle = (self._phases(d, self._rest_s)[:, :, None] * pulse) @ tail
        trace_row = np.eye(len(DRIVEN_INDICES)).reshape(-1)
        for name, m in (("cycle", cycle), ("tail", tail)):
            err = float(np.max(np.abs(trace_row @ m - trace_row), initial=0.0))
            if not err <= _HERM_DRIFT_FAIL:
                raise NumericalError(f"{name} map changes the trace by {err:.3e}")
        return cycle, tail

    def states(
        self, deltas: Sequence[float], n_cycles: int | None = None
    ) -> np.ndarray:
        """Driven-block states after n_cycles cycles and the tail, (n, 4, 4)."""
        n = self._n_cycles if n_cycles is None else n_cycles
        if n < 0:
            raise ConfigError("n_cycles must be >= 0")
        d = np.asarray(deltas, dtype=float)
        out = []
        for start in range(0, len(d), CHUNK):
            cycle, tail = self.maps(d[start : start + CHUNK])
            vec = np.tile(self._rho0, (len(cycle), 1))
            for _ in range(n):
                vec = _apply(cycle, vec)
            out.append(_checked(_apply(tail, vec)))
        return np.concatenate(out) if out else np.empty((0, 4, 4), dtype=complex)

    def polarizations(
        self, deltas: Sequence[float], n_cycles: int | None = None
    ) -> np.ndarray:
        """Readout polarization after the sequence at every detuning."""
        return np.array(
            [polarization_of_state(rho).p for rho in self.states(deltas, n_cycles)]
        )

    def buildup(self, delta: float, n_max: int) -> np.ndarray:
        """Readout polarization after 0..n_max cycles at one detuning.

        The states after successive cycles are read out CHUNK at a time,
        through one stacked tail matmul and one drift check per block; each
        slice is the same 16x16 product as in states(), so entry n equals
        polarizations([delta], n) bit for bit.
        """
        cycle, tail = self.maps([delta])
        values = []
        vec = self._rho0[None]
        for start in range(0, n_max + 1, CHUNK):
            block = np.empty((min(CHUNK, n_max + 1 - start), len(self._rho0)), dtype=complex)
            for i in range(len(block)):
                if start + i > 0:
                    vec = _apply(cycle, vec)
                block[i] = vec[0]
            tails = np.broadcast_to(tail, (len(block), *tail.shape[1:]))
            rhos = _checked(_apply(tails, block))
            values += [polarization_of_state(rho).p for rho in rhos]
        return np.array(values)


def _apply(maps: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a stack of maps (n, 16, 16) to a stack of vectors (n, 16)."""
    return (maps @ vecs[:, :, None])[:, :, 0]


def _checked(vecs: np.ndarray) -> np.ndarray:
    """Reshape vectorized 4x4 states; raise on drift as SchedulePropagator does."""
    n = len(DRIVEN_INDICES)
    rho = vecs.reshape(-1, n, n)
    trace = np.trace(rho, axis1=1, axis2=2)
    drift = max(
        float(np.max(np.abs(rho - rho.conj().transpose(0, 2, 1)), initial=0.0)),
        float(np.max(np.abs(trace - 1.0), initial=0.0)),
    )
    if not drift <= _HERM_DRIFT_FAIL:
        raise NumericalError(f"propagation drift {drift:.3e} exceeds 1e-9")
    return rho


def write_trajectory_csv(
    trajectory: Sequence[tuple[int, np.ndarray]], path: str | Path
) -> None:
    """CSV export: time_ns, interleaved Re/Im of rho (row-major), P.

    The polarization column is left empty at times when both readout
    populations vanish.
    """
    header = ["time_ns"]
    for i in range(DIM):
        for j in range(DIM):
            header += [f"rho_re_{i}{j}", f"rho_im_{i}{j}"]
    header.append("P")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, rho in trajectory:
            row: list[str] = [repr(int(t))]
            for i in range(DIM):
                for j in range(DIM):
                    row.append(repr(float(np.real(rho[i, j]))))
                    row.append(repr(float(np.imag(rho[i, j]))))
            try:
                row.append(repr(polarization_of_state(rho).p))
            except UndefinedPolarizationError:
                row.append("")
            writer.writerow(row)
