"""Lindblad master equation for piecewise-constant schedules.

The density matrix is propagated exactly on each segment by exponentiating
the constant generator

    d rho / dt = -i 2 pi [H, rho]
                 + sum_L ( L rho L+ - (1/2) {L+ L, rho} )

with H in cyclic Hz and channel amplitudes sqrt(Gamma), Gamma a linear rate
in 1/s. Density matrices are vectorized row-major, so

    vec(A rho B) = (A kron B^T) vec(rho).

SchedulePropagator propagates the full 6x6 density matrix of any schedule
segment by segment; it is the reference path that the engine is checked
against. CycleEngine runs every command: the standard sequence over a grid
of drive detunings at once, and the sampled trajectory of one sequence, on
the {m_s = 0, +1} block that the sequence never leaves (see its docstring).
Both exponentiate with expm, a NumPy scaling-and-squaring Padé exponential
that takes one matrix or a stack, so the package needs no SciPy at runtime.

_checked is the one state guard of both paths: it raises NumericalError on
a drift above 1e-9 and makes a state whose drift is above 1e-12 Hermitian
with unit trace again. CycleEngine also applies it, every CHUNK cycles, to
the state it carries from one cycle to the next, in the sweeps and the
buildup as in the trajectory.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError, NumericalError, UndefinedPolarizationError
from .hamiltonian import rotating_hamiltonian
from .operators import DIM, basis_index, spin_operators
from .params import RelaxationRates, SystemParams
from .polarization import polarization_of_state
from .presets import MAX_GRID_POINTS, Preset
from .schedule import PulseSegment, Schedule, chopped_laser_train

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

#: Detunings per CycleEngine batch (64 keep the working set near 2 MiB; 401
#: would take 12.8 MiB), and cycles between two guards of the carried state.
#: Only the engine cuts grids, so batches fall at the same points in any process.
CHUNK = 64


def initial_mixed_state() -> np.ndarray:
    """Fully mixed nuclear state in m_s = 0: diag(1/2, 1/2, 0, 0, 0, 0)."""
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    return rho


#: P+ on the driven block, the frame term delta K's diagonal
#: K = i 2 pi (P+ kron I - I kron P+^T), and vec(rho_0) on the block.
_P_PLUS = np.real(spin_operators().p_plus1[np.ix_(DRIVEN_INDICES, DRIVEN_INDICES)])
_K_DIAG = 2j * np.pi * np.subtract.outer(np.diag(_P_PLUS), np.diag(_P_PLUS)).reshape(-1)
_RHO0 = initial_mixed_state().reshape(-1)[_BLOCK]


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
    """np.kron of two square matrices, or of each pair of slices of two
    (k, n, n) and (k, m, m) stacks, as one broadcast product (same bits)."""
    n, m = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], n * m, n * m)


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

    def propagate(self, rho: np.ndarray, schedule: Schedule) -> np.ndarray:
        """Final state after the whole schedule."""
        frame = self._resolve_frame(schedule)
        vec = np.ascontiguousarray(rho, dtype=complex).reshape(-1)
        for seg in schedule:
            if seg.duration_ns == 0:
                continue
            vec = self.segment_propagator(seg, frame) @ vec
        return _checked(vec[None])[0]


class CycleEngine:
    """The standard polarization sequence over a grid of drive detunings.

    One engine serves one preset, and evaluates T C^N vec(rho_0) for every
    detuning delta of a grid, where C(delta) is the map of one cycle (chop
    train, rest, microwave pulse, rest) and T(delta) that of the readout
    tail (chop train, rest). Four facts make this cheap and exact:

    * With the rotating-wave drive and the optical channels of the driven
      transition, nothing couples the {m_s = 0, +1} block to m_s = -1, as
      each engine checks for H and for every collapse operator. So the
      generators are built on the block, liouvillian(h[:4, :4], [c[:4, :4]
      ...]): the 16 rows and columns of SchedulePropagator's, bit for bit.
    * delta enters every generator only as the frame term delta K, with
      K = i 2 pi (P+ kron I - I kron P+^T) diagonal. K commutes with the
      laser and rest generators, so their propagators are exponentiated
      once per preset at delta = 0, in one stacked expm call, and shifted
      by the phases exp(delta K t). K comes from the projector: the
      difference of two generators would lose ~1e-6 to the 4.3 GHz carrier.
    * The laser is off during the microwave pulse, so with no dephasing
      channel (as in the bundled presets) the pulse is unitary and its map
      is U kron conj(U) (row-major vec), with U = exp(-2 pi i t H(delta))
      and H(delta) = H(0) - delta P+ on the block: one stacked 4x4 expm per
      batch. A pulse with channels exponentiates G(0) + delta K instead.
    * expm treats every slice of a stack on its own.

    Every per-detuning result is therefore independent of the batch it was
    computed in. Each batch checks that its maps preserve the trace.
    states() and buildup() advance the state through one stepper, _carried,
    which passes the carried state through _checked every CHUNK cycles, and
    every read-out state goes through _checked too.

    trajectory() samples the state along one sequence at one detuning: it
    steps the same block generators, each plus delta K, through the
    preset's cycle n_cycles times and then the readout tail, and guards the
    carried state every CHUNK cycles as _carried does.
    """

    def __init__(self, preset: Preset) -> None:
        n = len(DRIVEN_INDICES)
        # The drive acts inside the block, so h_mw couples across its edge
        # wherever h0 does.
        h0 = rotating_hamiltonian(preset.system, 0.0, 0.0)
        h_mw = rotating_hamiltonian(preset.system, 0.0, preset.omega * DRIVE_SCALE)
        if np.any(h_mw[:n, n:]) or np.any(h_mw[n:, :n]):
            raise NumericalError("the Hamiltonian couples the driven block to m_s = -1")
        channels = {}
        for laser_on in (True, False):
            ops = build_channels(preset.rates, preset.system, laser_on=laser_on)
            if any(np.any(op[:n, n:]) or np.any(op[n:, :]) for op in ops):
                raise NumericalError("a collapse operator acts outside the driven block")
            channels[laser_on] = [op[:n, :n] for op in ops]
        # The block generators at delta = 0, keyed by the laser gate.
        self._generators = {
            laser_on: liouvillian(h0[:n, :n], ops) for laser_on, ops in channels.items()
        }

        # One on/off pair of the train (none for zero reps), validated as such,
        # and the rest, exponentiated in one stacked call.
        pair = chopped_laser_train(
            preset.chop_on_ns, preset.chop_off_ns, min(preset.chop_reps, 1)
        )
        segments = (*pair, PulseSegment(preset.rest_ns))
        *chop_props, self._rest = expm(
            np.stack(
                [self._generators[seg.laser_on] * (seg.duration_ns * 1e-9) for seg in segments]
            )
        )
        chop = np.eye(len(_BLOCK), dtype=complex)
        for prop in chop_props:
            chop = prop @ chop
        chop = np.linalg.matrix_power(chop, preset.chop_reps)
        # The readout tail (chop train, rest) is also the cycle's pre-pulse part.
        self._tail = self._rest @ chop
        self._tail_s = (pair.duration_ns * preset.chop_reps + preset.rest_ns) * 1e-9
        self._rest_s = preset.rest_ns * 1e-9
        self._mw_s = preset.t_mw_ns * 1e-9
        self._h = h_mw[:n, :n]
        # The 16x16 pulse generator, built only for a pulse with channels.
        self._mw = liouvillian(self._h, channels[False]) if channels[False] else None
        self._preset = preset

    def _phases(self, deltas: np.ndarray, seconds: float) -> np.ndarray:
        """diag(exp(delta K t)) per detuning, shape (n, 16)."""
        return np.exp(np.multiply.outer(deltas * seconds, _K_DIAG))

    def maps(self, deltas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Cycle and tail maps, each of shape (n, 16, 16), for one batch."""
        d = np.asarray(deltas, dtype=float)
        tail = self._phases(d, self._tail_s)[:, :, None] * self._tail
        if self._mw is None:
            h = self._h - np.multiply.outer(d, _P_PLUS)
            u = expm(h * (-2j * np.pi * self._mw_s))
            pulse = _kron(u, u.conj())
        else:
            gens = np.repeat(self._mw[None] * self._mw_s, len(d), axis=0)
            idx = np.arange(len(_K_DIAG))
            gens[:, idx, idx] += np.multiply.outer(d * self._mw_s, _K_DIAG)
            pulse = expm(gens)
        cycle = (self._phases(d, self._rest_s)[:, :, None] * (self._rest @ pulse)) @ tail
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
        n = self._preset.cycles(n_cycles)
        d = np.asarray(deltas, dtype=float)
        out = []
        for start in range(0, len(d), CHUNK):
            cycle, tail = self.maps(d[start : start + CHUNK])
            for vec in _carried(cycle, np.tile(_RHO0, (len(cycle), 1)), n):
                pass  # the state after n cycles is the stepper's last
            out.append(_checked(_apply(tail, vec)))
        return np.concatenate(out) if out else np.empty((0, 4, 4), dtype=complex)

    def polarizations(
        self, deltas: Sequence[float], n_cycles: int | None = None
    ) -> np.ndarray:
        """Readout polarization after the sequence at every detuning."""
        return polarization_of_state(self.states(deltas, n_cycles)).p

    def buildup(self, delta: float, n_max: int) -> np.ndarray:
        """Readout polarization after 0..n_max cycles at one detuning.

        The stepper's states are read out CHUNK at a time, through one
        broadcast tail matmul and one _checked call per block. Each slice is
        the same 16x16 product as in states(), after the same guards of the
        carried state, so entry n equals polarizations([delta], n) bit for bit.
        """
        cycle, tail = self.maps([delta])
        carried = _carried(cycle, _RHO0[None], n_max)
        values = []
        while block := list(itertools.islice(carried, CHUNK)):
            states = _checked(_apply(tail, np.concatenate(block)))
            values.append(polarization_of_state(states).p)
        return np.concatenate(values) if values else np.empty(0)

    def trajectory(
        self, delta: float, sample_ns: int, n_cycles: int | None = None
    ) -> list[tuple[int, np.ndarray]]:
        """6x6 states along the sequence and its readout tail at one detuning.

        Returns the state at t = 0, at every multiple of sample_ns and at the
        end, splitting segments as needed. A segment's generator is the
        laser-on, laser-off or pulse block generator plus delta K, and each
        (segment kind, step) is exponentiated once. The carried state goes
        through _checked every CHUNK cycles, and every returned state through
        _checked too; their m_s = -1 rows and columns are zero. More than
        MAX_GRID_POINTS rows is a ConfigError, raised before any propagation.
        """
        if sample_ns <= 0:
            raise ConfigError("sample_ns must be positive")
        preset = self._preset
        n_cycles, tail = preset.cycles(n_cycles), preset.readout_tail()
        cycle = preset.schedule(delta, n_cycles=1)
        end = n_cycles * cycle.duration_ns + tail.duration_ns
        rows = -(-end // sample_ns) + 1  # t = 0, each multiple of sample_ns, the end
        if rows > MAX_GRID_POINTS:
            raise ConfigError(f"trajectory of {rows} rows exceeds {MAX_GRID_POINTS}")
        frame = np.diag(delta * _K_DIAG)
        pulse = self._mw if self._mw is not None else liouvillian(self._h, ())
        # Keyed by the segment's (mw_on, laser_on) gates.
        generators = {(False, on): gen + frame for on, gen in self._generators.items()}
        generators[True, False] = pulse + frame
        props: dict[tuple, np.ndarray] = {}
        vec, t = _RHO0, 0
        times, vecs = [0], [vec]
        # n_cycles passes of one cycle, then one of the tail; the carried
        # state is guarded after every CHUNK passes, as in _carried.
        passes = itertools.chain(itertools.repeat(cycle, n_cycles), [tail])
        for count, segments in enumerate(passes, start=1):
            for seg in segments:
                kind = (seg.mw_on, seg.laser_on)
                remaining = seg.duration_ns
                while remaining > 0:
                    step = min(sample_ns - t % sample_ns, remaining)
                    prop = props.get((kind, step))
                    if prop is None:
                        prop = props[kind, step] = expm(generators[kind] * (step * 1e-9))
                    vec = prop @ vec
                    t += step
                    remaining -= step
                    if t % sample_ns == 0:
                        times.append(t)
                        vecs.append(vec)
            if count % CHUNK == 0:
                vec = _checked(vec).reshape(vec.shape)
        if times[-1] != t:
            times.append(t)
            vecs.append(vec)
        n = len(DRIVEN_INDICES)
        states = np.zeros((len(vecs), DIM, DIM), dtype=complex)
        states[:, :n, :n] = _checked(np.array(vecs))
        return list(zip(times, states))


def _apply(maps: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a stack of maps (n, 16, 16) to a stack of vectors (n, 16)."""
    return (maps @ vecs[:, :, None])[:, :, 0]


def _carried(cycle: np.ndarray, vec: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """States (k, 16) after 0, 1, ..., n applications of the cycle maps (k, 16, 16).

    The one cycle stepper. It passes the carried state through _checked every
    CHUNK cycles, which bounds round-off drift per CHUNK cycles, not per run.
    """
    yield vec
    for count in range(1, n + 1):
        vec = _apply(cycle, vec)
        if count % CHUNK == 0:
            vec = _checked(vec).reshape(vec.shape)
        yield vec


def _checked(vecs: np.ndarray) -> np.ndarray:
    """The package's one state guard: (k, n, n) matrices of k vectorized states.

    A state's drift is the larger of max |rho - rho+| and |tr rho - 1|. A
    drift above 1e-9, or NaN, raises NumericalError; a state whose drift is
    above 1e-12 comes back Hermitian with unit trace, and every other state
    keeps its bits. vecs itself is not changed.
    """
    n = math.isqrt(vecs.shape[-1])
    rho = vecs.reshape(-1, n, n)
    herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    drift = np.maximum(herm, np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0))
    worst = float(np.max(drift, initial=0.0))
    if not worst <= _HERM_DRIFT_FAIL:
        raise NumericalError(f"propagation drift {worst:.3e} exceeds 1e-9")
    fix = drift > _HERM_DRIFT_FIX
    if np.any(fix):
        rho, bad = rho.copy(), rho[fix]
        bad = (bad + bad.conj().transpose(0, 2, 1)) / 2.0
        rho[fix] = bad / np.real(np.trace(bad, axis1=1, axis2=2))[:, None, None]
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
    states = np.array([rho for _, rho in trajectory], dtype=complex)
    # Viewed as floats, each entry is its (Re, Im) pair, in column order.
    parts = states.reshape(len(states), DIM * DIM).view(float).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for (t, rho), values in zip(trajectory, parts):
            row = [repr(int(t)), *map(repr, values)]
            try:
                row.append(repr(polarization_of_state(rho).p))
            except UndefinedPolarizationError:
                row.append("")
            writer.writerow(row)
