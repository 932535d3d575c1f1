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
against, and the only one with 6x6 states. CycleEngine runs every command:
the standard sequence over a grid of (cell, drive detuning) pairs at once,
where the cells are parameter sets that differ only in their SystemParams,
and the sampled trajectory of one sequence, all on the 4x4 {m_s = 0, +1}
block that the sequence never leaves (see its docstring).
Both exponentiate with expm, a NumPy scaling-and-squaring Padé exponential
that takes one matrix or a stack, so the package needs no SciPy at runtime.

_checked is the one state guard of both paths: it raises NumericalError on
a drift above 1e-9 and makes a state whose drift is above 1e-12 Hermitian
with unit trace again. CycleEngine's one stepper, _carried, applies it every
CHUNK cycles to the state it carries from one cycle to the next, in the
sweeps, the buildup and the trajectory. Every segment map comes from the
engine's one map owner, _segment_maps. The module does no file I/O.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError, NumericalError
from .hamiltonian import rotating_hamiltonian
from .operators import DIM, basis_index, spin_operators
from .params import RelaxationRates, SystemParams
from .polarization import polarization_of_state
from .presets import MAX_GRID_POINTS, Preset
from .schedule import PulseSegment, Schedule, duration_ns

#: Indices of the {m_s = 0, +1} block that the drive and the laser act on.
DRIVEN_INDICES = (0, 1, 2, 3)

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

#: (cell, detuning) pairs per CycleEngine batch, cells per set-up step (so
#: most slices per set-up expm), and cycles between two guards of the
#: carried state. A call's batches are written into one 512 KiB workspace
#: (401 pairs at once would take 3.1 MiB), and a pair's result does not
#: depend on the batch it falls in.
CHUNK = 64


def initial_mixed_state() -> np.ndarray:
    """Fully mixed nuclear state in m_s = 0: diag(1/2, 1/2, 0, 0, 0, 0)."""
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    return rho


#: P+ on the driven block, the frame term delta K's diagonal
#: K = i 2 pi (P+ kron I - I kron P+^T), its three values 2 pi i {-1, 0, +1}
#: with the index that gathers them into it, and vec(rho_0) on the block.
_P_PLUS = np.real(spin_operators().p_plus1[np.ix_(DRIVEN_INDICES, DRIVEN_INDICES)])
_K_DIAG = 2j * np.pi * np.subtract.outer(np.diag(_P_PLUS), np.diag(_P_PLUS)).reshape(-1)
_K_VALUES, _K_INDEX = np.unique(_K_DIAG, return_inverse=True)
_RHO0 = initial_mixed_state()[np.ix_(DRIVEN_INDICES, DRIVEN_INDICES)].reshape(-1)

#: The row vector that takes a vectorized 4x4 block to its trace.
_TRACE_ROW = np.eye(len(DRIVEN_INDICES)).reshape(-1)


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


@np.errstate(over="ignore", invalid="ignore")
def liouvillian(h: np.ndarray, channels: Iterable[np.ndarray]) -> np.ndarray:
    """Generator matrix acting on row-major vectorized density matrices.

    Each slice of a (k, n, n) stack of Hamiltonians, each with the slices
    of (k, n, n) stacks of collapse operators, gives the slice of a
    (k, n^2, n^2) stack of generators, with the bits of a call on it alone.

    Args:
        h: Hermitian Hamiltonian in Hz (any dimension n), or a stack.
        channels: Collapse operators with sqrt(rate) amplitudes, or stacks.

    Raises:
        ValueError: If h, or a slice of the stack, is not Hermitian to
            1e-12 relative to its own largest entry.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if np.any(np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("Hamiltonian must be Hermitian")
    eye = np.eye(n)
    gen = -1j * 2.0 * np.pi * (_kron(h, eye) - _kron(eye, h.swapaxes(-2, -1)))
    for op in channels:
        op = np.asarray(op, dtype=complex)
        opdag_op = op.conj().swapaxes(-2, -1) @ op
        gen = gen + _kron(op, op.conj())
        gen = gen - 0.5 * (_kron(opdag_op, eye) + _kron(eye, opdag_op.swapaxes(-2, -1)))
    return gen


def _kron(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.kron of two square matrices, or of each pair of slices of two
    (k, n, n) and (k, m, m) stacks (a matrix broadcasts against a stack),
    as one broadcast product (same bits), written into out if given."""
    n, m = a.shape[-1], b.shape[-1]
    if out is not None:
        shape = out.shape[:-2] + (n, m, n, m)
        np.multiply(a[..., :, None, :, None], b[..., None, :, None, :], out=out.reshape(shape))
        return out
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

    def _resolve_frame(self, schedule: Schedule) -> float:
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

    One engine holds a stack of cells: the cells take the engine's preset,
    each with its own SystemParams (one cell, the preset's own, by default).
    For every (cell, detuning delta) pair it evaluates T C^N vec(rho_0),
    where C(delta) is the map of one cycle (chop train, rest, microwave
    pulse, rest) and T(delta) that of the readout tail (chop train, rest).
    Five facts make this cheap and exact:

    * With the rotating-wave drive and the optical channels of the driven
      transition, nothing couples the {m_s = 0, +1} block to m_s = -1, as
      each engine checks for H and for every collapse operator of every
      cell. So the generators are built on the block, liouvillian(h[:4, :4],
      [c[:4, :4] ...]): the 16 rows and columns of SchedulePropagator's,
      bit for bit.
    * delta enters every generator only as the frame term delta K, with
      K = i 2 pi (P+ kron I - I kron P+^T) diagonal. K commutes with the
      laser and rest generators, so their maps T and R are formed once per
      cell at delta = 0 and shifted by the phases exp(delta K t). K comes
      from the projector: the difference of two generators would lose ~1e-6
      to the 4.3 GHz carrier. So T(delta) C^N = C'^N T(delta), where the
      cycle map C' = diag(exp(delta K (t_tail + t_rest))) T(0) R(0) Pulse
      takes one read-out state to the next.
    * The laser is off in the chop-off, the rest and the microwave pulse.
      With no laser-off channel (no dephasing, as in the bundled presets)
      each of them is unitary, and its map is U kron conj(U) (row-major
      vec) with U = exp(-2 pi i t H) from one batched 4x4 eigh: V of the
      chop-off and the rest from H(0), the pulse's U from H(delta) =
      H(0) - delta P+. With channels, expm takes them, the pulse as
      G(0) t + delta K t. _segment_maps makes this choice for every
      segment, so the batches and the trajectory form one pulse map.
    * The cells share every duration, so the phases of a detuning are the
      same in every cell. A batch of CHUNK (cell, detuning) pairs, which
      may span several cells, gathers each pair's H(0), T R and T vec(rho_0)
      by its cell index; a one-cell engine broadcasts its own instead.
    * eigh, expm and matmul treat every slice of a stack on its own, so a
      result depends neither on its batch nor on the other cells.

    Every U and V is checked to max |U+ U - I| <= 1e-9, T and R have their
    trace checked once per engine, and _segment_maps checks each dephased pulse's.
    states(), buildup() and trajectory() carry the state from cycle to
    cycle through one stepper, _carried, which passes it through _checked
    every CHUNK cycles; every read-out goes through _checked too.

    states() and polarizations() allocate one (2, CHUNK, 16, 16) workspace
    per call (smaller for fewer pairs). maps() has _segment_maps write each
    batch's pulse maps into it, and writes the cycle maps C' there too.
    No method writes to the engine after __init__. buildup() and
    trajectory() carry cell 0 with maps()' cycle map at one detuning;
    trajectory() steps between read-outs with _segment_maps' maps.
    """

    def __init__(self, preset: Preset, systems: Sequence[SystemParams] | None = None) -> None:
        n = len(DRIVEN_INDICES)
        systems = (preset.system,) if systems is None else systems
        # rotating_hamiltonian(system, 0, omega) is its omega = 0 matrix plus
        # this drive term, so the sum has its bits. The drive acts inside the
        # block, so h couples across the block's edge wherever h0 does.
        h0 = np.array([rotating_hamiltonian(system, 0.0, 0.0) for system in systems])
        h = h0 + (preset.omega * DRIVE_SCALE) * spin_operators().s_x_driven
        if np.any(h[:, :n, n:]) or np.any(h[:, n:, :n]):
            raise NumericalError("the Hamiltonian couples the driven block to m_s = -1")
        self._h0, self._h = h0[:, :n, :n].copy(), h[:, :n, :n].copy()
        # The rates fix which channels exist, so every cell has the same
        # list: each channel becomes one (cells, 4, 4) stack, keyed by the
        # laser gate. The blocks are copies, so no 6x6 stack is kept.
        self._channels = {}
        for on in (True, False):
            cell_ops = [build_channels(preset.rates, system, laser_on=on) for system in systems]
            ops = [np.array(op) for op in zip(*cell_ops)]
            if any(np.any(op[:, :n, n:]) or np.any(op[:, n:, :]) for op in ops):
                raise NumericalError("a collapse operator acts outside the driven block")
            self._channels[on] = [op[:, :n, :n].copy() for op in ops]
        # The 16x16 pulse generators, built only for a laser-off gate with
        # channels; without them every laser-off segment is unitary.
        self._mw = self._generator(True, False) if self._channels[False] else None

        # The tail: a chop on/off pair taken chop_reps times, then the rest.
        # Per step of CHUNK cells, each expm of at most CHUNK slices bounds
        # the set-up's memory as CHUNK bounds a batch's.
        self._tail_s = duration_ns(preset.readout_tail()) * 1e-9  # validates the train
        durations = (preset.chop_on_ns, preset.chop_off_ns, preset.rest_ns)
        on_s, off_s, rest_s = (ns * 1e-9 for ns in durations)
        tail_rest, tail_rho0 = [], []
        for start in range(0, len(systems), CHUNK):
            cells = slice(start, start + CHUNK)
            [on] = self._segment_maps(False, True, (on_s,), cells=cells)
            off, rest = self._segment_maps(False, False, (off_s, rest_s), cells=cells)
            # The readout tail T (chop train, rest). T and R do not depend on
            # delta, so one trace check each covers every batch; a non-finite
            # generator fails them.
            tail = rest @ np.linalg.matrix_power(off @ on, preset.chop_reps)
            _check_trace("rest", rest)
            _check_trace("tail", tail)
            tail_rest.append(tail @ rest)
            tail_rho0.append(tail @ _RHO0)
            del on, off, rest, tail  # freed before the next expm
        self._tail_rest = np.concatenate(tail_rest)
        self._tail_rho0 = np.concatenate(tail_rho0)
        self._shift_s = self._tail_s + rest_s
        self._mw_s = preset.t_mw_ns * 1e-9
        self._preset = preset

    def _generator(self, mw_on: bool, laser_on: bool, cells=slice(None)) -> np.ndarray:
        """Block generators at delta = 0 of the segments with these gates, for
        the cells given (all by default; one index gives one 16x16 matrix)."""
        h = self._h if mw_on else self._h0
        return liouvillian(h[cells], [op[cells] for op in self._channels[laser_on]])

    @np.errstate(over="ignore", invalid="ignore")
    def _segment_maps(
        self, mw_on: bool, laser_on: bool, seconds, deltas=(0.0,), cells=0, out=None
    ) -> np.ndarray:
        """Maps (m, n, 16, 16) of the segments with these gates for m durations
        and n (cell, detuning) pairs; a pulse's or a unitary segment's go into out.

        The one place where a segment becomes a map, for the set-up, the
        batches and the trajectory: a laser-off segment without channels is
        V kron conj(V), V from one eigh of H(0), or of H(0) - delta P+ for a
        pulse; any other is expm of its block generator times t, plus
        delta K t for a pulse, whose trace is then checked. A segment without
        microwave is its delta = 0 map times diag(exp(delta K t)). deltas
        holds each pair's detuning and cells each pair's cell, or one index
        for all (a pulse only), or, at delta = 0, a slice of cells, one pair
        each. A non-finite generator gives a non-finite map.
        """
        d = np.asarray(deltas, dtype=float)
        if not laser_on and self._mw is None:
            h = self._of(self._h, cells) - d[:, None, None] * _P_PLUS if mw_on else self._h0[cells]
            v = _unitary_propagators(h, seconds, "pulse" if mw_on else "laser-off")
            maps = _kron(v, v.conj(), out)
        elif mw_on:
            gen, frame = self._of(self._mw, cells), np.diag(_K_DIAG)
            maps = [expm(gen * t + np.multiply.outer(d * t, frame)) for t in seconds]
            maps = np.stack(maps, out=out)
            _check_trace("pulse", maps)
        else:
            gen = self._generator(False, laser_on, cells)
            maps = np.array([expm(gen * t) for t in seconds])
        if not mw_on and d.any():
            np.multiply(self._phases(d, np.asarray(seconds)[:, None])[..., None], maps, out=maps)
        return maps

    @staticmethod
    def _of(stack: np.ndarray, cells) -> np.ndarray:
        """The slices of a per-cell stack for a batch's cells; a one-cell
        engine's stack broadcasts as it is, with no gather."""
        return stack if len(stack) == 1 else stack[cells]

    def _phases(self, deltas: np.ndarray, seconds) -> np.ndarray:
        """diag(exp(delta K t)) per detuning, (n, 16), or (m, n, 16) for seconds
        (m, 1), from K's three values."""
        return np.exp(np.multiply.outer(deltas * seconds, _K_VALUES)).take(_K_INDEX, axis=-1)

    def maps(self, deltas: Sequence[float], cells=0, work=None) -> tuple[np.ndarray, np.ndarray]:
        """One batch's cycle maps C' (n, 16, 16) and read-out states after 0 cycles (n, 16).

        cells is the cell index of each detuning, or one index for all. work,
        a (2, k >= n, 16, 16) block (new by default), holds the pulse maps and C'.
        """
        d = np.asarray(deltas, dtype=float)
        work = np.empty((2, len(d), 16, 16), complex) if work is None else work
        pulse, cycle = work[:, : len(d)]
        self._segment_maps(True, False, (self._mw_s,), d, cells, pulse[None])
        np.matmul(self._of(self._tail_rest, cells), pulse, out=cycle)
        np.multiply(self._phases(d, self._shift_s)[:, :, None], cycle, out=cycle)
        return cycle, self._phases(d, self._tail_s) * self._of(self._tail_rho0, cells)

    def _batches(
        self, deltas: Sequence[float], n_cycles: int | None, cells
    ) -> Iterator[np.ndarray]:
        """Driven-block states after n_cycles cycles and the tail, (k, 4, 4),
        for each batch of CHUNK (cell, detuning) pairs in turn."""
        n = self._preset.cycles(n_cycles)
        d = np.asarray(deltas, dtype=float)
        work = np.empty((2, min(CHUNK, len(d)), 16, 16), complex)  # the call's one workspace
        for start in range(0, len(d), CHUNK):
            batch = slice(start, start + CHUNK)
            part = cells[batch] if np.ndim(cells) else cells
            for vec in _carried(*self.maps(d[batch], part, work), n):
                pass  # the state after n cycles is the stepper's last
            yield _checked(vec)

    def states(
        self, deltas: Sequence[float], n_cycles: int | None = None, cells=0
    ) -> np.ndarray:
        """Driven-block states after n_cycles cycles and the tail, (n, 4, 4).

        cells is the cell index of each detuning, or one index for all.
        """
        out = list(self._batches(deltas, n_cycles, cells))
        return np.concatenate(out) if out else np.empty((0, 4, 4), dtype=complex)

    def polarizations(
        self, deltas: Sequence[float], n_cycles: int | None = None, cells=0
    ) -> np.ndarray:
        """Readout polarization after the sequence at every (cell, detuning)
        pair, read out batch by batch, so no stack of states is kept."""
        out = [polarization_of_state(rho).p for rho in self._batches(deltas, n_cycles, cells)]
        return np.concatenate(out) if out else np.empty(0)

    def buildup(self, delta: float, n_max: int) -> np.ndarray:
        """Readout polarization after 0..n_max cycles at one detuning.

        The stepper's states are read out CHUNK at a time, through one
        _checked call per block. Each is the same 16x16 product as in
        states(), after the same guards of the carried state, so entry n
        equals polarizations([delta], n) bit for bit.
        """
        carried = _carried(*self.maps([delta]), n_max)
        values = []
        while block := list(itertools.islice(carried, CHUNK)):
            values.append(polarization_of_state(_checked(np.concatenate(block))).p)
        return np.concatenate(values) if values else np.empty(0)

    def trajectory(
        self, delta: float, sample_ns: int, n_cycles: int | None = None
    ) -> tuple[list[int], np.ndarray]:
        """Driven-block states along the sequence and its readout tail at one detuning.

        Returns the times in ns, t = 0, every multiple of sample_ns and the
        end, and the (k, 4, 4) states at those times, through _checked. The
        sequence is read as the readout tail, then n_cycles cycles (pulse,
        rest, tail) from one read-out state to the next. _carried carries
        those states with maps()' cycle map, so the last row is states()' bit
        for bit. The first tail, and each cycle that holds a sample time,
        step from their start through _segment_maps, once per (segment,
        step). More than MAX_GRID_POINTS rows is a ConfigError, raised first.
        """
        if sample_ns <= 0:
            raise ConfigError("sample_ns must be positive")
        n_cycles, one = self._preset.cycles(n_cycles), self._preset.schedule(delta, n_cycles=1)
        tail, cycle = one[:-2], one[-2:] + one[:-2]  # one is (*tail, pulse, rest)
        tail_ns, cycle_ns = duration_ns(tail), duration_ns(cycle)
        rows = -(-(tail_ns + n_cycles * cycle_ns) // sample_ns) + 1  # the multiples, the end
        if rows > MAX_GRID_POINTS:
            raise ConfigError(f"trajectory of {rows} rows exceeds {MAX_GRID_POINTS}")

        @functools.cache
        def segment_map(seg: PulseSegment, ns: int) -> np.ndarray:
            return self._segment_maps(seg.mw_on, seg.laser_on, (ns * 1e-9,), (delta,), [0])[0, 0]

        def walk(t: int, vec: np.ndarray, segments: Schedule) -> Iterator[tuple]:
            for seg in segments:  # (t, state) at each multiple of sample_ns in [t, end)
                remaining = seg.duration_ns
                while remaining > 0:
                    if t % sample_ns == 0:
                        yield t, vec
                    ns = min(sample_ns - t % sample_ns, remaining)
                    vec = segment_map(seg, ns) @ vec
                    t, remaining = t + ns, remaining - ns

        samples = [*walk(0, _RHO0, tail)]
        for count, start in enumerate(_carried(*self.maps([delta]), n_cycles)):
            t = tail_ns + count * cycle_ns
            if count == n_cycles:
                samples.append((t, start[0]))
            elif -t % sample_ns < cycle_ns:
                samples += walk(t, start[0], cycle)
        times, vecs = zip(*samples)
        return list(times), _checked(np.array(vecs))


def _unitary_propagators(h: np.ndarray, seconds, what: str) -> np.ndarray:
    """exp(-2 pi i t H) of each H of a (k, 4, 4) stack, for a duration t, (k, 4, 4),
    or each of several, (m, k, 4, 4), from one batched eigh. A non-finite H, a
    failed eigh or max |U+ U - I| > 1e-9 is a NumericalError naming what."""
    if not np.isfinite(h).all():
        raise NumericalError(f"the {what} Hamiltonian is not finite")
    try:
        levels, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} eigendecomposition failed: {exc}") from None
    phases = np.exp(np.multiply.outer(-2j * np.pi * np.asarray(seconds), levels))
    u = (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-2, -1)
    worst = float(np.max(np.abs(u.conj().swapaxes(-2, -1) @ u - np.eye(4)), initial=0.0))
    if not worst <= _HERM_DRIFT_FAIL:
        raise NumericalError(f"{what} unitary is off by {worst:.3e}")
    return u


def _check_trace(name: str, maps: np.ndarray) -> None:
    """Raise NumericalError if a map (16, 16), or any of a stack, changes the trace by > 1e-9."""
    err = float(np.max(np.abs(_TRACE_ROW @ maps - _TRACE_ROW), initial=0.0))
    if not err <= _HERM_DRIFT_FAIL:
        raise NumericalError(f"{name} map changes the trace by {err:.3e}")


def _carried(cycle: np.ndarray, vec: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """States (k, 16) after 0, 1, ..., n applications of the cycle maps (k, 16, 16).

    The one cycle stepper. It passes the carried state through _checked every
    CHUNK cycles, which bounds round-off drift per CHUNK cycles, not per run.
    """
    yield vec
    for count in range(1, n + 1):
        vec = (cycle @ vec[:, :, None])[:, :, 0]
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
