"""The batched cycle-map engine against the exact 6-level reference path."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import reference_trajectory, rk4_schedule, validate_density_matrix
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.optimize import brentq

from nvpolar import cli
from nvpolar import experiments as ex
from nvpolar import lindblad
from nvpolar.errors import ConfigError, NumericalError
from nvpolar.lindblad import CycleEngine, SchedulePropagator, initial_mixed_state
from nvpolar.params import RelaxationRates
from nvpolar.polarization import polarization_of_state
from nvpolar.presets import get_preset, preset_names
from nvpolar.schedule import PulseSegment, duration_ns

#: Largest |P_engine - P_reference| accepted anywhere.
DP_TOL = 1e-9

#: Rates with every optional channel on: thermal re-excitation, dephasing of
#: the four driven eigenstates and laser-driven nuclear cross-relaxation.
DEPHASED = RelaxationRates(
    gamma_gl=8e6, n_th=0.1, gamma_d=(2e5, 1e5, 3e5, 1.5e5), gamma_n_gl=1e5
)


def reference_p(preset, delta, n_cycles=None):
    """P by segment-wise propagation of the full 6x6 density matrix."""
    schedule = preset.schedule(delta, n_cycles=n_cycles) + preset.readout_tail()
    prop = SchedulePropagator(preset.system, preset.rates, frame_delta=delta)
    return polarization_of_state(prop.propagate(initial_mixed_state(), schedule)).p


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("a_ani", [None, 0.0])
@pytest.mark.parametrize("n_cycles", [0, 1, 6, 60])
def test_engine_matches_reference(name, a_ani, n_cycles):
    preset = get_preset(name)
    if a_ani is not None:
        preset = preset.with_system(a_ani=a_ani)
    deltas = [-3.2e5, -1e5, 0.0, 1.7e5, 3.2e5, 4.1e5, 5e6]
    got = CycleEngine(preset).polarizations(deltas, n_cycles)
    for delta, p in zip(deltas, got):
        assert abs(p - reference_p(preset, delta, n_cycles)) <= DP_TOL


def _traced_expm(monkeypatch):
    """Patch lindblad.expm to record the shape of every argument; return the list."""
    shapes = []
    expm = lindblad.expm

    def traced(a):
        shapes.append(np.shape(a))
        return expm(a)

    monkeypatch.setattr(lindblad, "expm", traced)
    return shapes


def _level_crossing(h):
    """The detuning below zero where the a_ani = 0 block H(delta) has a double level.

    Without a_ani, H(delta) splits into one driven 2x2 block per nuclear
    state, whose upper levels cross exactly.
    """

    def upper(delta, idx):
        block = (h - delta * lindblad._P_PLUS)[np.ix_(idx, idx)]
        return np.linalg.eigvalsh(block)[1]

    return brentq(lambda d: upper(d, [0, 2]) - upper(d, [1, 3]), -1e6, 0.0, xtol=1e-12)


def _recorded_unitaries(monkeypatch):
    """Patch lindblad._unitary_propagators to record (what, result) of
    every call; return the list."""
    calls = []
    unitaries = lindblad._unitary_propagators

    def recorded(h, seconds, what):
        calls.append((what, unitaries(h, seconds, what)))
        return calls[-1][1]

    monkeypatch.setattr(lindblad, "_unitary_propagators", recorded)
    return calls


@pytest.mark.parametrize("name", preset_names())
def test_unitary_pulse_is_exponentiated_as_4x4_blocks(name, monkeypatch):
    """The bundled presets' pulses have no channels: maps() runs no expm, and
    its 4x4 unitaries from eigh match scipy's expm, also at a_ani = 0 and at
    a detuning where H(delta) has a double level."""
    for a_ani in (None, 0.0):
        preset = get_preset(name)
        if a_ani is not None:
            preset = preset.with_system(a_ani=a_ani)
        engine = CycleEngine(preset)
        h_mw = engine._h[0]  # the one cell's pulse Hamiltonian at delta = 0
        deltas = [-3.2e5, 0.0, 1.7e5, 3.2e5]
        if a_ani == 0.0:
            deltas.append(_level_crossing(h_mw))
            levels = np.linalg.eigvalsh(h_mw - deltas[-1] * lindblad._P_PLUS)
            assert np.min(np.diff(levels)) <= 1e-9
        with monkeypatch.context() as patch:
            shapes = _traced_expm(patch)
            calls = _recorded_unitaries(patch)
            engine.maps(deltas)
            assert shapes == []
        [(what, got)] = calls
        assert what == "pulse" and got.shape == (1, len(deltas), 4, 4)
        for u, delta in zip(got[0], deltas):
            h = h_mw - delta * lindblad._P_PLUS
            assert np.max(np.abs(u - scipy_expm(-2j * np.pi * engine._mw_s * h))) <= 1e-13


def test_a_401_point_grid_takes_one_expm_slice_and_eight_eighs(table_a1, monkeypatch):
    """The set-up makes the engine's one expm call, of the chop-on slice,
    and one eigh for its laser-off segments; each CHUNK batch makes one eigh."""
    shapes = _traced_expm(monkeypatch)
    eighs = []
    eigh = np.linalg.eigh

    def traced(a):
        eighs.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", traced)
    deltas = ex.grid(-1e6, 1e6, 5e3)
    assert len(deltas) == 401
    CycleEngine(table_a1).polarizations(deltas)
    assert shapes == [(1, 16, 16)]
    batches = [(lindblad.CHUNK, 4, 4)] * 6 + [(401 - 6 * lindblad.CHUNK, 4, 4)]
    assert eighs == [(1, 4, 4)] + batches


@pytest.mark.parametrize("name", preset_names())
def test_phases_are_the_bits_of_exponentiating_every_entry(name):
    """_phases exponentiates K's three values and gathers the 16 columns."""
    engine = CycleEngine(get_preset(name))
    deltas = np.linspace(-1e6, 5e6, 40_001)
    for seconds in (engine._shift_s, engine._tail_s):
        want = np.exp(np.multiply.outer(deltas * seconds, lindblad._K_DIAG))
        assert engine._phases(deltas, seconds).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", preset_names())
def test_laser_off_maps_are_exponentiated_as_4x4_blocks(name, monkeypatch):
    """With no laser-off channels the set-up's chop-off and rest maps are
    V kron conj(V), with V of both from one eigh; they match scipy's expm
    of the laser-off block generator, also at a_ani = 0."""
    calls = _recorded_unitaries(monkeypatch)
    for a_ani in (None, 0.0):
        preset = get_preset(name)
        if a_ani is not None:
            preset = preset.with_system(a_ani=a_ani)
        calls.clear()
        CycleEngine(preset)
        [(what, v)] = calls
        assert what == "laser-off" and v.shape == (2, 1, 4, 4)
        generator = _reference_block(preset, PulseSegment(10))
        for u, ns in zip(v[:, 0], (preset.chop_off_ns, preset.rest_ns)):
            want = scipy_expm(generator * (ns * 1e-9))
            assert np.max(np.abs(lindblad._kron(u, u.conj()) - want)) <= 1e-13


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
def test_a_dephased_laser_off_gate_takes_three_expm_slices_per_cell(name, monkeypatch):
    """Dephasing puts channels on the laser-off gate: the set-up makes no
    eigh and exponentiates chop on, chop off and rest of every cell, in
    calls of at most CHUNK slices."""
    base = get_preset(name)
    preset = dataclasses.replace(
        base, rates=dataclasses.replace(base.rates, gamma_d=DEPHASED.gamma_d)
    )
    cells = _cells(preset, "b_z", 2)
    with monkeypatch.context() as patch:
        shapes = _traced_expm(patch)
        patch.setattr(np.linalg, "eigh", _eigh_raising)
        engine = CycleEngine(preset, [q.system for q in cells])
    assert sum(shape[0] for shape in shapes) == 3 * len(cells)
    assert max(shape[0] for shape in shapes) <= lindblad.CHUNK
    deltas = [-3.2e5, 0.0, 3.2e5]
    for n_cycles in (0, 6):
        got = engine.polarizations(deltas * 2, n_cycles, [0, 0, 0, 1, 1, 1])
        want = [reference_p(q, delta, n_cycles) for q in cells for delta in deltas]
        assert np.max(np.abs(got - want)) <= DP_TOL


def _eigh_raising(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _break_the_maps(monkeypatch, fault):
    """Eigenvectors 1e-6 too long (so max |U+ U - I| is about 4e-6), an eigh
    that raises, or set-up maps that lose 1e-6 of the trace."""
    eigh, expm = np.linalg.eigh, lindblad.expm
    if fault == "skewed-eigh":
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: (eigh(a)[0], eigh(a)[1] * (1.0 + 1e-6))
        )
    elif fault == "raising-eigh":
        monkeypatch.setattr(np.linalg, "eigh", _eigh_raising)
    elif fault == "leaky-set-up":
        monkeypatch.setattr(lindblad, "expm", lambda a: expm(a) * (1.0 - 1e-6))
    elif fault == "nan-hamiltonian":  # inside the driven block
        h = lindblad.rotating_hamiltonian
        nan = np.diag([np.nan] + [0.0] * (lindblad.DIM - 1))
        monkeypatch.setattr(lindblad, "rotating_hamiltonian", lambda *args: h(*args) + nan)


@pytest.mark.parametrize(
    "fault,match",
    [
        ("skewed-eigh", "pulse unitary is off by"),
        ("raising-eigh", "pulse eigendecomposition failed"),
        ("nan-delta", "pulse Hamiltonian is not finite"),
    ],
)
def test_a_bad_pulse_unitary_is_a_numerical_error(table_a1, monkeypatch, fault, match):
    engine = CycleEngine(table_a1)
    _break_the_maps(monkeypatch, fault)
    deltas = [np.nan] if fault == "nan-delta" else [3.2e5]
    with pytest.raises(NumericalError, match=match):
        engine.polarizations(deltas)


def _leaking(monkeypatch, name, where):
    """Scale, by 1 - 1e-6, the slice at where of what lindblad.<name> returns."""
    function = getattr(lindblad, name)

    def leaking(*args):
        out = function(*args)
        out[where] *= 1.0 - 1e-6
        return out

    monkeypatch.setattr(lindblad, name, leaking)


@pytest.mark.parametrize(
    "fault,match",
    [
        ("skewed-eigh", "laser-off unitary is off by"),
        ("raising-eigh", "laser-off eigendecomposition failed"),
        ("nan-hamiltonian", "the laser-off Hamiltonian is not finite"),
    ],
)
def test_a_bad_set_up_unitary_is_a_numerical_error(
    table_a1, tmp_path, capsys, monkeypatch, fault, match
):
    """The set-up's laser-off unitaries take the pulse's guards: a fresh
    engine raises with the segment's name, and the CLI exits 3 with one line."""
    _break_the_maps(monkeypatch, fault)
    with pytest.raises(NumericalError, match=match):
        CycleEngine(table_a1)
    out_dir = tmp_path / "sweep"
    argv = ["sweep-detuning", "--min=0", "--max=1e5", "--step=5e4", "--out", str(out_dir)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: numerical: {match}")
    assert "\n" not in err.strip()
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize("name", ["rest", "tail"])
def test_a_set_up_map_that_changes_the_trace_is_a_numerical_error(table_a1, monkeypatch, name):
    """The set-up's laser-off eigh gives V for the chop-off and then the
    rest, and its expm the chop-on map: scaling the rest's V breaks R and T,
    scaling the chop-on map breaks T alone."""
    if name == "rest":
        _leaking(monkeypatch, "_unitary_propagators", -1)
    else:
        _leaking(monkeypatch, "expm", 0)
    with pytest.raises(NumericalError, match=f"{name} map changes the trace"):
        CycleEngine(table_a1)


@pytest.mark.parametrize("fault", ["skewed-eigh", "raising-eigh", "leaky-set-up"])
def test_a_bad_engine_map_makes_sweep_detuning_exit_3(tmp_path, capsys, monkeypatch, fault):
    _break_the_maps(monkeypatch, fault)
    out_dir = tmp_path / "sweep"
    argv = ["sweep-detuning", "--min=0", "--max=1e5", "--step=5e4", "--out", str(out_dir)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: numerical:")
    assert "\n" not in err.strip()
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize("fault", ["skewed-eigh", "raising-eigh", "leaky-set-up"])
def test_a_bad_engine_map_makes_sweep_field_on_two_workers_exit_3(
    tmp_path, capsys, monkeypatch, fault
):
    """Seven batches; the first error is the one line printed, and no
    thread is left running."""
    threads = threading.active_count()
    _break_the_maps(monkeypatch, fault)
    out_dir = tmp_path / "sweep"
    argv = ["sweep-field", "--min=500", "--max=540", "--step=20", "--inner-step=9000",
            "--workers", "2", "--out", str(out_dir)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: numerical:")
    assert "\n" not in err.strip()
    assert not (out_dir / "data.csv").exists()
    assert threading.active_count() == threads


# -- engines that hold a stack of cells ---------------------------------------------


def _cells(preset, kind, count):
    """count cells of preset along b_z or a_ani."""
    start, step = {"b_z": (450.0, 17.0), "a_ani": (0.0, 2e4)}[kind]
    return [preset.with_system(**{kind: start + k * step}) for k in range(count)]


@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
@pytest.mark.parametrize("kind", ["b_z", "a_ani"])
def test_a_stacked_engine_equals_per_cell_engines_bit_for_bit(table_a1, monkeypatch, kind, rates):
    """More cells than one set-up expm takes (one slice per cell, three
    when the laser-off gate is dephased), and windows of unequal length,
    some longer than CHUNK, so batches cross the cells' edges."""
    preset = table_a1 if rates is None else dataclasses.replace(table_a1, rates=rates)
    cells = _cells(preset, kind, lindblad.CHUNK + 5)
    grids = [
        np.linspace(-6e5, 6e5, lindblad.CHUNK + 11 if k % 6 == 0 else 3 + k)
        for k in range(len(cells))
    ]
    with monkeypatch.context() as patch:
        shapes = _traced_expm(patch)
        engine = CycleEngine(preset, [q.system for q in cells])
    slices = 1 if rates is None else 3  # chop on; or chop on, chop off, rest
    assert sum(shape[0] for shape in shapes) == slices * len(cells)
    assert len(shapes) > 1 and max(shape[0] for shape in shapes) <= lindblad.CHUNK
    index = np.repeat(np.arange(len(cells)), [len(g) for g in grids])
    deltas = np.concatenate(grids)
    assert len(deltas) % lindblad.CHUNK != 0
    for n_cycles in (0, 6):
        want = [CycleEngine(q).states(g, n_cycles) for q, g in zip(cells, grids)]
        got = engine.states(deltas, n_cycles, index)
        assert got.tobytes() == np.concatenate(want).tobytes()
        p = engine.polarizations(deltas, n_cycles, index)
        assert p.tobytes() == polarization_of_state(got).p.tobytes()


def test_a_fault_in_one_cell_of_a_stack_is_a_numerical_error(table_a1, monkeypatch):
    """A set-up map of the last cell that loses 1e-6 of the trace, and a
    batch whose last pair (a pair of the last cell) gets a skewed eigh."""
    systems = [q.system for q in _cells(table_a1, "b_z", 3)]
    with monkeypatch.context() as patch:
        _leaking(patch, "_unitary_propagators", (-1, -1))  # the last cell's rest
        with pytest.raises(NumericalError, match="rest map changes the trace"):
            CycleEngine(table_a1, systems)
    engine = CycleEngine(table_a1, systems)
    eigh = np.linalg.eigh

    def skewed(a):
        levels, vecs = eigh(a)
        vecs[-1] *= 1.0 + 1e-6
        return levels, vecs

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(NumericalError, match="pulse unitary is off by"):
        engine.polarizations([3.2e5, 3.2e5, 3.2e5], None, [0, 1, 2])


def test_engine_refuses_a_hamiltonian_that_leaves_the_block(table_a1, monkeypatch):
    rotating_hamiltonian = lindblad.rotating_hamiltonian

    def leaky(*args):
        h = rotating_hamiltonian(*args).copy()
        h[4, 1] = h[1, 4] = 1.0
        return h

    monkeypatch.setattr(lindblad, "rotating_hamiltonian", leaky)
    with pytest.raises(NumericalError, match="couples the driven block"):
        CycleEngine(table_a1)


def test_engine_refuses_a_channel_that_leaves_the_block(table_a1, monkeypatch):
    """The generators are built from the 4x4 blocks, so such a channel would be lost."""
    build_channels = lindblad.build_channels

    def leaky(rates, p, *, laser_on):
        into_minus = np.zeros((6, 6), dtype=complex)
        into_minus[4, 0] = 1e3  # |0,up> -> |-1,up>
        return [*build_channels(rates, p, laser_on=laser_on), into_minus]

    monkeypatch.setattr(lindblad, "build_channels", leaky)
    with pytest.raises(NumericalError, match="collapse operator acts outside"):
        CycleEngine(table_a1)


def _reference_block(preset, seg):
    """SchedulePropagator's 6-level generator of seg, sliced to the driven block."""
    gen = SchedulePropagator(preset.system, preset.rates).segment_generator(seg)
    driven = lindblad.DRIVEN_INDICES
    block = [i * lindblad.DIM + j for i in driven for j in driven]
    return gen[np.ix_(block, block)]


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
@pytest.mark.parametrize("laser_on", [True, False])
def test_block_generators_are_the_reference_generators_sliced(name, rates, laser_on):
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    got = CycleEngine(preset)._generator(False, laser_on, 0)  # trajectory's
    ref = _reference_block(preset, PulseSegment(10, laser_on=laser_on))
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
def test_dephased_pulse_generator_is_the_reference_generator_sliced(name):
    preset = dataclasses.replace(get_preset(name), rates=DEPHASED)
    pulse = PulseSegment(preset.t_mw_ns, mw_on=True, mw_rabi=preset.omega)
    got = CycleEngine(preset)._mw
    assert got.tobytes() == _reference_block(preset, pulse).tobytes()


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("n_cycles", [0, 1, 6])
def test_dephased_pulse_matches_reference(name, n_cycles, monkeypatch):
    """With dephasing the pulse is not unitary: the 16x16 branch, checked."""
    preset = dataclasses.replace(get_preset(name), rates=DEPHASED)
    deltas = [-3.2e5, 0.0, 1.7e5, 3.2e5, 4.1e5]
    engine = CycleEngine(preset)
    shapes = _traced_expm(monkeypatch)
    got = engine.polarizations(deltas, n_cycles)
    assert shapes == [(len(deltas), 16, 16)]
    for delta, p in zip(deltas, got):
        assert abs(p - reference_p(preset, delta, n_cycles)) <= DP_TOL


@pytest.mark.parametrize("name", preset_names())
def test_engine_matches_the_scipy_expm_path(name, monkeypatch):
    """lindblad.expm against scipy's, through the whole engine."""
    preset = get_preset(name)
    deltas = np.linspace(-1e6, 5e6, 61)
    got = {n: CycleEngine(preset).polarizations(deltas, n) for n in (0, 1, 6, 60)}
    monkeypatch.setattr(lindblad, "expm", scipy_expm)
    for n, p in got.items():
        assert np.max(np.abs(p - CycleEngine(preset).polarizations(deltas, n))) <= DP_TOL


def test_engine_default_cycle_count_is_the_presets(fig4_preset):
    got = CycleEngine(fig4_preset).polarizations([1.5e5])[0]
    assert abs(got - reference_p(fig4_preset, 1.5e5)) <= DP_TOL


def test_sweep_repetitions_matches_reference_per_cycle_count(table_a1):
    result = ex.sweep_repetitions(table_a1, 12, delta=2.9e5)
    for n, p in enumerate(result.p):
        assert abs(p - reference_p(table_a1, 2.9e5, n)) <= DP_TOL


def _drawn_preset(name, system, rates, durations, omega):
    """A bundled preset with the drawn system, rates, durations and drive."""
    return dataclasses.replace(
        get_preset(name).with_system(**system),
        rates=RelaxationRates(**rates),
        omega=omega,
        **durations,
    )


def _assert_agrees_with_reference(preset, delta, n_cycles, rk4=False):
    """P and every entry of the read-out state within DP_TOL of the 6x6
    reference (or of RK4); trajectory's last row is states()' bit for bit."""
    engine = CycleEngine(preset)
    rho = engine.states([delta], n_cycles)[0]
    schedule = preset.schedule(delta, n_cycles=n_cycles) + preset.readout_tail()
    prop = SchedulePropagator(preset.system, preset.rates, frame_delta=delta)
    run = rk4_schedule if rk4 else SchedulePropagator.propagate
    ref = run(prop, initial_mixed_state(), schedule)
    assert np.max(np.abs(ref[4:, :])) <= DP_TOL and np.max(np.abs(ref[:, 4:])) <= DP_TOL
    assert np.max(np.abs(rho - ref[:4, :4])) <= DP_TOL
    got = engine.polarizations([delta], n_cycles)[0]
    assert abs(got - polarization_of_state(ref).p) <= DP_TOL
    assert engine.trajectory(delta, 10**9, n_cycles)[1][-1].tobytes() == rho.tobytes()


#: Either no dephasing of an eigenstate or a rate up to 3e5 /s.
_GAMMA_D = st.one_of(st.just(0.0), st.floats(1e3, 3e5))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["table-a1-fit", "table-a1-fig4"]),
    delta=st.floats(-1.5e6, 1.5e6),
    system=st.fixed_dictionaries(
        {
            "a_zz": st.floats(-9e5, 9e5),
            "a_ani": st.floats(0.0, 4e5),
            "phi": st.floats(0.0, 2.0 * np.pi),
            "b_z": st.floats(50.0, 1200.0),
        }
    ),
    rates=st.fixed_dictionaries(
        {
            "gamma_gl": st.floats(1e6, 2e7),
            "n_th": st.floats(0.0, 0.3),
            "gamma_d": st.tuples(_GAMMA_D, _GAMMA_D, _GAMMA_D, _GAMMA_D),
            "gamma_n_gl": st.floats(0.0, 2e5),
        }
    ),
    durations=st.fixed_dictionaries(
        {
            "chop_reps": st.integers(0, 19),
            "chop_on_ns": st.integers(1, 60),
            "chop_off_ns": st.integers(0, 80),
            "rest_ns": st.integers(0, 200),
            "t_mw_ns": st.integers(1, 25000),
        }
    ),
    omega=st.floats(0.0, 1e6),
    n_cycles=st.integers(0, 11),
)
def test_engine_agrees_with_reference_property(
    name, delta, system, rates, durations, omega, n_cycles
):
    """Both presets with every channel, duration and coupling drawn."""
    preset = _drawn_preset(name, system, rates, durations, omega)
    _assert_agrees_with_reference(preset, delta, n_cycles)


@pytest.mark.parametrize(
    "name,system,rates,durations,omega,delta,n_cycles",
    [
        (
            "table-a1-fit",
            {"a_zz": -6.8e5, "a_ani": 2.2e5, "phi": 0.7, "b_z": 640.0},
            {"gamma_gl": 8e6, "n_th": 0.1, "gamma_d": (2e5, 0.0, 3e5, 1e5), "gamma_n_gl": 1e5},
            {"chop_reps": 3, "chop_on_ns": 30, "chop_off_ns": 60, "rest_ns": 100, "t_mw_ns": 1700},
            2.94e5,
            3.2e5,
            1,
        ),
        (
            "table-a1-fig4",
            {"a_zz": 3.1e5, "a_ani": 9e4, "phi": 2.5, "b_z": 180.0},
            {"gamma_gl": 1.2e7, "n_th": 0.0, "gamma_d": (0.0,) * 4, "gamma_n_gl": 0.0},
            {"chop_reps": 2, "chop_on_ns": 45, "chop_off_ns": 0, "rest_ns": 0, "t_mw_ns": 2200},
            2.5e5,
            -1.1e5,
            1,
        ),
    ],
    ids=["fit-dephased", "fig4-unitary"],
)
def test_engine_agrees_with_rk4(name, system, rates, durations, omega, delta, n_cycles):
    """Drawn-space configs against fixed-step RK4, which shares no expm."""
    preset = _drawn_preset(name, system, rates, durations, omega)
    _assert_agrees_with_reference(preset, delta, n_cycles, rk4=True)


def test_results_do_not_depend_on_the_batch(fig4_preset):
    """A grid cut into any batches gives the same bytes as one call."""
    engine = CycleEngine(fig4_preset)
    deltas = list(np.linspace(-6e5, 6e5, 2 * lindblad.CHUNK + 11))
    whole = engine.polarizations(deltas)
    for size in (1, 7, lindblad.CHUNK - 1):
        parts = [
            engine.polarizations(deltas[i : i + size])
            for i in range(0, len(deltas), size)
        ]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    buildup = engine.buildup(deltas[5], 3)
    for n in range(4):
        assert buildup[n] == engine.polarizations([deltas[5]], n)[0]


@pytest.mark.parametrize("delta", [2.9e5, -1.23456e5])
def test_buildup_is_bit_equal_to_per_count_calls(fig4_preset, delta):
    """Across CHUNK boundaries, each read-out block matches one call per n."""
    n_max = 2 * lindblad.CHUNK + 2
    engine = CycleEngine(fig4_preset)
    buildup = engine.buildup(delta, n_max)
    assert len(buildup) == n_max + 1
    for n in range(n_max + 1):
        assert buildup[n] == engine.polarizations([delta], n)[0]


def test_states_match_the_reference_driven_block(table_a1):
    """The sequence never leaves the driven block, so its 4x4 state is all of it."""
    rho = CycleEngine(table_a1).states([3.2e5])[0]
    schedule = table_a1.schedule(3.2e5) + table_a1.readout_tail()
    prop = SchedulePropagator(table_a1.system, table_a1.rates, frame_delta=3.2e5)
    ref = prop.propagate(initial_mixed_state(), schedule)
    validate_density_matrix(ref)
    assert np.max(np.abs(ref[4:, :])) < 1e-9 and np.max(np.abs(ref[:, 4:])) < 1e-9
    assert np.max(np.abs(rho - ref[:4, :4])) < 1e-9


def _assert_matches_reference(got, ref):
    """The engine's 4x4 states against the reference's 6x6 states, whose
    m_s = -1 rows and columns stay within DP_TOL of zero."""
    times, states = got
    assert times == [t for t, _ in ref]
    assert states.shape == (len(times), 4, 4)
    for rho, (_, want) in zip(states, ref):
        assert np.max(np.abs(want[4:, :])) <= DP_TOL and np.max(np.abs(want[:, 4:])) <= DP_TOL
        assert np.max(np.abs(rho - want[:4, :4])) <= DP_TOL


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
@pytest.mark.parametrize("sample_ns", [10, 7, 10**6])
@pytest.mark.parametrize("n_cycles", [0, 2])
def test_trajectory_matches_reference(name, rates, sample_ns, n_cycles):
    """The trajectory command's engine path against segment-wise 6x6 propagation."""
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    delta = 3.2e5
    got = CycleEngine(preset).trajectory(delta, sample_ns, n_cycles)
    schedule = preset.schedule(delta, n_cycles=n_cycles) + preset.readout_tail()
    prop = SchedulePropagator(preset.system, preset.rates, frame_delta=delta)
    ref = reference_trajectory(prop, initial_mixed_state(), schedule, sample_ns)
    _assert_matches_reference(got, ref)


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
def test_trajectory_of_whole_cycles_between_samples_matches_reference(name, rates):
    """With sample_ns at or above a cycle, cycles that hold no sample time
    take maps()' cycle map and the others the segment loop."""
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    delta, n_cycles = 3.2e5, 9
    cycle_ns = duration_ns(preset.schedule(delta, n_cycles=1))
    schedule = preset.schedule(delta, n_cycles=n_cycles) + preset.readout_tail()
    prop = SchedulePropagator(preset.system, preset.rates, frame_delta=delta)
    engine = CycleEngine(preset)
    for sample_ns in (cycle_ns, cycle_ns + 7, 3 * cycle_ns - 1):
        got = engine.trajectory(delta, sample_ns, n_cycles)
        ref = reference_trajectory(prop, initial_mixed_state(), schedule, sample_ns)
        _assert_matches_reference(got, ref)


@pytest.mark.parametrize(
    "name,rates,delta",
    [
        (name, rates, delta)
        for name in ("table-a1-fit", "table-a1-fig4")
        for rates, deltas in ((None, (3.2e5, 1e9, 1e20)), (DEPHASED, (3.2e5, 1e9)))
        for delta in deltas
    ],
    ids=lambda value: "dephased" if value is DEPHASED else str(value),
)
def test_the_trajectory_ends_where_the_batches_do(name, rates, delta):
    """The trajectory carries its read-out states with maps()' cycle map and
    the engine's one stepper, so its last state is states()' read-out state
    bit for bit, also far off resonance."""
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    engine = CycleEngine(preset)
    times, states = engine.trajectory(delta, 1000, 3)
    assert times[-1] == 3 * duration_ns(preset.schedule(delta, n_cycles=1)) + duration_ns(
        preset.readout_tail()
    )
    assert states[-1].tobytes() == engine.states([delta], 3)[0].tobytes()


def _trajectory_pulse(engine, delta, monkeypatch):
    """The whole-pulse map that trajectory(delta) takes from _segment_maps."""
    pulses = []
    segment_maps = engine._segment_maps

    def recorded(mw_on, *args):
        maps = segment_maps(mw_on, *args)
        if mw_on:
            pulses.append(maps)
        return maps

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_segment_maps", recorded)
        engine.trajectory(delta, 10**9, 1)  # no sample inside the cycle
    [pulse] = pulses
    return pulse.reshape(16, 16)


def _batch_pulses(engine, deltas, cells=0):
    """The pulse maps that maps() leaves in its workspace, (n, 16, 16)."""
    work = np.empty((2, len(deltas), 16, 16), complex)
    engine.maps(deltas, cells, work)
    return work[0]


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
def test_the_trajectory_and_the_batches_form_one_pulse(name, rates, monkeypatch):
    """There is one pulse formation: the trajectory's whole-pulse map is
    maps()' pulse bit for bit, with dephasing too."""
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    engine = CycleEngine(preset)
    deltas = [-3.2e5, 0.0, 1.7e5, 3.2e5, 1e9]
    for delta, pulse in zip(deltas, _batch_pulses(engine, deltas)):
        assert _trajectory_pulse(engine, delta, monkeypatch).tobytes() == pulse.tobytes()


def test_a_dephased_stack_forms_the_pulses_of_per_cell_engines(table_a1, monkeypatch):
    """A dephased stack's pulse maps, in a batch that spans its cells, are
    those of each cell's own engine, in its batches and its trajectory."""
    preset = dataclasses.replace(table_a1, rates=DEPHASED)
    cells = _cells(preset, "a_ani", 3)
    deltas = [-3.2e5, 0.0, 3.2e5]
    stack = CycleEngine(preset, [q.system for q in cells])
    index = np.repeat(np.arange(len(cells)), len(deltas))
    got = _batch_pulses(stack, deltas * len(cells), index).reshape(len(cells), len(deltas), 16, 16)
    for q, pulses in zip(cells, got):
        engine = CycleEngine(q)
        assert _batch_pulses(engine, deltas).tobytes() == pulses.tobytes()
        for delta, pulse in zip(deltas, pulses):
            assert _trajectory_pulse(engine, delta, monkeypatch).tobytes() == pulse.tobytes()


def test_the_dephased_trajectory_checks_the_pulse_trace(monkeypatch):
    """A dephased pulse map that loses 1e-6 of the trace, after the set-up:
    the trajectory's pulse steps fail the batches' trace check."""
    preset = dataclasses.replace(get_preset("table-a1-fit"), rates=DEPHASED)
    engine = CycleEngine(preset)
    segment_maps = engine._segment_maps

    def leaky_pulse(mw_on, *args):
        with monkeypatch.context() as patch:
            if mw_on:
                _leaking(patch, "expm", ...)
            return segment_maps(mw_on, *args)

    monkeypatch.setattr(engine, "_segment_maps", leaky_pulse)
    for run in (lambda: engine.trajectory(3.2e5, 100, 2), lambda: engine.states([3.2e5], 2)):
        with pytest.raises(NumericalError, match="pulse map changes the trace by 1.000e-06"):
            run()


def test_guard_rejects_nan_state():
    rho = initial_mixed_state()
    rho[0, 0] = np.nan
    with pytest.raises(NumericalError, match="drift nan"):
        lindblad._checked(rho.reshape(1, -1))


def test_guard_repairs_small_drift_and_rejects_large():
    """The one state guard keeps the reference path's policy, state by state."""
    exact = initial_mixed_state()
    drifted = exact.copy()
    drifted[0, 0] += 5e-11
    drifted[0, 1] = 2e-11
    vecs = np.stack([exact.reshape(-1), drifted.reshape(-1)])
    kept, repaired = lindblad._checked(vecs)
    assert kept.tobytes() == exact.tobytes()
    assert np.max(np.abs(repaired - repaired.conj().T)) == 0.0
    assert abs(np.trace(repaired) - 1.0) <= 1e-15
    assert np.max(np.abs(vecs[1] - drifted.reshape(-1))) == 0.0
    drifted[0, 0] = 0.5 + 2e-9
    with pytest.raises(NumericalError, match="drift 2.000e-09 exceeds 1e-9"):
        lindblad._checked(drifted.reshape(1, -1))


def test_carried_state_is_guarded_every_chunk(table_a1, monkeypatch):
    """A cycle map that loses 1e-11 of trace per cycle, past maps()' own
    guards: the carried state's guard keeps 3 CHUNK cycles inside the 1e-9
    bound."""
    engine = CycleEngine(table_a1)
    maps = engine.maps

    def leaky(*batch):
        cycle, start = maps(*batch)
        return cycle * (1.0 - 1e-11), start

    monkeypatch.setattr(engine, "maps", leaky)
    n_max = 3 * lindblad.CHUNK
    assert np.isfinite(engine.polarizations([3e5], n_max)).all()
    buildup = engine.buildup(3e5, n_max)
    for n in range(n_max + 1):
        assert buildup[n] == engine.polarizations([3e5], n)[0]


def test_trajectory_guards_the_carried_state_every_chunk(table_a1, monkeypatch):
    """A cycle map that loses 1e-11 of trace per cycle, past maps()' own
    guards, stays inside the 1e-9 bound for CHUNK cycles but not for
    3 CHUNK; the guard every CHUNK cycles keeps a 3 CHUNK trajectory inside it."""
    engine = CycleEngine(table_a1)
    maps = engine.maps

    def leaky(*batch):
        cycle, start = maps(*batch)
        return cycle * (1.0 - 1e-11), start

    monkeypatch.setattr(engine, "maps", leaky)
    n_cycles = 3 * lindblad.CHUNK
    times, states = engine.trajectory(3.2e5, 10**9, n_cycles)
    assert len(times) == len(states) == 2  # t = 0 and the end
    for rho in states:
        assert abs(np.trace(rho) - 1.0) <= 1e-9
    monkeypatch.setattr(lindblad, "CHUNK", n_cycles + 2)
    with pytest.raises(NumericalError, match="propagation drift"):
        engine.trajectory(3.2e5, 10**9, n_cycles)


@pytest.mark.parametrize("sample_ns", [10, 7, 10**6])
def test_trajectory_row_bound_counts_the_rows(table_a1, monkeypatch, sample_ns):
    """The row count checked before propagating is the trajectory's length."""
    engine = CycleEngine(table_a1)
    rows = len(engine.trajectory(3.2e5, sample_ns, 2)[0])
    monkeypatch.setattr(lindblad, "MAX_GRID_POINTS", rows)
    assert len(engine.trajectory(3.2e5, sample_ns, 2)[1]) == rows
    monkeypatch.setattr(lindblad, "MAX_GRID_POINTS", rows - 1)
    with pytest.raises(ConfigError, match=f"trajectory of {rows} rows"):
        engine.trajectory(3.2e5, sample_ns, 2)


def _nan_expm(a):
    return np.full(np.shape(a), np.nan, dtype=complex)


def test_engine_rejects_nan_maps(table_a1, monkeypatch):
    monkeypatch.setattr(lindblad, "expm", _nan_expm)
    with pytest.raises(NumericalError):
        CycleEngine(table_a1).polarizations([3.2e5])


def test_buildup_rejects_nan_maps(table_a1, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "expm", _nan_expm)
        with pytest.raises(NumericalError):
            CycleEngine(table_a1).buildup(3.2e5, 3)
    # A NaN cycle map that got past maps()' own guards: the drift check of
    # the read-out block still refuses it.
    engine = CycleEngine(table_a1)
    maps = engine.maps

    def nan_cycle(*batch):
        cycle, start = maps(*batch)
        return np.full_like(cycle, np.nan), start

    monkeypatch.setattr(engine, "maps", nan_cycle)
    with pytest.raises(NumericalError, match="drift nan"):
        engine.buildup(3.2e5, lindblad.CHUNK + 1)


def test_nan_state_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lindblad, "expm", _nan_expm)
    for argv, artifact in (
        (["sweep-detuning", "--min=0", "--max=1e5", "--step=5e4"], "data.csv"),
        (["trajectory", "--n", "1", "--sample-ns", "100"], "trajectory.csv"),
    ):
        out_dir = tmp_path / argv[0]
        code = cli.main([*argv, "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: numerical:")
        assert "\n" not in err.strip()
        assert not (out_dir / artifact).exists()


#: Repeats a 401-point polarizations call and a 9-field sweep_field, each
#: after one warm-up, and prints the minor page faults of each repeat.
_FAULT_PROBE = """
import json, resource
import numpy as np
from nvpolar import experiments as ex
from nvpolar.lindblad import CycleEngine
from nvpolar.presets import get_preset

engine, deltas = CycleEngine(get_preset("table-a1-fit")), ex.grid(-1e6, 1e6, 5e3)
fig4, fields = get_preset("table-a1-fig4"), np.arange(450.0, 851.0, 50.0)
calls = {
    "polarizations": lambda: engine.polarizations(deltas),
    "sweep_field": lambda: ex.sweep_field(fig4, fields, inner_step=25e3),
}
faults = {}
for name, call in calls.items():
    call()
    faults[name] = []
    for _ in range(3):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
print(json.dumps(faults))
"""


def test_repeated_batch_loops_do_not_page_fault():
    """A call's batches are written into one workspace, so repeating a call
    takes almost no fresh pages. The probe runs in a new interpreter with one
    BLAS thread, because the allocator's thresholds depend on what the
    process freed before. Minor faults per repeated call on a 2-vCPU Linux
    host (glibc 2.36), when each batch allocated its own map stacks and now:
    a 401-point table-a1-fit polarizations call 576 and 0-87, a 9-field
    table-a1-fig4 sweep_field (450-850 G, 25 kHz inner step) 735 and 0. In
    a pytest process that ran nothing before, the old code took 960 and
    1,119."""
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the workspace is kept by glibc's malloc thresholds")
    src = str(Path(lindblad.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    for name, faults in json.loads(out).items():
        assert max(faults) < 300, f"{name}: {faults} minor page faults per call"
