"""The batched cycle-map engine against the exact 6-level reference path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import reference_trajectory, validate_density_matrix
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from nvpolar import cli
from nvpolar import experiments as ex
from nvpolar import lindblad
from nvpolar.errors import ConfigError, NumericalError
from nvpolar.lindblad import CycleEngine, SchedulePropagator, initial_mixed_state
from nvpolar.params import RelaxationRates
from nvpolar.polarization import polarization_of_state
from nvpolar.presets import get_preset, preset_names
from nvpolar.schedule import PulseSegment

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


@pytest.mark.parametrize("name", preset_names())
def test_unitary_pulse_is_exponentiated_as_4x4_blocks(name, monkeypatch):
    """The bundled presets' pulses have no channels: maps() never runs a 16x16 expm."""
    engine = CycleEngine(get_preset(name))
    shapes = _traced_expm(monkeypatch)
    engine.maps([-3.2e5, 0.0, 3.2e5])
    assert shapes == [(3, 4, 4)]


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
    return gen[np.ix_(lindblad._BLOCK, lindblad._BLOCK)]


@pytest.mark.parametrize("name", ["table-a1-fit", "table-a1-fig4"])
@pytest.mark.parametrize("rates", [None, DEPHASED], ids=["default", "dephased"])
@pytest.mark.parametrize("laser_on", [True, False])
def test_block_generators_are_the_reference_generators_sliced(name, rates, laser_on):
    preset = get_preset(name)
    if rates is not None:
        preset = dataclasses.replace(preset, rates=rates)
    got = CycleEngine(preset)._generators[laser_on]
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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(-1.5e6, 1.5e6),
    a_zz=st.floats(-9e5, 9e5),
    a_ani=st.floats(0.0, 4e5),
    n_cycles=st.integers(0, 8),
)
def test_engine_agrees_with_reference_property(delta, a_zz, a_ani, n_cycles):
    preset = get_preset("table-a1-fit").with_system(a_zz=a_zz, a_ani=a_ani)
    got = CycleEngine(preset).polarizations([delta], n_cycles)[0]
    assert abs(got - reference_p(preset, delta, n_cycles)) <= DP_TOL


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
    assert [t for t, _ in got] == [t for t, _ in ref]
    for (_, rho), (_, want) in zip(got, ref):
        assert np.max(np.abs(rho - want)) <= DP_TOL
        assert not np.any(rho[4:, :]) and not np.any(rho[:, 4:])


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
    """A cycle map that loses 1e-11 of trace per cycle passes the maps' check;
    the carried state's guard keeps 3 CHUNK cycles inside the 1e-9 bound."""
    engine = CycleEngine(table_a1)
    maps = engine.maps

    def leaky(deltas):
        cycle, tail = maps(deltas)
        return cycle * (1.0 - 1e-11), tail

    monkeypatch.setattr(engine, "maps", leaky)
    n_max = 3 * lindblad.CHUNK
    assert np.isfinite(engine.polarizations([3e5], n_max)).all()
    buildup = engine.buildup(3e5, n_max)
    for n in range(n_max + 1):
        assert buildup[n] == engine.polarizations([3e5], n)[0]


def test_trajectory_guards_the_carried_state_every_chunk(table_a1, monkeypatch):
    """Propagators that lose 2e-13 of trace per segment (37 segments a cycle)
    stay inside the 1e-9 bound for CHUNK cycles but not for 3 CHUNK; the
    guard every CHUNK cycles keeps a 3 CHUNK trajectory inside it."""
    engine = CycleEngine(table_a1)
    expm = lindblad.expm
    monkeypatch.setattr(lindblad, "expm", lambda a: expm(a) * (1.0 - 2e-13))
    n_cycles = 3 * lindblad.CHUNK
    states = engine.trajectory(3.2e5, 10**9, n_cycles)
    assert len(states) == 2  # t = 0 and the end
    for _, rho in states:
        assert abs(np.trace(rho) - 1.0) <= 1e-9
    monkeypatch.setattr(lindblad, "CHUNK", n_cycles + 2)
    with pytest.raises(NumericalError, match="propagation drift"):
        engine.trajectory(3.2e5, 10**9, n_cycles)


@pytest.mark.parametrize("sample_ns", [10, 7, 10**6])
def test_trajectory_row_bound_counts_the_rows(table_a1, monkeypatch, sample_ns):
    """The row count checked before propagating is the trajectory's length."""
    engine = CycleEngine(table_a1)
    rows = len(engine.trajectory(3.2e5, sample_ns, 2))
    monkeypatch.setattr(lindblad, "MAX_GRID_POINTS", rows)
    assert len(engine.trajectory(3.2e5, sample_ns, 2)) == rows
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
    # A NaN cycle map that got past the maps' trace check: the drift check
    # of the read-out block still refuses it.
    engine = CycleEngine(table_a1)
    maps = engine.maps

    def nan_cycle(deltas):
        cycle, tail = maps(deltas)
        return np.full_like(cycle, np.nan), tail

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
