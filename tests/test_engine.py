"""The batched cycle-map engine against the exact 6-level reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import validate_density_matrix
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from nvpolar import cli
from nvpolar import experiments as ex
from nvpolar import lindblad
from nvpolar.errors import NumericalError
from nvpolar.lindblad import CycleEngine, SchedulePropagator, initial_mixed_state
from nvpolar.polarization import polarization_of_state
from nvpolar.presets import get_preset, preset_names

#: Largest |P_engine - P_reference| accepted anywhere.
DP_TOL = 1e-9


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


def test_guard_rejects_nan_state():
    rho = initial_mixed_state()
    rho[0, 0] = np.nan
    with pytest.raises(NumericalError):
        SchedulePropagator._guard(rho)


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
    out_dir = tmp_path / "nan"
    code = cli.main(["sweep-detuning", "--min=0", "--max=1e5", "--step=5e4",
                     "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: numerical:")
    assert not (out_dir / "data.csv").exists()
