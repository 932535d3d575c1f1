"""Sweep drivers, polarization readout, and result serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from helpers import rowwise_sweep_csv, rowwise_sweep_metadata

from nvpolar import experiments as ex
from nvpolar.errors import ConfigError, UndefinedPolarizationError
from nvpolar.eigensystem import eigen_system
from nvpolar.lindblad import SchedulePropagator, initial_mixed_state
from nvpolar.operators import spin_operators
from nvpolar.polarization import polarization_of_state


def test_polarization_of_diagonal_state():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 0.9
    rho[1, 1] = 0.1
    result = polarization_of_state(rho)
    assert abs(result.p - 0.8) < 1e-15
    assert result.pop_up == 0.9


def test_polarization_undefined_without_readout_population():
    rho = np.zeros((6, 6), dtype=complex)
    rho[2, 2] = 1.0
    with pytest.raises(UndefinedPolarizationError):
        polarization_of_state(rho)


def test_grid_is_closed_and_uniform():
    values = ex.grid(-1e6, 1e6, 5e3)
    assert len(values) == 401
    assert values[0] == -1e6
    assert abs(values[-1] - 1e6) < 1e-6
    steps = np.diff(values)
    assert np.allclose(steps, 5e3, atol=1e-6)
    # A non-commensurate endpoint is not overshot.
    short = ex.grid(0.0, 1.0, 0.3)
    assert len(short) == 4 and short[-1] <= 1.0


def test_grid_rejects_bad_ranges():
    for lo, hi, step in [
        (1.0, 0.0, 0.1),
        (0.0, 1.0, 0.0),
        (np.nan, 1.0, 0.1),
        (0.0, np.inf, 0.1),
        (0.0, 1.0, np.nan),
        (-1e308, 1e308, 1.0),
    ]:
        with pytest.raises(ConfigError):
            ex.grid(lo, hi, step)


def test_grid_rejects_oversized_counts_before_allocating(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceeds"):
            ex.grid(0.0, 1.0, 1e-300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    monkeypatch.setattr(ex, "MAX_GRID_POINTS", 5)
    assert len(ex.grid(0.0, 4.0, 1.0)) == 5
    with pytest.raises(ConfigError):
        ex.grid(0.0, 5.0, 1.0)


def test_sequence_polarization_reference_value(table_a1):
    """Regression anchor: the standard sequence at its best detuning."""
    p = ex.sequence_polarization(table_a1, 3.2e5)
    assert abs(p - 0.8902) < 2e-3


def test_sequence_polarization_trivial_cases(table_a1):
    assert ex.sequence_polarization(table_a1, 3.2e5, n_cycles=0) == 0.0
    # Far off resonance nothing happens.
    assert abs(ex.sequence_polarization(table_a1, 5e6)) < 0.01


def test_detuning_lobes_are_antisymmetric(table_a1):
    deltas = (-3.2e5, -1e5, 1e5, 3.2e5)
    values = [ex.sequence_polarization(table_a1, d) for d in deltas]
    assert values[3] > 0.8 and values[0] < -0.8
    for v, w in zip(values, reversed(values)):
        assert abs(v + w) < 0.02


def test_intra_cycle_sawtooth(table_a1):
    """Readout polarization rises on microwave, falls on the laser train."""
    schedule = table_a1.schedule(3.2e5, n_cycles=3)
    prop = SchedulePropagator(table_a1.system, table_a1.rates)
    states = prop.trajectory(initial_mixed_state(), schedule, sample_ns=None)
    per_cycle = len(schedule) // 3

    def p_at(index):
        return polarization_of_state(states[1 + index][1]).p

    ops = spin_operators()
    iz_at_cycle_end = []
    for c in range(3):
        base = c * per_cycle
        after_train = p_at(base + per_cycle - 4)
        after_mw = p_at(base + per_cycle - 2)
        assert after_mw > after_train + 0.1
        if c < 2:
            next_train = p_at(base + 2 * per_cycle - 4)
            assert next_train < after_mw - 0.1
        rho_end = states[1 + base + per_cycle - 1][1]
        iz_at_cycle_end.append(2.0 * float(np.real(np.trace(ops.i_z @ rho_end))))
    assert iz_at_cycle_end == sorted(iz_at_cycle_end)


def test_sweep_detuning_result_and_csv(table_a1, tmp_path):
    deltas = ex.grid(2.8e5, 3.6e5, 4e4)
    result = ex.sweep_detuning(table_a1, deltas)
    assert result.axes[0].name == "delta"
    assert len(result.p) == len(deltas)
    assert np.all(result.p > 0.7)
    path = tmp_path / "data.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "delta_hz,P"
    assert len(lines) == len(deltas) + 1
    x0, p0 = lines[1].split(",")
    assert float(x0) == deltas[0]
    assert float(p0) == result.p[0]


def test_sweep_metadata_hash_tracks_configuration(table_a1, tmp_path):
    deltas = (1e5, 2e5)
    a = ex.sweep_detuning(table_a1, deltas)
    b = ex.sweep_detuning(table_a1, deltas)
    c = ex.sweep_detuning(table_a1.with_system(b_z=521.0), deltas)
    pa, pb, pc = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_metadata(pa)
    b.write_metadata(pb)
    c.write_metadata(pc)
    ha = json.loads(pa.read_text())["config_hash"]
    hb = json.loads(pb.read_text())["config_hash"]
    hc = json.loads(pc.read_text())["config_hash"]
    assert ha == hb
    assert ha != hc
    assert pa.read_bytes() == pb.read_bytes()


def _writer_cases(table_a1):
    """Sweeps of each axis kind, with awkward floats in every column."""
    odd = (-0.0, 1.0 / 3.0, -2.5e-300, 6.02e23, 320000.0)
    yield ex.SweepResult(
        (ex.SweepAxis("delta", "hz", odd),), np.array(odd[::-1]), {"sweep": "detuning"}
    )
    yield ex.sweep_repetitions(table_a1, 3, delta=3.2e5)
    axes = (ex.SweepAxis("a_ani", "hz", odd[:2]), ex.SweepAxis("delta", "hz", odd))
    yield ex.SweepResult(axes, np.arange(10.0).reshape(2, 5) / 7.0, {"sweep": "ani"})


def test_writers_match_the_row_by_row_formatting(table_a1, tmp_path):
    for k, result in enumerate(_writer_cases(table_a1)):
        got, want = tmp_path / f"got{k}", tmp_path / f"want{k}"
        result.write_csv(got)
        rowwise_sweep_csv(result, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().endswith(b"\r\n")
        result.write_metadata(got)
        rowwise_sweep_metadata(result, want)
        assert got.read_bytes() == want.read_bytes()


def test_worker_pool_is_deterministic(table_a1, tmp_path):
    deltas = ex.grid(-4e5, 4e5, 1e5)
    serial = ex.sweep_detuning(table_a1, deltas, workers=1)
    parallel = ex.sweep_detuning(table_a1, deltas, workers=3)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    serial.write_csv(p1)
    parallel.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_repetitions_builds_up(table_a1):
    result = ex.sweep_repetitions(table_a1, 3, delta=3.2e5)
    assert result.axes[0].unit == "count"
    assert len(result.p) == 4
    assert abs(result.p[0]) < 1e-12
    assert np.all(np.diff(result.p) > 0.0)
    assert result.metadata["delta_hz"] == 3.2e5


def test_predicted_resonance_tracks_couplings(table_a1):
    for ani in (0.0, 1e5, 3e5):
        q = table_a1.with_system(a_ani=ani)
        expected = (q.system.nuclear_zeeman + eigen_system(q.system).splitting_plus) / 2.0
        assert abs(ex.predicted_resonance(q) - expected) < 1e-9


def test_sweep_field_reoptimizes_per_field(table_a1):
    result = ex.sweep_field(
        table_a1,
        (500.0, 520.0),
        inner_halfwidth=3e5,
        inner_step=1e5,
    )
    assert result.axes[0].name == "b_z"
    assert np.all(np.abs(result.p) > 0.5)
    assert result.metadata["inner_halfwidth_hz"] == 3e5


def test_two_dimensional_sweep_and_max_trace(table_a1, tmp_path):
    result = ex.sweep_ani_detuning(
        table_a1,
        (1e5, 2.1534e5),
        ex.grid(-4e5, 4e5, 1e5),
    )
    assert result.p.shape == (2, 9)
    path = tmp_path / "grid.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a_ani_hz,delta_hz,P"
    assert len(lines) == 1 + 2 * 9
    reduced = ex.max_trace(result)
    assert reduced.p.shape == (2,)
    for row in range(2):
        best = result.p[row, np.argmax(np.abs(result.p[row]))]
        assert reduced.p[row] == best
    assert reduced.metadata["reduced_axis"] == "delta"


def test_peak_takes_the_first_of_tied_magnitudes():
    assert ex.peak(np.array([0.2, -0.7, 0.7, -0.1])) == 1
    assert ex.peak(np.array([0.5, -0.5])) == 0
    axes = (ex.SweepAxis("a", "hz", (0.0, 1.0)), ex.SweepAxis("d", "hz", (0.0, 1.0, 2.0)))
    tied = ex.SweepResult(axes, np.array([[0.1, -0.6, 0.6], [0.6, 0.2, -0.6]]), {})
    assert ex.max_trace(tied).p.tolist() == [-0.6, 0.6]


def test_sweep_result_shape_validation():
    axis = ex.SweepAxis("x", "hz", (1.0, 2.0))
    with pytest.raises(ConfigError):
        ex.SweepResult((axis,), np.zeros(3), {})
    with pytest.raises(ConfigError):
        ex.SweepAxis("x", "hz", ())


@pytest.mark.parametrize("workers", [0, -3])
def test_sweeps_reject_worker_counts_below_one(table_a1, workers):
    with pytest.raises(ConfigError, match="workers"):
        ex.sweep_detuning(table_a1, (1e5,), workers=workers)
    with pytest.raises(ConfigError, match="workers"):
        ex.sweep_field(table_a1, (520.0,), inner_step=3e5, workers=workers)
