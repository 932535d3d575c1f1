"""Sweep drivers, polarization readout, and result serialization."""

import json
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from helpers import reference_trajectory, rowwise_sweep_csv, rowwise_sweep_metadata

from nvpolar import experiments as ex
from nvpolar.errors import ConfigError, NumericalError, UndefinedPolarizationError
from nvpolar.eigensystem import eigen_system
from nvpolar.lindblad import CHUNK, CycleEngine, SchedulePropagator, initial_mixed_state
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


def test_polarization_of_a_stack_is_bit_equal_to_per_state_reads(table_a1):
    states = CycleEngine(table_a1).states(np.linspace(-6e5, 6e5, 9), 3)
    stacked = polarization_of_state(states)
    for field in ("p", "pop_up", "pop_down"):
        single = np.array([getattr(polarization_of_state(rho), field) for rho in states])
        assert getattr(stacked, field).tobytes() == single.tobytes()


def test_polarization_of_a_stack_names_the_unreadable_state():
    stack = np.zeros((3, 6, 6), dtype=complex)
    stack[:, 0, 0] = (0.9, 4e-13, 0.3)
    stack[:, 2, 2] = (0.1, 1.0 - 4e-13, 0.7)
    with pytest.raises(UndefinedPolarizationError, match=r"population 4\.000e-13 is below"):
        polarization_of_state(stack)


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


def _no_engine(*args, **kwargs):
    raise AssertionError("an engine was built")


@pytest.mark.parametrize(
    "sweep, small, kwargs",
    [
        (ex.sweep_ani_detuning, ((2e5, 2.2e5), (3e5, 3.1e5, 3.2e5)), {}),
        (ex.sweep_field_ani, ((510.0, 520.0), (2e5, 2.1e5, 2.2e5)), {"inner_step": 3e5}),
    ],
    ids=["ani-detuning", "field-ani"],
)
def test_2d_sweeps_reject_oversized_grids_before_allocating(
    table_a1, monkeypatch, sweep, small, kwargs
):
    """A 2-D sweep is bounded by its output rows, the product of its axes,
    before any cell, window or engine is built."""
    xs, ys = ex.grid(0.0, 2000.0, 1.0), ex.grid(0.0, 1000.0, 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(ex, "CycleEngine", _no_engine)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="sweep of 2003001 rows exceeds 1000000"):
                sweep(table_a1, xs, ys, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 256 * 1024
    monkeypatch.setattr(ex, "MAX_GRID_POINTS", 6)
    assert sweep(table_a1, *small, **kwargs).p.shape == (2, 3)
    with monkeypatch.context() as patch:
        patch.setattr(ex, "CycleEngine", _no_engine)
        with pytest.raises(ConfigError, match="sweep of 8 rows exceeds 6"):
            sweep(table_a1, small[0], (*small[1], 3.3e5), **kwargs)


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
    states = reference_trajectory(prop, initial_mixed_state(), schedule)
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


def test_default_repetitions_share_one_engine(table_a1, builds):
    """With delta None, one engine finds the peak of the standard detuning
    sweep and builds up there, as an explicit delta at that peak does."""
    result = ex.sweep_repetitions(table_a1, 3)
    assert len(builds()) == 1
    base = ex.sweep_detuning(table_a1, ex.grid(*ex.DETUNING_RANGE, ex.DELTA_STEP))
    delta = base.axes[0].values[ex.peak(base.p)]
    assert result.metadata["delta_hz"] == delta
    assert result.p.tolist() == ex.sweep_repetitions(table_a1, 3, delta=delta).p.tolist()


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
        magnitude = np.abs(result.p[row])
        first = np.flatnonzero(magnitude >= magnitude.max() - ex.PEAK_TIE)[0]
        assert reduced.p[row] == result.p[row, first]
    assert reduced.metadata["reduced_axis"] == "delta"


def test_peak_takes_the_first_of_tied_magnitudes():
    assert ex.peak(np.array([0.2, -0.7, 0.7, -0.1])) == 1
    assert ex.peak(np.array([0.5, -0.5])) == 0
    # Mirror lobes that differ in the last bits tie: a later value larger by
    # a few ulp does not win, one larger by more than PEAK_TIE does.
    lobe = 0.8903613071224068
    assert ex.peak(np.array([0.1, -lobe, 0.2, lobe + 4 * np.spacing(lobe)])) == 1
    assert ex.peak(np.array([0.1, -lobe, 0.2, lobe + 2 * ex.PEAK_TIE])) == 3
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


@pytest.mark.parametrize("workers", [1, 3])
def test_an_empty_field_grid_is_a_config_error(table_a1, workers):
    with pytest.raises(ConfigError, match="empty grid"):
        ex.sweep_field(table_a1, (), workers=workers)


# -- the fan-out over threads -----------------------------------------------------

FIELDS = (500.0, 520.0, 540.0, 560.0)


@pytest.fixture
def threads(monkeypatch):
    """Patches threading.Thread to record every thread started."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


def _assert_all_joined(started):
    """No thread that the fan-out started is still running."""
    assert [t for t in started if t.is_alive()] == []


@pytest.fixture
def builds(monkeypatch):
    """Patches ex.CycleEngine to log (thread, b_z of each cell) of each engine."""
    log = []

    def logging_engine(preset, systems=None):
        cells = [preset.system] if systems is None else systems
        log.append((threading.current_thread(), tuple(s.b_z for s in cells)))
        return CycleEngine(preset, systems)

    monkeypatch.setattr(ex, "CycleEngine", logging_engine)

    def read():
        built = list(log)
        log.clear()
        return built

    return read


@pytest.fixture
def no_hang():
    """Fails the test with TimeoutError rather than letting it wait 30 s."""

    def expire(signum, frame):
        raise TimeoutError("the fan-out did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cpus", [2, 8])
def test_pool_size_is_clamped_to_jobs_and_cpus(table_a1, threads, monkeypatch, cpus):
    """The caller plus min(workers, jobs, CPUs) - 1 threads."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    fields = FIELDS[:3]
    pooled = ex.sweep_field(table_a1, fields, inner_step=3e5, workers=10**6)
    assert len(threads) == min(3, cpus) - 1
    serial = ex.sweep_field(table_a1, fields, inner_step=3e5, workers=1)
    ex.sweep_detuning(table_a1, (1e5, 2e5), workers=10**6)
    assert len(threads) == min(3, cpus) - 1  # one worker or one job starts none
    assert pooled.p.tolist() == serial.p.tolist()
    _assert_all_joined(threads)


def test_one_engine_is_built_in_the_calling_thread(table_a1, builds, threads, monkeypatch):
    """At every worker count the caller builds one engine that holds every
    job as a cell. Windows longer than CHUNK make batches that cross the
    cells' edges."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert len(ex.grid(-6e5, 6e5, 9e3)) > CHUNK
    results = {}
    for workers in (1, 2, 3):
        threads.clear()
        results[workers] = ex.sweep_field(table_a1, FIELDS, inner_step=9e3, workers=workers)
        assert builds() == [(threading.main_thread(), FIELDS)]
        assert len(threads) == workers - 1
        assert results[workers].p.tolist() == results[1].p.tolist()
    _assert_all_joined(threads)


def test_an_engine_that_cannot_be_built_starts_no_thread(table_a1, threads, monkeypatch):
    def broken(preset, systems=None):
        raise NumericalError("the Hamiltonian couples the driven block to m_s = -1")

    monkeypatch.setattr(ex, "CycleEngine", broken)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(NumericalError, match="couples the driven block"):
        ex.sweep_field(table_a1, FIELDS, inner_step=3e5, workers=3)
    assert threads == []


def test_fan_out_bytes_match_at_one_two_and_three_workers(
    table_a1, threads, monkeypatch, tmp_path
):
    """Every sweep spans several batches, so every rank computes some."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    sweeps = {
        "field": lambda w: ex.sweep_field(table_a1, FIELDS, inner_step=1e4, workers=w),
        "ani": lambda w: ex.sweep_ani_detuning(
            table_a1, (0.0, 1e5, 2e5, 3e5, 4e5), ex.grid(-4e5, 4e5, 1e4), workers=w
        ),
        "field-ani": lambda w: ex.sweep_field_ani(
            table_a1, FIELDS[:2], (1e5, 3e5), inner_step=2e4, workers=w
        ),
    }
    for name, sweep in sweeps.items():
        written = {}
        for workers in (1, 2, 3):
            threads.clear()
            result = sweep(workers)
            assert len(threads) == workers - 1
            _assert_all_joined(threads)
            data, meta = tmp_path / f"{name}-{workers}.csv", tmp_path / f"{name}-{workers}.json"
            result.write_csv(data)
            result.write_metadata(meta)
            written[workers] = data.read_bytes() + meta.read_bytes()
        assert written[2] == written[1] and written[3] == written[1]


def test_grids_of_unequal_length_give_equal_bytes_at_one_two_and_three_workers(
    table_a1, threads, monkeypatch
):
    """Jobs of 5 to 150 detunings, whose batches cross the jobs' edges at
    odd places, give at every worker count the bits of one engine per job."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cells = [table_a1.with_system(b_z=b) for b in (500.0, 510.0, 520.0, 530.0, 540.0)]
    grids = [ex.grid(1e5, 1e5 + (size - 1) * 4e3, 4e3) for size in (150, 5, 97, 31, 64)]
    jobs = [(q.system, g) for q, g in zip(cells, grids)]
    want = [CycleEngine(q).polarizations(g).tobytes() for q, g in zip(cells, grids)]
    for workers in (1, 2, 3):
        threads.clear()
        got = ex._evaluate(table_a1, jobs, None, workers)
        assert [p.tobytes() for p in got] == want
        assert len(threads) == workers - 1
    _assert_all_joined(threads)


#: CHUNK detunings per job, so batch i of an ani sweep holds exactly job i:
#: at 3 workers, batches 0 and 3 are the caller's, 1 and 4 thread 1's, and
#: 2 and 5 thread 2's.
BATCH_DELTAS = ex.grid(-3.15e5, 3.15e5, 1e4)
BATCH_ANIS = tuple(k * 5e4 for k in range(6))


def _ani_sweep(table_a1):
    assert len(BATCH_DELTAS) == CHUNK
    return ex.sweep_ani_detuning(table_a1, BATCH_ANIS, BATCH_DELTAS, workers=3)


@pytest.fixture
def batches(monkeypatch):
    """Patches CycleEngine.polarizations to log (thread, batch) of every call,
    the batch being the cell of its first pair, and to call faults[batch]()
    first, or faults["slow"]() for a batch without one. Returns (log, faults)."""
    log, faults = [], {}
    polarizations = CycleEngine.polarizations

    def faulty(self, deltas, n_cycles=None, cells=0):
        batch = int(np.ravel(cells)[0])
        log.append((threading.current_thread(), batch))
        faults.get(batch, faults.get("slow", lambda: None))()
        return polarizations(self, deltas, n_cycles, cells)

    monkeypatch.setattr(CycleEngine, "polarizations", faulty)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return log, faults


def test_a_childs_error_reaches_the_caller_unchanged(table_a1, threads, batches, no_hang):
    """Batch 1 runs on a thread; its error, not a wrapper, comes back."""
    log, faults = batches

    def fail():
        raise NumericalError("propagation drift 2.000e-09 exceeds 1e-9")

    faults[1] = fail
    with pytest.raises(NumericalError) as info:
        _ani_sweep(table_a1)
    assert type(info.value) is NumericalError
    assert str(info.value) == "propagation drift 2.000e-09 exceeds 1e-9"
    assert len(threads) == 2
    assert [thread for thread, batch in log if batch == 1] == [threads[0]]
    _assert_all_joined(threads)


def test_the_first_error_in_share_order_is_raised(table_a1, threads, batches, no_hang):
    """Batch 4 fails first in time, while batch 2 runs; batch 2 fails later,
    and its error, the first in batch order, is raised."""
    log, faults = batches
    running = threading.Event()

    def late():
        running.set()
        time.sleep(0.2)
        raise NumericalError("batch 2")

    def early():
        running.wait(5)
        raise ConfigError("batch 4")

    faults.update({2: late, 4: early})
    with pytest.raises(NumericalError, match="batch 2"):
        _ani_sweep(table_a1)
    assert {batch for _, batch in log} >= {2, 4}
    _assert_all_joined(threads)


@pytest.mark.parametrize(
    "failing, error",
    [(0, NumericalError), (0, KeyboardInterrupt), (1, NumericalError)],
)
def test_an_error_in_one_share_stops_the_others(
    table_a1, threads, batches, no_hang, failing, error
):
    """Batch 0 is the caller's first, batch 1 a thread's. Every other batch
    waits for the failure, so every other rank stops after its first batch:
    batches 3, 4 and 5 never run."""
    log, faults = batches
    failed = threading.Event()

    def fail():
        failed.set()
        raise error("in the failing batch")

    def slow():
        failed.wait(5)
        time.sleep(0.05)  # for the failing rank to set the stop event

    faults.update({failing: fail, "slow": slow})
    with pytest.raises(error, match="in the failing batch"):
        _ani_sweep(table_a1)
    assert len(threads) == 2 and {batch for _, batch in log} <= {0, 1, 2}
    _assert_all_joined(threads)


def test_an_interrupt_while_joining_stops_and_joins_every_thread(
    table_a1, threads, batches, monkeypatch, no_hang
):
    """The caller's batches 0 and 3 are done; an interrupt in its first join
    stops the other ranks, which take 0.2 s per batch, before batches 4 and
    5, and joins them before it is raised."""
    log, faults = batches
    join = threading.Thread.join
    interrupts = [KeyboardInterrupt("while joining")]

    def interrupted_join(self, timeout=None):
        if interrupts:
            raise interrupts.pop()
        join(self, timeout)

    def slow():
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)

    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    faults["slow"] = slow
    with pytest.raises(KeyboardInterrupt, match="while joining"):
        _ani_sweep(table_a1)
    assert len(threads) == 2
    assert {0, 3} <= {batch for _, batch in log} <= {0, 1, 2, 3}
    assert {thread for thread, batch in log if batch in (0, 3)} == {threading.main_thread()}
    _assert_all_joined(threads)
