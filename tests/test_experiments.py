"""Sweep drivers, polarization readout, and result serialization."""

import json
import os
import signal
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


# -- the fan-out over forked children --------------------------------------------

FIELDS = (500.0, 520.0, 540.0, 560.0)


def _assert_no_children():
    """This process has no child left, neither running nor unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Patches os.fork to record the pid of every child it makes."""
    made = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return made


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """Patches ex.CycleEngine to log (pid, b_z) of each engine, from any process."""
    log = tmp_path / "engines.log"

    def logging_engine(preset):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {preset.system.b_z!r}\n")
        return CycleEngine(preset)

    monkeypatch.setattr(ex, "CycleEngine", logging_engine)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), float(b)) for pid, b in (line.split() for line in lines)]

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
def test_pool_size_is_clamped_to_jobs_and_cpus(table_a1, forks, monkeypatch, cpus):
    """The caller plus min(workers, jobs, CPUs) - 1 forked children."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    fields = FIELDS[:3]
    pooled = ex.sweep_field(table_a1, fields, inner_step=3e5, workers=10**6)
    assert len(forks) == min(3, cpus) - 1
    serial = ex.sweep_field(table_a1, fields, inner_step=3e5, workers=1)
    ex.sweep_detuning(table_a1, (1e5, 2e5), workers=10**6)
    assert len(forks) == min(3, cpus) - 1  # one worker or one job forks none
    assert pooled.p.tolist() == serial.p.tolist()
    _assert_no_children()


def test_every_job_builds_one_engine(table_a1, builds, monkeypatch):
    """Windows longer than CHUNK stay one job, and one engine, built in process
    i mod W for job i; process 0 is the caller."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert len(ex.grid(-6e5, 6e5, 9e3)) > CHUNK
    results = {}
    for workers in (1, 2, 3):
        results[workers] = ex.sweep_field(table_a1, FIELDS, inner_step=9e3, workers=workers)
        built = builds()
        assert sorted(b for _, b in built) == list(FIELDS)
        pid_of = dict((b, pid) for pid, b in built)
        ranks = [{pid_of[b] for b in FIELDS[r::workers]} for r in range(workers)]
        assert all(len(pids) == 1 for pids in ranks)
        assert ranks[0] == {os.getpid()}
        assert len(set.union(*ranks)) == workers
        assert results[workers].p.tolist() == results[1].p.tolist()
    _assert_no_children()


def test_fan_out_bytes_match_at_one_two_and_three_workers(table_a1, forks, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    sweeps = {
        "field": lambda w: ex.sweep_field(table_a1, FIELDS, inner_step=1e5, workers=w),
        "ani": lambda w: ex.sweep_ani_detuning(
            table_a1, (0.0, 1e5, 2e5, 3e5, 4e5), ex.grid(-4e5, 4e5, 1e5), workers=w
        ),
        "field-ani": lambda w: ex.sweep_field_ani(
            table_a1, FIELDS[:2], (1e5, 3e5), inner_step=2e5, workers=w
        ),
    }
    for name, sweep in sweeps.items():
        written = {}
        for workers in (1, 2, 3):
            forks.clear()
            result = sweep(workers)
            assert len(forks) == workers - 1
            data, meta = tmp_path / f"{name}-{workers}.csv", tmp_path / f"{name}-{workers}.json"
            result.write_csv(data)
            result.write_metadata(meta)
            written[workers] = data.read_bytes() + meta.read_bytes()
        assert written[2] == written[1] and written[3] == written[1]
    _assert_no_children()


def test_without_fork_every_job_runs_here(table_a1, builds, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = ex.sweep_field(table_a1, FIELDS, inner_step=1e5, workers=1)
    builds()
    monkeypatch.delattr(os, "fork")
    result = ex.sweep_field(table_a1, FIELDS, inner_step=1e5, workers=3)
    assert builds() == [(os.getpid(), b) for b in FIELDS]
    serial.write_csv(tmp_path / "serial.csv")
    result.write_csv(tmp_path / "nofork.csv")
    assert (tmp_path / "nofork.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def _failing_at(monkeypatch, b_z, fail, others=None):
    """Patches ex.CycleEngine to call fail() for the job at field b_z, and
    others() before building any other job's engine."""

    def engine(preset):
        if preset.system.b_z == b_z:
            fail()
        elif others is not None:
            others()
        return CycleEngine(preset)

    monkeypatch.setattr(ex, "CycleEngine", engine)


def test_a_childs_error_reaches_the_caller_unchanged(table_a1, monkeypatch, no_hang):
    """Job 1 runs in child 1 of 3 processes; its error, not a wrapper, comes back."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fail():
        raise NumericalError("propagation drift 2.000e-09 exceeds 1e-9")

    _failing_at(monkeypatch, FIELDS[1], fail)
    with pytest.raises(NumericalError) as info:
        ex.sweep_field(table_a1, FIELDS, inner_step=3e5, workers=3)
    assert type(info.value) is NumericalError
    assert str(info.value) == "propagation drift 2.000e-09 exceeds 1e-9"
    _assert_no_children()


@pytest.mark.parametrize("error", [NumericalError, KeyboardInterrupt])
def test_an_error_in_the_callers_share_kills_the_children(
    table_a1, monkeypatch, no_hang, error
):
    """Job 0 is the caller's; the children's jobs would take a minute each."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fail():
        raise error("in the caller's share")

    _failing_at(monkeypatch, FIELDS[0], fail, others=lambda: time.sleep(60))
    t0 = time.monotonic()
    with pytest.raises(error, match="in the caller's share"):
        ex.sweep_field(table_a1, FIELDS, inner_step=3e5, workers=3)
    assert time.monotonic() - t0 < 20
    _assert_no_children()


@pytest.mark.parametrize(
    "end, status",
    [(lambda: os._exit(7), "7"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")],
    ids=["exit-7", "sigkill"],
)
def test_a_child_that_sends_no_result_is_an_error(table_a1, monkeypatch, no_hang, end, status):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _failing_at(monkeypatch, FIELDS[2], end)
    with pytest.raises(RuntimeError, match=f"ended with exit status {status} and sent no result"):
        ex.sweep_field(table_a1, FIELDS, inner_step=3e5, workers=3)
    _assert_no_children()
