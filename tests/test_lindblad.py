"""Master-equation generator, channels, and segment propagation."""

import csv
import dataclasses

import numpy as np
import pytest
from helpers import (
    full_drive_propagate,
    liouvillian_reference,
    random_density_matrix,
    random_schedule,
    reference_trajectory,
    rk4_schedule,
    rowwise_trajectory_csv,
    validate_density_matrix,
)
from scipy.linalg import expm as scipy_expm

from nvpolar import experiments, lindblad
from nvpolar.errors import NumericalError
from nvpolar.experiments import predicted_resonance, write_trajectory_csv
from nvpolar.hamiltonian import rotating_hamiltonian
from nvpolar.lindblad import (
    DIM,
    DRIVE_SCALE,
    CycleEngine,
    SchedulePropagator,
    build_channels,
    initial_mixed_state,
    liouvillian,
)
from nvpolar.params import RelaxationRates, SystemParams
from nvpolar.polarization import polarization_of_state
from nvpolar.presets import get_preset, preset_names
from nvpolar.schedule import PulseSegment

A_ZZ = -686.5546e3
A_ANI = 215.3535e3


def _system() -> SystemParams:
    return SystemParams(a_zz=A_ZZ, a_ani=A_ANI)


def _rates() -> RelaxationRates:
    return RelaxationRates(gamma_gl=8e6)


def _driven_coherence_state(rng) -> np.ndarray:
    """Random state with no coherence into the far-detuned manifold.

    Zeroing the inter-manifold blocks keeps the state positive and removes
    GHz-scale rotating-frame frequencies the fixed-step oracle cannot track.
    """
    rho = random_density_matrix(rng)
    rho[:4, 4:] = 0.0
    rho[4:, :4] = 0.0
    return rho


def test_liouvillian_matches_elementwise_definition():
    """The generator reproduces -i 2 pi [H, rho] + dissipator literally."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2.0
        ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
        rho = random_density_matrix(rng, dim=4)
        gen = liouvillian(h, ops)
        got = (gen @ rho.reshape(-1)).reshape(4, 4)
        want = -1j * 2.0 * np.pi * (h @ rho - rho @ h)
        for op in ops:
            odo = op.conj().T @ op
            want += op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)
        assert np.max(np.abs(got - want)) < 1e-10


def test_liouvillian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        liouvillian(np.array([[0.0, 1.0], [0.0, 0.0]]), [])


def test_liouvillian_holds_each_slice_to_its_own_scale():
    """A small slice's asymmetry is not measured against a large slice's entries."""
    small = np.array([[2.0, 1.0 + 5e-12], [1.0, 3.0]])
    large = np.diag([1e6, -1e6])
    with pytest.raises(ValueError, match="Hermitian"):
        liouvillian(small, [])
    with pytest.raises(ValueError, match="Hermitian"):
        liouvillian(np.array([large, small]), [])


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("laser_on", [True, False])
def test_kron_is_bit_equal_to_numpy_on_liouvillian_operands(name, laser_on):
    preset = get_preset(name)
    h = rotating_hamiltonian(preset.system, 3.2e5, preset.omega * DRIVE_SCALE)
    channels = build_channels(preset.rates, preset.system, laser_on=laser_on)
    assert len(channels) == (2 if laser_on else 0)
    eye = np.eye(DIM)
    h_eff = -2j * np.pi * h - 0.5 * sum(op.conj().T @ op for op in channels)
    pairs = [(h, eye), (eye, h.T), (h_eff, eye), (eye, h_eff.conj())]
    for op in channels:
        opdag_op = op.conj().T @ op
        pairs += [(op, op.conj()), (opdag_op, eye), (eye, opdag_op.T)]
    for a, b in pairs:
        assert lindblad._kron(a, b).tobytes() == np.kron(a, b).tobytes()


#: Rates with every optional channel on: thermal re-excitation, laser-driven
#: nuclear cross-relaxation and dephasing of the four driven eigenstates.
EVERY_CHANNEL = RelaxationRates(
    gamma_gl=8e6, n_th=0.1, gamma_d=(2e5, 1e5, 3e5, 1.5e5), gamma_n_gl=1e5
)


@pytest.mark.parametrize("name", [*preset_names(), "every channel"])
@pytest.mark.parametrize("laser_on", [True, False])
def test_one_pass_generator_matches_the_three_kron_form(name, laser_on):
    """liouvillian's one pass over the channels is within 1e-15 max |L| of
    liouvillian_reference: on the 6x6 generator of a driven segment, and on
    the engine's block generator, built from its per-cell channel array."""
    if name == "every channel":
        preset = dataclasses.replace(get_preset("table-a1-fit"), rates=EVERY_CHANNEL)
    else:
        preset = get_preset(name)
    h = rotating_hamiltonian(preset.system, predicted_resonance(preset), preset.omega * DRIVE_SCALE)
    channels = build_channels(preset.rates, preset.system, laser_on=laser_on)
    if name == "every channel":
        assert len(channels) == (10 if laser_on else 4)
    else:
        assert len(channels) == (2 if laser_on else 0)
    engine = CycleEngine(preset)
    block = [op[0] for op in engine._channels[laser_on]]
    for got, want in (
        (liouvillian(h, channels), liouvillian_reference(h, channels)),
        (engine._generator(True, laser_on, 0), liouvillian_reference(engine._h[0], block)),
    ):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _generator(rng, n_levels: int, norm: float) -> np.ndarray:
    """A random Lindblad generator on n_levels states, scaled to a 1-norm."""
    h = rng.normal(size=(n_levels, n_levels)) + 1j * rng.normal(size=(n_levels, n_levels))
    ops = [
        rng.normal(size=(n_levels, n_levels)) + 1j * rng.normal(size=(n_levels, n_levels))
        for _ in range(2)
    ]
    gen = liouvillian((h + h.conj().T) / 2.0, ops)
    return gen * (norm / np.abs(gen).sum(axis=0).max())


@pytest.mark.parametrize("n_levels", [4, 6])
def test_expm_matches_scipy(n_levels):
    """16- and 36-dim generators with 1-norms from 1e-3 to 1e3."""
    rng = np.random.default_rng(11)
    for norm in np.logspace(-3, 3, 19):
        gen = _generator(rng, n_levels, norm)
        want = scipy_expm(gen)
        err = np.max(np.abs(lindblad.expm(gen) - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (norm, err)


def _degree_band_slices(rng) -> np.ndarray:
    """Generators just under theta_3, theta_5, theta_7 and theta_9, and one
    above theta_13: the top of each Padé degree's band, and a scaled slice."""
    norms = [lindblad._THETAS[m] * (1.0 - 1e-6) for m in (3, 5, 7, 9)]
    return np.stack([_generator(rng, 4, norm) for norm in norms + [1.1 * lindblad._THETAS[13]]])


@pytest.mark.parametrize("name", preset_names())
def test_expm_matches_scipy_on_the_slices_the_code_forms(name):
    """Each slice within max(1e-14, 10 |A|_1 u) of SciPy, relative, in the
    1-norm: the engine's chop-on stack, its dephased laser-off and pulse
    stacks, SchedulePropagator's 36x36 segments with and without
    dephasing, and a slice at the top of each Padé degree's band. The small
    slices agree to about 2e-16. A slice of large norm is that badly
    conditioned: fig4's 20 us pulse segment (|A|_1 = 1.8e5)
    is 1.1e-11 from SciPy, and against a 40-digit mpmath exponential SciPy
    is 1.4e-11 off and expm 1.0e-11."""
    preset = get_preset(name)
    dephased = dataclasses.replace(
        preset, rates=dataclasses.replace(preset.rates, gamma_d=(1e4, 2e4, 3e4, 4e4))
    )
    engine = CycleEngine(dephased)
    laser_off = engine._generator(False, False)
    t_mw = preset.t_mw_ns * 1e-9
    delta = predicted_resonance(preset)
    frames = np.multiply.outer(np.array([-1e6, 0.0, delta, 1e6]) * t_mw, np.diag(lindblad._K_DIAG))
    stacks = {
        "chop-on": CycleEngine(preset)._generator(False, True) * (preset.chop_on_ns * 1e-9),
        "dephased chop-off": laser_off * (preset.chop_off_ns * 1e-9),
        "dephased rest": laser_off * (preset.rest_ns * 1e-9),
        "dephased pulse": engine._mw * t_mw + frames,
    }
    stacks["degree bands"] = _degree_band_slices(np.random.default_rng(14))
    for label, config in (("segment", preset), ("dephased segment", dephased)):
        prop = SchedulePropagator(config.system, config.rates)
        segments = {
            (seg.laser_on, seg.mw_on, seg.duration_ns): seg
            for seg in config.schedule(delta, n_cycles=1)
            if seg.duration_ns
        }
        stacks[label] = np.array(
            [prop.segment_generator(seg, delta) * (ns * 1e-9) for (*_, ns), seg in segments.items()]
        )
    assert stacks["segment"].shape == (4, 36, 36)

    def norm1(m):
        return np.abs(m).sum(axis=-2).max(axis=-1)

    for label, stack in stacks.items():
        for a in stack:
            want = scipy_expm(a)
            err = norm1(lindblad.expm(a) - want) / norm1(want)
            assert err <= max(1e-14, 10.0 * norm1(a) * 2.0**-53), (label, norm1(a), err)


def _traced_pade(monkeypatch):
    """Patch lindblad._pade to record (degree, slices) of every call; return the list."""
    calls = []
    pade = lindblad._pade

    def traced(a, m):
        calls.append((m, len(a)))
        return pade(a, m)

    monkeypatch.setattr(lindblad, "_pade", traced)
    return calls


def test_expm_stack_is_bit_equal_to_per_slice_calls(monkeypatch):
    """Slices of every Padé degree, scaled and squared 0 to 8 times, and a
    zero slice, in one stack; each (degree, scaling) is one approximant."""
    rng = np.random.default_rng(12)
    norms = [0.0, 1e-3, 0.5, 4.0, 30.0, 1e3, 0.02, 4.5]
    stack = np.concatenate(
        [np.stack([_generator(rng, 4, norm) for norm in norms]), _degree_band_slices(rng)]
    )
    calls = _traced_pade(monkeypatch)
    got = lindblad.expm(stack)
    assert sorted(calls) == [(3, 3), (5, 2), (7, 2), (9, 1), (13, 1), (13, 1), (13, 1), (13, 2)]
    assert np.max(np.abs(got[0] - np.eye(16))) <= 1e-15
    for gen, slice_ in zip(stack, got):
        assert slice_.tobytes() == lindblad.expm(gen).tobytes()
    assert lindblad.expm(stack[5:6])[0].tobytes() == got[5].tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_turns_non_finite_input_into_non_finite_output(bad):
    """An overflowing config reaches expm like this (see test_cli); no raise."""
    rng = np.random.default_rng(13)
    good = _generator(rng, 4, 1.0)
    gen = good.copy()
    gen[3, 5] = bad
    assert np.all(np.isnan(lindblad.expm(gen)))
    got = lindblad.expm(np.stack([gen, good]))
    assert np.all(np.isnan(got[0]))
    assert got[1].tobytes() == lindblad.expm(good).tobytes()
    # A stack that mixes degrees: [3/3], [7/7], the bad slice, scaled [13/13].
    mixed = np.stack([_generator(rng, 4, 1e-3), _generator(rng, 4, 0.5), gen, good * 30.0])
    got = lindblad.expm(mixed)
    assert np.all(np.isnan(got[2]))
    for i in (0, 1, 3):
        assert got[i].tobytes() == lindblad.expm(mixed[i]).tobytes()


def test_table_rates_give_two_laser_channels():
    chans_on = build_channels(_rates(), _system(), laser_on=True)
    chans_off = build_channels(_rates(), _system(), laser_on=False)
    assert len(chans_on) == 2
    assert chans_off == []
    # Each channel moves one nuclear orientation from +1 down to 0.
    amp = np.sqrt(8e6)
    assert abs(chans_on[0][0, 2] - amp) < 1e-9
    assert abs(chans_on[1][1, 3] - amp) < 1e-9
    for op in chans_on:
        assert np.count_nonzero(op) == 1


def test_dephasing_channel_is_an_eigenstate_projector():
    rates = RelaxationRates(gamma_gl=0.0, gamma_d=(4e4, 0.0, 0.0, 0.0))
    chans = build_channels(rates, _system(), laser_on=False)
    assert len(chans) == 1
    op = chans[0] / np.sqrt(4e4)
    assert np.allclose(op @ op, op, atol=1e-12)
    assert abs(np.trace(op) - 1.0) < 1e-12
    # The first dephasing rate targets |0,up>.
    assert abs(op[0, 0] - 1.0) < 1e-12


def test_thermal_rate_adds_upward_channels():
    rates = RelaxationRates(gamma_gl=8e6, n_th=0.1)
    chans = build_channels(rates, _system(), laser_on=True)
    assert len(chans) == 4
    ups = [op for op in chans if abs(op[2, 0]) > 0 or abs(op[3, 1]) > 0]
    assert len(ups) == 2
    assert abs(np.max(np.abs(ups[0])) - np.sqrt(8e5)) < 1e-6


def test_two_level_decay_follows_exponential():
    """Pins the linear-rate convention: populations decay as exp(-Gamma t)."""
    gamma = 8e6
    op = np.zeros((DIM, DIM), dtype=complex)
    op[0, 2] = np.sqrt(gamma)
    gen = liouvillian(np.zeros((DIM, DIM)), [op])
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[2, 2] = 0.6
    rho[0, 0] = 0.4
    rho[0, 2] = rho[2, 0] = 0.1
    for t in (10e-9, 100e-9, 400e-9):
        out = (scipy_expm(gen * t) @ rho.reshape(-1)).reshape(DIM, DIM)
        assert abs(out[2, 2] - 0.6 * np.exp(-gamma * t)) < 1e-12
        assert abs(out[0, 2] - 0.1 * np.exp(-gamma * t / 2.0)) < 1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_laser_segment_depletes_excited_manifold():
    """One 30 ns chop at 8e6 1/s leaves exactly exp(-0.24) of m_s = +1."""
    prop = SchedulePropagator(_system(), _rates(), frame_delta=3e5)
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[2, 2] = 0.7
    rho[3, 3] = 0.3
    out = prop.propagate(rho, (PulseSegment(30, laser_on=True),))
    excited = float(np.real(out[2, 2] + out[3, 3]))
    assert abs(excited - np.exp(-0.24)) < 1e-9


def test_segment_propagation_matches_rk4_oracle():
    """expm propagation vs fixed-step RK4 on 20 random schedules."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = SystemParams(
            b_z=float(rng.uniform(100.0, 800.0)),
            a_zz=float(rng.uniform(-8e5, 8e5)),
            a_ani=float(rng.uniform(0.0, 4e5)),
            phi=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        rates = RelaxationRates(
            gamma_gl=float(rng.uniform(1e6, 1e7)),
            n_th=float(rng.uniform(0.0, 0.3)),
            gamma_d=tuple(rng.uniform(0.0, 5e4, size=4)),
            gamma_n_gl=float(rng.uniform(0.0, 1e5)),
        )
        schedule = random_schedule(rng)
        rho = _driven_coherence_state(rng)
        prop = SchedulePropagator(p, rates)
        exact = prop.propagate(rho, schedule)
        oracle = rk4_schedule(prop, rho, schedule)
        assert np.max(np.abs(exact - oracle)) < 1e-6


def test_invariants_along_full_sequence(table_a1):
    """Trace, Hermiticity, and positivity hold at every sampled time."""
    schedule = table_a1.schedule(3.2e5) + table_a1.readout_tail()
    prop = SchedulePropagator(table_a1.system, table_a1.rates)
    for _, rho in reference_trajectory(prop, initial_mixed_state(), schedule, 50):
        validate_density_matrix(rho)


def test_unitary_limit_preserves_purity():
    rng = np.random.default_rng(21)
    rates = RelaxationRates(gamma_gl=0.0)
    prop = SchedulePropagator(_system(), rates)
    for _ in range(5):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = np.zeros(DIM, dtype=complex)
        state[:4] = vec / np.linalg.norm(vec)
        rho = np.outer(state, state.conj())
        out = prop.propagate(rho, random_schedule(rng))
        purity = float(np.real(np.trace(out @ out)))
        assert abs(purity - 1.0) < 1e-9


def test_polarization_is_independent_of_phi(table_a1):
    values = []
    for phi in (0.0, np.pi / 4.0, np.pi / 2.0):
        preset = table_a1.with_system(phi=phi)
        schedule = preset.schedule(3.2e5, n_cycles=2) + preset.readout_tail()
        prop = SchedulePropagator(preset.system, preset.rates)
        rho = prop.propagate(initial_mixed_state(), schedule)
        values.append(polarization_of_state(rho).p)
    assert max(values) - min(values) < 1e-8


def test_full_drive_leakage_is_negligible(table_a1):
    """Keeping the counter-rotating 0 <-> -1 coupling changes nothing visible."""
    schedule = table_a1.schedule(3.2e5, n_cycles=1) + table_a1.readout_tail()
    rwa = SchedulePropagator(table_a1.system, table_a1.rates)
    p_rwa = polarization_of_state(rwa.propagate(initial_mixed_state(), schedule)).p
    full = full_drive_propagate(
        table_a1.system, table_a1.rates, initial_mixed_state(), schedule
    )
    assert abs(p_rwa - polarization_of_state(full).p) < 2e-5
    assert float(np.real(full[4, 4] + full[5, 5])) < 1e-6


def test_no_drive_keeps_polarization_at_zero(table_a1):
    schedule = dataclasses.replace(table_a1, omega=0.0, n_cycles=3).schedule(0.0)
    prop = SchedulePropagator(table_a1.system, table_a1.rates, frame_delta=0.0)
    rho = prop.propagate(initial_mixed_state(), schedule)
    assert abs(polarization_of_state(rho).p) < 1e-9


def test_trajectory_sampling_grid(table_a1):
    schedule = (
        PulseSegment(30, laser_on=True),
        PulseSegment(45),
        PulseSegment(25, mw_on=True, mw_delta=1e5, mw_rabi=2e5),
    )
    prop = SchedulePropagator(table_a1.system, table_a1.rates)
    samples = reference_trajectory(prop, initial_mixed_state(), schedule, 20)
    times = [t for t, _ in samples]
    assert times == [0, 20, 40, 60, 80, 100]
    # Final sample equals direct propagation.
    direct = prop.propagate(initial_mixed_state(), schedule)
    assert np.max(np.abs(samples[-1][1] - direct)) < 1e-12


def test_validate_density_matrix_rejects_bad_inputs():
    good = initial_mixed_state()
    validate_density_matrix(good)
    with pytest.raises(NumericalError):
        validate_density_matrix(np.eye(4, dtype=complex) / 4.0)
    bad_trace = good * 2.0
    with pytest.raises(NumericalError):
        validate_density_matrix(bad_trace)
    negative = good.copy()
    negative[0, 0] = -0.1
    negative[1, 1] = 1.1
    with pytest.raises(NumericalError):
        validate_density_matrix(negative)


def _parked_block():
    """A driven block with no m_s = 0 population."""
    parked = np.zeros((4, 4), dtype=complex)
    parked[2, 2] = parked[3, 3] = 0.5
    return parked


def test_trajectory_csv_leaves_p_empty_without_readout_population(tmp_path):
    """A state with no m_s = 0 population gets an empty P cell, not a value."""
    path = tmp_path / "trajectory.csv"
    states = np.array([initial_mixed_state()[:4, :4], _parked_block()])
    write_trajectory_csv([0, 10], states, path)
    with open(path, newline="") as fh:
        header, mixed, empty = csv.reader(fh)
    assert header[-1] == "P" and mixed[-1] == "0.0"
    assert empty[0] == "10" and empty[-1] == "" and len(empty) == len(header)


def test_trajectory_csv_raises_other_readout_errors(tmp_path, monkeypatch):
    def broken(rho):
        raise ValueError("not a readout failure")

    monkeypatch.setattr(experiments, "polarization_of_state", broken)
    with pytest.raises(ValueError, match="not a readout failure"):
        write_trajectory_csv([0], initial_mixed_state()[None, :4, :4], tmp_path / "t.csv")


def test_trajectory_csv_matches_the_row_by_row_formatting(tmp_path):
    """The constant text of the m_s = -1 floats has the bytes of their reprs."""
    preset = dataclasses.replace(get_preset("table-a1-fig4"), n_cycles=2)
    times, states = CycleEngine(preset).trajectory(3.9e5, 997)
    times.append(10**9)
    states = np.concatenate([states, _parked_block()[None]])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory_csv(times, states, got)
    rowwise_trajectory_csv(times, states, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "times, shape",
    [([0, 10], (2, 6, 6)), ([0], (2, 4, 4)), ([0, 10, 20], (2, 4, 4)), ([0], (4, 4))],
    ids=["6x6", "fewer-times", "more-times", "unstacked"],
)
def test_trajectory_csv_rejects_states_that_are_not_driven_blocks(tmp_path, times, shape):
    """Only a (len(times), 4, 4) stack is written; anything else writes no file."""
    states = np.zeros(shape, dtype=complex)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=rf"states of shape \({shape[0]}, "):
        write_trajectory_csv(times, states, path)
    assert not path.exists()
