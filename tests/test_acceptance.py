"""End-to-end acceptance suite.

Each numbered criterion maps to one or more test functions named
``test_criterion_<n>_*``; the terminal summary (see conftest) prints one
aggregate pass/fail line per criterion. Tolerances are stated inline; heavy
simulations are shared through module-scoped fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    random_density_matrix,
    random_schedule,
    reference_trajectory,
    rk4_schedule,
)
from nvpolar import experiments as ex
from nvpolar import ramsey as rm
from nvpolar.eigensystem import eigen_system
from nvpolar.fitting import fit_polarization_curve
from nvpolar.hamiltonian import static_hamiltonian
from nvpolar.lindblad import CycleEngine, SchedulePropagator, initial_mixed_state
from nvpolar.params import RelaxationRates, SystemParams
from nvpolar.polarization import polarization_of_state

DELTA_STEP = 5e3
PADDED_BIN = 1.0 / (rm.FFT_PAD_FACTOR * 4e-6)  # 4 us record, x4 zero padding


# -- shared simulations -------------------------------------------------------


@pytest.fixture(scope="module")
def detuning_sweep(table_a1):
    """Full +-1 MHz detuning sweep at 5 kHz steps, with its wall time."""
    start = time.monotonic()
    result = ex.sweep_detuning(table_a1, ex.grid(-1e6, 1e6, DELTA_STEP))
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def buildup(table_a1, detuning_sweep):
    """Polarization after 0..20 cycles at the sweep's best detuning."""
    result, _ = detuning_sweep
    best = result.axes[0].values[int(np.argmax(np.abs(result.p)))]
    return ex.sweep_repetitions(table_a1, 20, delta=best)


@pytest.fixture(scope="module")
def field_sweep(table_a1):
    """Best |P| per axial field, detuning re-optimized at every field."""
    fields = ex.grid(450.0, 850.0, 10.0)
    result = ex.sweep_field(
        table_a1, fields, inner_halfwidth=600e3, inner_step=25e3
    )
    return np.array(fields), result.p


@pytest.fixture(scope="module")
def plateau_widths(fig4_preset):
    """Width of the |P| > 0.8 field plateau per transverse coupling."""
    fields = ex.grid(450.0, 850.0, 25.0)
    widths = {}
    for ani in (100e3, 200e3, 400e3):
        q = fig4_preset.with_system(a_ani=ani)
        result = ex.sweep_field(q, fields, inner_halfwidth=600e3, inner_step=5e3)
        widths[ani] = 25.0 * int(np.sum(np.abs(result.p) > 0.8))
    return widths


@pytest.fixture(scope="module")
def weak_drive_rows(fig4_preset):
    """Max-over-detuning |P| for the weak-drive preset per coupling value."""
    rows = {}
    for ani in (0.0, 50e3, 100e3, 200e3, 400e3):
        q = fig4_preset.with_system(a_ani=ani)
        center = ex.predicted_resonance(q)
        window = ex.grid(center - 600e3, center + 600e3, DELTA_STEP)
        rows[ani] = float(np.max(np.abs(ex.sweep_detuning(q, window).p)))
    return rows


@pytest.fixture(scope="module")
def curve_fit_report(table_a1):
    """Closed loop: simulate a detuning curve, refit the couplings."""
    deltas = ex.grid(-450e3, 450e3, 50e3)
    curve = ex.sweep_detuning(table_a1, deltas)
    return fit_polarization_curve(list(zip(deltas, curve.p)), table_a1)


def _random_params(rng) -> SystemParams:
    return SystemParams(
        b_z=float(rng.uniform(50.0, 900.0)),
        a_zz=float(rng.uniform(-1e6, 1e6)),
        a_ani=float(rng.uniform(0.0, 5e5)),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


# -- criterion 1: two-lobed detuning response ---------------------------------


def test_criterion_1_two_opposite_lobes(detuning_sweep):
    result, _ = detuning_sweep
    p = result.p
    assert 0.80 <= float(np.max(p)) <= 0.95
    assert -0.95 <= float(np.min(p)) <= -0.80
    deltas = np.array(result.axes[0].values)
    assert deltas[int(np.argmax(p))] > 0
    assert deltas[int(np.argmin(p))] < 0


def test_criterion_1_lobe_separation(table_a1, detuning_sweep):
    """The lobe extrema are as far apart as the lobes' line pairs allow.

    Each lobe holds two nuclear-flip lines (see ``predicted_resonance``): the
    positive lobe's sit at (gamma_c B_z -+ R+)/2, with R+ the m_s = +1
    eigen-splitting, and the negative lobe mirrors them, since
    P(-delta) = -P(delta). R+ is the spacing of the lines inside one lobe,
    not of the lobes. With the lines overlapping at pi-pulse drive, each
    extremum lies between its lobe's two lines but at no promised place, so
    the separation lies between the inner pair's spacing gamma_c B_z - R+
    and the outer pair's gamma_c B_z + R+, to one grid step.
    """
    result, _ = detuning_sweep
    deltas = np.array(result.axes[0].values)
    separation = abs(
        deltas[int(np.argmax(result.p))] - deltas[int(np.argmin(result.p))]
    )
    p = table_a1.system
    r_plus = eigen_system(p).splitting_plus
    inner = p.nuclear_zeeman - r_plus
    outer = p.nuclear_zeeman + r_plus
    assert inner - DELTA_STEP <= separation <= outer + DELTA_STEP, (
        f"lobe extrema sit {separation / 1e3:.0f} kHz apart, outside the "
        f"{(inner - DELTA_STEP) / 1e3:.0f}-{(outer + DELTA_STEP) / 1e3:.0f} kHz "
        f"range between the inner ({inner / 1e3:.0f} kHz) and outer "
        f"({outer / 1e3:.0f} kHz) spacing of the mirrored line pairs "
        f"+-(gamma_c B_z -+ R+)/2, R+ = {r_plus / 1e3:.0f} kHz, widened by "
        "one grid step: an extremum lies outside its lobe's two lines"
    )


def test_criterion_1_runtime(detuning_sweep):
    _, elapsed = detuning_sweep
    assert elapsed < 120.0


# -- criterion 2: polarization buildup over cycles ----------------------------


def test_criterion_2_buildup_monotone_and_saturating(buildup):
    magnitude = np.abs(buildup.p)
    assert np.all(np.diff(magnitude) > -1e-9)
    assert magnitude[6] >= 0.95 * magnitude[20]
    assert magnitude[20] - magnitude[15] < 0.01


def test_criterion_2_intra_cycle_sawtooth(table_a1):
    """Readout-normalized polarization rises over each microwave pulse and
    falls over each laser train while the net buildup ratchets upward."""
    schedule = table_a1.schedule(3.2e5, n_cycles=3)
    prop = SchedulePropagator(table_a1.system, table_a1.rates)
    states = reference_trajectory(prop, initial_mixed_state(), schedule)
    per_cycle = len(schedule) // 3

    def p_at(seg_index):
        return polarization_of_state(states[1 + seg_index][1]).p

    after_train_values = []
    for c in range(3):
        base = c * per_cycle
        after_train = p_at(base + per_cycle - 4)
        after_mw = p_at(base + per_cycle - 2)
        assert after_mw > after_train + 0.1
        after_train_values.append(after_train)
        if c < 2:
            assert p_at(base + 2 * per_cycle - 4) < after_mw - 0.1
    assert after_train_values == sorted(after_train_values)


# -- criterion 3: field dependence --------------------------------------------


def test_criterion_3_best_field_matches_coupling(table_a1, field_sweep):
    fields, p = field_sweep
    best_field = float(fields[int(np.argmax(np.abs(p)))])
    p_sys = table_a1.system
    azz = abs(p_sys.a_zz)
    zeeman_at_best = p_sys.gamma_c * best_field
    relative = abs(zeeman_at_best - azz) / azz
    match_field = azz / p_sys.gamma_c
    assert relative <= 0.05, (
        f"best-polarization field is {best_field:.0f} G (nuclear Zeeman "
        f"{zeeman_at_best / 1e3:.1f} kHz), {relative:.1%} away from the "
        f"{match_field:.0f} G field whose Zeeman shift matches the axial "
        "coupling magnitude; with the drive saturating both nuclear-flip "
        "lines the transfer stays near its ceiling over a broad field range "
        "and peaks tens of gauss below the matching field"
    )


def test_criterion_3_plateau_widens_with_transverse_coupling(plateau_widths):
    values = [plateau_widths[a] for a in sorted(plateau_widths)]
    assert all(w2 >= w1 for w1, w2 in zip(values, values[1:]))
    assert values[0] > 0.0


# -- criterion 4: weak-drive coupling dependence ------------------------------


def test_criterion_4_strong_coupling_rows(weak_drive_rows):
    for ani in (50e3, 100e3, 200e3, 400e3):
        assert weak_drive_rows[ani] >= 0.95, (
            f"max |P| at a_ani = {ani / 1e3:.0f} kHz is {weak_drive_rows[ani]:.3f}"
        )


def test_criterion_4_zero_coupling_row(weak_drive_rows):
    assert weak_drive_rows[0.0] < 0.02


# -- criterion 5: closed-form eigensystem -------------------------------------


def test_criterion_5_closed_form_energies():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = _random_params(rng)
        es = eigen_system(p)
        dense = np.linalg.eigvalsh(static_hamiltonian(p))
        assert np.allclose(np.sort(es.energies), dense, rtol=1e-10, atol=1e-4)


def test_criterion_5_eigenvector_overlaps():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        p = _random_params(rng)
        es = eigen_system(p)
        vals, vecs = np.linalg.eigh(static_hamiltonian(p))
        for k in range(6):
            close = np.abs(vals - es.energies[k]) < 1.0 + 1e-9 * abs(es.energies[k])
            assert np.any(close)
            overlap = np.sum(np.abs(vecs[:, close].conj().T @ es.states[:, k]) ** 2)
            assert overlap >= 1.0 - 1e-9


# -- criterion 6: density-matrix invariants and integrator cross-check --------


def test_criterion_6_state_invariants(table_a1, fig4_preset):
    """Along the reference path and along the trajectory the CLI writes."""
    for preset, n_cycles in ((table_a1, None), (fig4_preset, 1)):
        schedule = preset.schedule(3.2e5, n_cycles=n_cycles) + preset.readout_tail()
        prop = SchedulePropagator(preset.system, preset.rates)
        states = [rho for _, rho in reference_trajectory(prop, initial_mixed_state(), schedule)]
        states += list(CycleEngine(preset).trajectory(3.2e5, 10, n_cycles)[1])
        for rho in states:
            assert abs(np.real(np.trace(rho)) - 1.0) <= 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
            assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-9


def test_criterion_6_unitary_purity(table_a1):
    rng = np.random.default_rng(21)
    prop = SchedulePropagator(table_a1.system, RelaxationRates(gamma_gl=0.0))
    for _ in range(5):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = np.zeros(6, dtype=complex)
        state[:4] = vec / np.linalg.norm(vec)
        rho = np.outer(state, state.conj())
        out = prop.propagate(rho, random_schedule(rng))
        assert abs(float(np.real(np.trace(out @ out))) - 1.0) <= 1e-9


def test_criterion_6_exact_vs_integrator(table_a1):
    rng = np.random.default_rng(77)
    prop = SchedulePropagator(table_a1.system, table_a1.rates)
    for _ in range(20):
        schedule = random_schedule(rng)
        rho = random_density_matrix(rng)
        rho[:4, 4:] = 0.0
        rho[4:, :4] = 0.0
        exact = prop.propagate(rho, schedule)
        oracle = rk4_schedule(prop, rho, schedule)
        assert np.max(np.abs(exact - oracle)) < 1e-6


# -- criterion 7: fringe round trip and splittings ----------------------------


def _fringe_fits(system, manifold, populations):
    model = rm.ramsey_model(system, manifold, rho=np.diag([*populations, 0.0, 0.0]))
    t, s = rm.synthesize_ramsey(model, 4e-6, 2e-8)
    spectrum = rm.fft_spectrum(s, 2e-8)
    peaks = rm.analytic_peaks(system, manifold)
    spectral = rm.fit_lorentzian_pair(spectrum, rm.dominant_line_pair(peaks))
    time_domain = rm.fit_time_domain(t, s, peaks)
    return spectral, time_domain


def test_criterion_7_round_trip_recovery(table_a1):
    for p_true in (0.0, 0.5, 0.9):
        pops = ((1 + p_true) / 2, (1 - p_true) / 2)
        for manifold in (-1, 1):
            spectral, time_domain = _fringe_fits(table_a1.system, manifold, pops)
            assert abs(spectral.p - p_true) <= 0.05
            assert abs(time_domain.p - p_true) <= 0.05


def test_criterion_7_lower_manifold_splitting(table_a1):
    spectral, _ = _fringe_fits(table_a1.system, -1, (0.5, 0.5))
    separation = abs(spectral.frequency_up - spectral.frequency_down)
    assert abs(separation - abs(table_a1.system.a_zz)) <= PADDED_BIN


def test_criterion_7_upper_manifold_splitting(table_a1):
    """In the regime where the axial coupling cancels the nuclear Zeeman
    shift (and the transverse coupling is small), the upper-manifold doublet
    is split by exactly the bare nuclear Zeeman frequency."""
    p = table_a1.system
    matched = replace(p, a_zz=-p.nuclear_zeeman, a_ani=20e3)
    spectral, _ = _fringe_fits(matched, 1, (0.5, 0.5))
    separation = abs(spectral.frequency_up - spectral.frequency_down)
    assert abs(separation - p.nuclear_zeeman) <= PADDED_BIN


# -- criterion 8: closed-loop hyperfine recovery ------------------------------


def test_criterion_8_closed_loop_fit(table_a1, curve_fit_report):
    report = curve_fit_report
    assert report.converged
    f_rel, azz_mag, a_ani = report.params
    true_azz = abs(table_a1.system.a_zz)
    true_ani = table_a1.system.a_ani
    assert abs(f_rel) <= 1e3
    assert abs(azz_mag - true_azz) <= 0.01 * true_azz
    assert abs(a_ani - true_ani) <= 0.01 * true_ani
    assert round(azz_mag / 1e3) == 687
    assert round(a_ani / 1e3) == 215


# -- criterion 9: worker-count determinism ------------------------------------


def test_criterion_9_worker_independent_bytes(table_a1, tmp_path):
    deltas = ex.grid(-4e5, 4e5, 1e5)
    blobs = []
    for workers in (1, 2, 3):
        result = ex.sweep_detuning(table_a1, deltas, workers=workers)
        data = tmp_path / f"w{workers}.csv"
        meta = tmp_path / f"w{workers}.json"
        result.write_csv(data)
        result.write_metadata(meta)
        blobs.append((data.read_bytes(), meta.read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
