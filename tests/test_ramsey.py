"""Fringe model, synthesis, spectra, and polarization recovery."""

import random
from dataclasses import replace

import numpy as np
import pytest
from helpers import rowwise_signal_csv, rowwise_spectrum_csv

from nvpolar import ramsey as rm
from nvpolar.eigensystem import eigen_system
from nvpolar.experiments import predicted_resonance
from nvpolar.errors import (
    ConfigError,
    FitConvergenceError,
    UndefinedPolarizationError,
)
from nvpolar.fitting import FitReport
from nvpolar.lindblad import CycleEngine
from nvpolar.operators import basis_index
from nvpolar.polarization import POPULATION_FLOOR, polarization_of_state
from nvpolar.presets import get_preset

DT = 2e-8
DURATION = 4e-6


def nuclear_state(up, down):
    """A 4x4 driven block holding (up, down) in the m_s = 0 populations."""
    return np.diag([up, down, 0.0, 0.0])


def synth_and_fit(system, manifold, populations, *, duration=DURATION):
    model = rm.ramsey_model(system, manifold, rho=nuclear_state(*populations))
    t, s = rm.synthesize_ramsey(model, duration, DT)
    peaks = rm.analytic_peaks(system, manifold)
    spectral = rm.fit_spectrum(t, s, peaks)
    time_domain = rm.fit_time_domain(t, s, peaks)
    return spectral, time_domain


def test_peak_frequencies_match_eigensystem(table_a1):
    p = table_a1.system
    es = eigen_system(p)
    for manifold, cols in ((1, (4, 5)), (-1, (2, 3))):
        carrier = p.d + manifold * p.gamma_e * p.b_z
        peaks = rm.analytic_peaks(p, manifold)
        assert len(peaks) == 4
        i = 0
        for origin_up in (True, False):
            origin = basis_index(0, origin_up)
            for col in cols:
                expected = rm.PROBE_DETUNING + (
                    es.energies[col] - es.energies[origin] - carrier
                )
                assert abs(peaks[i].frequency - expected) < 1e-10 * abs(expected)
                assert peaks[i].origin_up == origin_up
                i += 1


def test_peak_amplitudes_sum_to_one_per_origin(table_a1):
    for manifold in (1, -1):
        peaks = rm.analytic_peaks(table_a1.system, manifold)
        for origin_up in (True, False):
            total = sum(p.amplitude for p in peaks if p.origin_up == origin_up)
            assert abs(total - 1.0) < 1e-12


def test_reference_line_positions(table_a1):
    """Regression anchors for the four lines of each manifold."""
    minus = rm.analytic_peaks(table_a1.system, -1)
    by_freq = sorted(minus, key=lambda p: p.frequency)
    assert abs(by_freq[0].frequency - 4091063.67) < 1.0
    assert abs(by_freq[1].frequency - 4647463.67) < 1.0
    assert abs(by_freq[2].frequency - 5352536.33) < 1.0
    assert abs(by_freq[3].frequency - 5908936.33) < 1.0
    assert abs(by_freq[2].amplitude - 0.99266) < 1e-4
    plus = rm.analytic_peaks(table_a1.system, 1)
    by_freq = sorted(plus, key=lambda p: p.frequency)
    assert abs(by_freq[0].frequency - 4595985.31) < 1.0
    assert abs(by_freq[0].amplitude - 0.75862) < 1e-4


def test_dominant_pair_separation_from_eigen_splittings(table_a1):
    """The origins differ by the nuclear Zeeman shift, so the dominant pair
    sits R -+ gamma_c B_z apart depending on the manifold."""
    p = table_a1.system
    es = eigen_system(p)
    f_up, f_down = rm.dominant_line_pair(rm.analytic_peaks(p, -1))
    assert abs(abs(f_up - f_down) - (es.splitting_minus - p.nuclear_zeeman)) < 1e-6
    assert f_up > f_down  # nuclear-up line sits higher in m_s = -1
    f_up, f_down = rm.dominant_line_pair(rm.analytic_peaks(p, 1))
    assert abs(abs(f_up - f_down) - (es.splitting_plus + p.nuclear_zeeman)) < 1e-6
    assert f_up < f_down  # and lower in m_s = +1


def test_model_weights_and_polarization(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(0.45, 0.05))
    up = sum(p.amplitude for p in model.peaks if p.origin_up)
    down = sum(p.amplitude for p in model.peaks if not p.origin_up)
    assert abs(up - 0.45) < 1e-12
    assert abs(down - 0.05) < 1e-12
    assert abs(model.polarization() - 0.8) < 1e-12
    rho = np.diag([0.45, 0.05, 0.3, 0.2, 0.0, 0.0]).astype(complex)
    via_rho = rm.ramsey_model(table_a1.system, -1, rho=rho)
    assert abs(via_rho.polarization() - 0.8) < 1e-12


def test_model_argument_validation(table_a1):
    p = table_a1.system
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, rho=nuclear_state(-0.2, 0.5))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, rho=nuclear_state(0.7, 0.7))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, 0, rho=nuclear_state(0.5, 0.5))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, rho=nuclear_state(0.5, 0.5), t2_star=0.0)
    with pytest.raises(UndefinedPolarizationError):
        rm.ramsey_model(p, -1, rho=nuclear_state(0.0, 0.0))
    # A probe detuning below the widest hyperfine shift leaves a fringe at
    # negative frequency.
    with pytest.raises(ConfigError):
        rm.analytic_peaks(p, -1, probe_detuning=100e3)


@pytest.mark.parametrize(
    "up, down", [(POPULATION_FLOOR, 0.0), (0.0, POPULATION_FLOOR), (5e-13, 5e-13)]
)
def test_a_total_at_the_population_floor_is_unreadable(table_a1, up, down):
    """A total m_s = 0 population of exactly POPULATION_FLOOR is unreadable
    on the state readout and on every Ramsey path alike; the next float up
    is readable."""
    assert up + down == POPULATION_FLOOR
    report = FitReport((), 0.0, 1, True, (), "test")
    with pytest.raises(UndefinedPolarizationError):
        polarization_of_state(nuclear_state(up, down))
    with pytest.raises(UndefinedPolarizationError):
        rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(up, down))
    for scale in (1.0, np.nextafter(1.0, 2.0)):
        u, d = up * scale, down * scale
        peaks = (rm.RamseyPeak(1e6, u, True), rm.RamseyPeak(2e6, d, False))
        model = rm.RamseyModel(-1, rm.PROBE_DETUNING, rm.T2_STAR, peaks)
        if scale == 1.0:
            with pytest.raises(UndefinedPolarizationError):
                model.polarization()
            with pytest.raises(UndefinedPolarizationError):
                rm._estimate(((1e6, u), (2e6, d)), report, "line weights")
        else:
            p = (u - d) / (u + d)
            assert polarization_of_state(nuclear_state(u, d)).p == p
            assert model.polarization() == p
            assert rm._estimate(((1e6, u), (2e6, d)), report, "line weights").p == p



def test_synthesis_guards(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(0.5, 0.5))
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, DURATION, 0.0)
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, 5 * DT, DT)  # record too short
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, DURATION, 1e-7)  # undersampled
    with pytest.raises(ConfigError, match="at most t2_star"):
        rm.synthesize_ramsey(replace(model, t2_star=DT / 2), DURATION, DT)


def test_fft_bin_accuracy():
    dt = 1e-7
    t = np.arange(256) * dt
    f0 = 1.037e6
    s = np.cos(2.0 * np.pi * f0 * t)
    frequencies, amplitudes = rm.fft_spectrum(t, s)
    bin_width = frequencies[1] - frequencies[0]
    peak = frequencies[int(np.argmax(np.abs(amplitudes)))]
    assert abs(peak - f0) <= bin_width
    assert np.abs(amplitudes).max() > 0.8
    assert abs(bin_width - 1.0 / (4 * 256 * dt)) < 1e-9
    with pytest.raises(ConfigError):
        rm.fft_spectrum(t[:4], np.zeros(4))
    # Time axes of a NaN or an infinite sample spacing, and ones that do not
    # run forward.
    for bad in (t * np.nan, np.where(t > 0, np.inf, 0.0), t[::-1], np.zeros_like(t)):
        with pytest.raises(ConfigError):
            rm.fft_spectrum(bad, s)


def test_fft_spectrum_refuses_a_non_uniform_record():
    """With t[1] moved from 0.1 to 0.05 us, a 1.037 MHz cosine on 256
    samples read its peak at 2.070 MHz instead of 1.035 MHz, with no error.
    A step that departs from the first by more than STEP_TOLERANCE of it is
    refused; one within it is not."""
    dt = 1e-7
    t = np.arange(256) * dt
    s = np.cos(2.0 * np.pi * 1.037e6 * t)
    moved = t.copy()
    moved[1] = 0.5e-7
    with pytest.raises(ConfigError, match="uniformly sampled"):
        rm.fft_spectrum(moved, s)
    last = t.copy()
    last[-1] = t[-2] + dt * (1.0 + 0.5 * rm.STEP_TOLERANCE)
    assert np.array_equal(rm.fft_spectrum(last, s)[1], rm.fft_spectrum(t, s)[1])
    last[-1] = t[-2] + dt * (1.0 + 2.0 * rm.STEP_TOLERANCE)
    with pytest.raises(ConfigError, match="uniformly sampled"):
        rm.fft_spectrum(last, s)


def test_fit_spectrum_refuses_a_non_uniform_record(table_a1):
    """A record with every third sample dropped has no spectrum to fit; the
    time fit needs no uniform grid and reads P from it."""
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(0.75, 0.25))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    kept = np.arange(len(t)) % 3 != 2
    peaks = rm.analytic_peaks(table_a1.system, -1)
    with pytest.raises(ConfigError, match="uniformly sampled"):
        rm.fit_spectrum(t[kept], s[kept], peaks)
    assert abs(rm.fit_time_domain(t[kept], s[kept], peaks).p - 0.5) < 0.01


@pytest.mark.parametrize("p_true", [0.0, 0.5, 0.9, -0.7])
def test_round_trip_minus_manifold(table_a1, p_true):
    pops = ((1 + p_true) / 2, (1 - p_true) / 2)
    spectral, time_domain = synth_and_fit(table_a1.system, -1, pops)
    assert abs(spectral.p - p_true) < 0.01
    assert abs(time_domain.p - p_true) < 0.01


@pytest.mark.parametrize("p_true", [0.0, 0.5, 0.9])
def test_round_trip_plus_manifold(table_a1, p_true):
    """The secondary lines are strong here, so recovery is a bit looser."""
    pops = ((1 + p_true) / 2, (1 - p_true) / 2)
    spectral, time_domain = synth_and_fit(table_a1.system, 1, pops)
    assert abs(spectral.p - p_true) < 0.05
    assert abs(time_domain.p - p_true) < 0.05


def test_nine_to_one_population_ratio(table_a1):
    spectral, _ = synth_and_fit(table_a1.system, -1, (0.9, 0.1))
    assert abs(spectral.p - 0.8) < 0.02


def test_recovered_splitting_tracks_axial_coupling(table_a1):
    spectral, _ = synth_and_fit(table_a1.system, -1, (0.5, 0.5))
    separation = abs(spectral.frequency_up - spectral.frequency_down)
    bin_width = 1.0 / (rm.FFT_PAD_FACTOR * DURATION)
    assert abs(separation - abs(table_a1.system.a_zz)) < bin_width
    assert spectral.frequency_up > spectral.frequency_down


def test_matched_field_doublet_splits_by_nuclear_zeeman(table_a1):
    """With the axial coupling tuned against the nuclear Zeeman shift, the
    m_s = +1 doublet collapses to two lines one bare Zeeman apart."""
    p = table_a1.system
    matched = replace(p, a_zz=-p.nuclear_zeeman, a_ani=20e3)
    spectral, _ = synth_and_fit(matched, 1, (0.5, 0.5))
    separation = abs(spectral.frequency_up - spectral.frequency_down)
    bin_width = 1.0 / (rm.FFT_PAD_FACTOR * DURATION)
    assert abs(separation - p.nuclear_zeeman) < bin_width
    assert spectral.frequency_up < spectral.frequency_down
    polarized, _ = synth_and_fit(matched, 1, (0.9, 0.1))
    assert abs(polarized.p - 0.8) < 0.02


#: Axial couplings of both signs: A_zz differs in sign from site to site.
SIGNED_A_ZZ = (625e3, -625e3, 686.5546e3, -686.5546e3)


def signed_fits(table_a1, a_zz, manifold, populations):
    """(P(model), spectral P, time-domain P) at the given axial coupling."""
    system = replace(table_a1.system, a_zz=a_zz)
    model = rm.ramsey_model(system, manifold, rho=nuclear_state(*populations))
    spectral, time_domain = synth_and_fit(system, manifold, populations)
    return model.polarization(), spectral.p, time_domain.p


@pytest.mark.parametrize("populations", [(0.8, 0.2), (0.2, 0.8)])
@pytest.mark.parametrize("manifold", [1, -1])
@pytest.mark.parametrize("a_zz", SIGNED_A_ZZ)
def test_line_roles_follow_the_model_for_either_sign_of_a_zz(
    table_a1, a_zz, manifold, populations
):
    """The up line sits above the down line on one manifold for A_zz < 0 and
    below it for A_zz > 0; either way both fits read P with the model's
    sign (worst |P_fit - P_model| measured 0.028)."""
    p_model, *fitted = signed_fits(table_a1, a_zz, manifold, populations)
    for p_fit in fitted:
        assert np.sign(p_fit) == np.sign(p_model)
        assert abs(p_fit - p_model) <= 0.05


@pytest.mark.parametrize("populations", [(0.8, 0.2), (0.2, 0.8)])
@pytest.mark.parametrize("manifold", [1, -1])
@pytest.mark.parametrize("a_zz", [a for a in SIGNED_A_ZZ if a > 0])
def test_flipping_a_zz_and_the_manifold_mirrors_the_readout(
    table_a1, a_zz, manifold, populations
):
    """(A_zz, m) and (-A_zz, -m) give the same lines up to a reflection, so
    both fits read the same P (measured to 9e-12)."""
    here = signed_fits(table_a1, a_zz, manifold, populations)
    mirror = signed_fits(table_a1, -a_zz, -manifold, populations)
    assert np.max(np.abs(np.subtract(here, mirror))) <= 1e-6


def test_single_component_signal(table_a1):
    """A record with no down population reads P = 1 from the spectrum to
    rounding (measured <= 2.2e-14): the down lines' fitted amplitudes are
    rounding noise."""
    spectral, _ = synth_and_fit(table_a1.system, -1, (1.0, 0.0))
    assert abs(1.0 - spectral.p) <= 1e-13


def test_linewidth_matches_envelope(table_a1):
    """Real-part FWHM of an isolated line equals the envelope-set width."""
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(1.0, 0.0))
    t, s = rm.synthesize_ramsey(model, 8e-6, DT)
    frequencies, amplitudes = rm.fft_spectrum(t, s)
    re = np.real(amplitudes) - np.median(np.real(amplitudes))
    line = max(
        (p for p in rm.analytic_peaks(table_a1.system, -1) if p.origin_up),
        key=lambda q: q.amplitude,
    )
    idx = int(np.argmin(np.abs(frequencies - line.frequency)))
    half = re[idx] / 2.0

    def crossing(direction):
        i = idx
        while re[i + direction] > half:
            i += direction
        f1, f2 = frequencies[i], frequencies[i + direction]
        m1, m2 = re[i], re[i + direction]
        return f1 + (half - m1) / (m2 - m1) * (f2 - f1)

    fwhm = crossing(+1) - crossing(-1)
    envelope_fwhm = 2.0 * np.sqrt(np.log(2.0)) / (np.pi * rm.T2_STAR)
    assert abs(fwhm - envelope_fwhm) < frequencies[1] - frequencies[0]


def test_fit_guess_validation(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(0.5, 0.5))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    peaks = rm.analytic_peaks(table_a1.system, -1)
    up, down = rm.RamseyPeak(5e6, 0.5, True), rm.RamseyPeak(5e6, 0.5, False)
    with pytest.raises(ConfigError):
        # Lines so close that the fit windows hold almost no bins.
        rm.fit_spectrum(t, s, (up, replace(down, frequency=5.01e6)))
    with pytest.raises(ConfigError):
        rm.fit_spectrum(t[:-1], s, peaks)
    for bad in ((up, down), (replace(up, frequency=0.0), down), (replace(up, frequency=-4e6), down)):
        with pytest.raises(ConfigError):
            rm.fit_time_domain(t, s, bad)
        with pytest.raises(ConfigError):
            rm.fit_spectrum(t, s, bad)
    with pytest.raises(ConfigError):
        rm.fit_time_domain(t, np.zeros_like(s), peaks)
    with pytest.raises(ConfigError):
        rm.fit_time_domain(t[:-1], s, peaks)
    with pytest.raises(ConfigError):
        rm.fit_time_domain(t, s, peaks[:2])  # no nuclear-down line


def test_fit_budget_exhaustion_raises(table_a1, monkeypatch):
    """At T2* = 3 us the fits, started at T2_STAR, need 16 (spectral) and 14
    (time) evaluations."""
    slow = rm.ramsey_model(table_a1.system, 1, rho=nuclear_state(0.5, 0.5), t2_star=3e-6)
    t, s = rm.synthesize_ramsey(slow, DURATION, DT)
    monkeypatch.setattr(rm, "FIT_BUDGET", 10)
    with pytest.raises(FitConvergenceError):
        rm.fit_spectrum(t, s, slow.peaks)
    with pytest.raises(FitConvergenceError):
        rm.fit_time_domain(t, s, slow.peaks)


def captured_problems(monkeypatch):
    """A list that collects every FitProblem the Ramsey fits solve."""
    problems = []
    solve = rm.least_squares

    def capture(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(rm, "least_squares", capture)
    return problems


def fit_both(system, manifold, populations, t2_star):
    """Run both fits on one record; return its time axis."""
    model = rm.ramsey_model(system, manifold, rho=nuclear_state(*populations), t2_star=t2_star)
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    rm.fit_spectrum(t, s, model.peaks)
    rm.fit_time_domain(t, s, model.peaks)
    return t, model.peaks


def central_difference(problem, x, rel=1e-6):
    jac = np.empty((len(problem.data), len(x)))
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = rel * abs(x[j])
        jac[:, j] = (problem.model(x + step) - problem.model(x - step)) / (2.0 * step[j])
    return jac


def window_bins(frequencies, peaks):
    """The spectrum bins within 0.35 x separation of the dominant pair."""
    f_up, f_down = rm.dominant_line_pair(peaks)
    offsets = frequencies[:, None] - np.array([f_up, f_down])
    return np.any(np.abs(offsets) <= 0.35 * abs(f_up - f_down), axis=1)


def spectral_rows(t, peaks):
    """fit_spectrum's row map for a record sampled at t: the padded,
    2/N-scaled real FFT, kept in the windows around the dominant pair, its
    real and imaginary parts stacked."""
    n_pad = rm.FFT_PAD_FACTOR * len(t)
    bins = window_bins(np.fft.rfftfreq(n_pad, DT), peaks)

    def rows(a):
        z = np.fft.rfft(a, n=n_pad, axis=0)[bins] * (2.0 / len(t))
        return np.concatenate((z.real, z.imag))

    return rows


@pytest.mark.parametrize("manifold", [1, -1])
def test_time_fit_jacobian_is_the_projected_difference(table_a1, manifold, monkeypatch):
    """At a point off the optimum (frequencies 0.1 cycle per record high, T2*
    20% long) the Jacobian of either fit, spectral or time, is Kaufman's:
    orthogonal to the span of its rows of the cos/sin columns, and equal to
    the central difference with its component in that span removed, the
    term Kaufman drops. Both hold to 1e-8 of max |jac| (measured <= 5.4e-10);
    the unprojected difference differs by up to 43% of max |jac| there."""
    problems = captured_problems(monkeypatch)
    t, peaks = fit_both(table_a1.system, manifold, (0.7, 0.3), 3e-6)
    spectral, time = problems
    for problem, rows in ((spectral, spectral_rows(t, peaks)), (time, lambda a: a)):
        x = np.array(problem.init)
        x[:-1] += 0.1  # the search runs in cycles per record span and spans
        x[-1] *= 1.2
        tau = t / (t[-1] - t[0])
        env = np.exp(-((tau / x[-1]) ** 2))[:, None]
        phase = np.outer(2.0 * np.pi * tau, x[:-1])
        basis = np.linalg.qr(rows(np.hstack((env * np.cos(phase), env * np.sin(phase)))))[0]
        jac, diff = problem.jacobian(x), central_difference(problem, x)
        scale = np.abs(jac).max()
        assert np.abs(basis.T @ jac).max() <= 1e-8 * scale
        assert np.abs(diff - basis @ (basis.T @ diff) - jac).max() <= 1e-8 * scale


@pytest.mark.parametrize("manifold", [1, -1])
def test_spectral_fit_rows_are_the_spectrum_on_the_window_bins(table_a1, manifold, monkeypatch):
    """The spectral fit fits fft_spectrum's own amplitudes on the window
    bins, real parts then imaginary parts, bit for bit."""
    problems = captured_problems(monkeypatch)
    model = rm.ramsey_model(table_a1.system, manifold, rho=nuclear_state(0.7, 0.3), t2_star=3e-6)
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    rm.fit_spectrum(t, s, model.peaks)
    frequencies, amplitudes = rm.fft_spectrum(t, s)
    z = amplitudes[window_bins(frequencies, model.peaks)]
    (problem,) = problems
    assert np.array_equal(problem.data, np.concatenate((z.real, z.imag)))


def buildup_readout_states():
    """The 24 states the buildup-readout benchmark workload reads out at
    seed 1: table-a1-fit at its drawn detunings (bench/workloads.py)."""
    rng = random.Random("buildup-readout:1")
    deltas = [100e3 + (k + rng.random()) * (550e3 / 24) for k in range(24)]
    preset = get_preset("table-a1-fit")
    return [(preset.system, rho) for rho in CycleEngine(preset).states(deltas)]


def fit_record(system, manifold, rho, t2_star=rm.T2_STAR):
    """P(model) and the spectral and the time fit of one record."""
    model = rm.ramsey_model(system, manifold, rho=rho, t2_star=t2_star)
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    spectral = rm.fit_spectrum(t, s, model.peaks)
    return model.polarization(), (spectral, rm.fit_time_domain(t, s, model.peaks))


def fit_errors(*record):
    """|P_fit - P_model| and the report of each fit of one record."""
    p_model, estimates = fit_record(*record)
    return [(abs(e.p - p_model), e.report) for e in estimates]


def test_time_fit_reads_the_model_polarization_over_the_check_set(table_a1):
    """Every line modelled, both fits read the model's P to rounding
    (measured <= 1.7e-14 spectral, 4.8e-15 time) wherever the record
    resolves each origin's lines: the 24 buildup-readout states on both
    manifolds, A_zz = +-625 and +-686.5546 kHz, and table-a1-fig4 on
    m_s = +1."""
    cases = [(system, m, rho) for system, rho in buildup_readout_states() for m in (1, -1)]
    for a_zz in SIGNED_A_ZZ:
        system = replace(table_a1.system, a_zz=a_zz)
        for m in (1, -1):
            cases += [(system, m, nuclear_state(0.8, 0.2)), (system, m, nuclear_state(0.2, 0.8))]
    fig4 = get_preset("table-a1-fig4")
    cases.append((fig4.system, 1, CycleEngine(fig4).states([predicted_resonance(fig4)])[0]))
    for case in cases:
        for error, report in fit_errors(*case):
            assert error <= 1e-12
            assert len(report.params) == 13  # four (c, d, f) lines and T2*


def test_a_last_bit_change_of_the_state_moves_no_fit_step():
    """rho_00 one ulp either way on the 24 buildup-readout states, on both
    manifolds: each fit takes the same evaluations to the same frequencies,
    and P moves by rounding only (measured <= 3.0e-15)."""
    for system, rho in buildup_readout_states():
        for manifold in (1, -1):
            _, base = fit_record(system, manifold, rho)
            for direction in (-np.inf, np.inf):
                nudged = rho.copy()
                nudged[0, 0] = np.nextafter(rho[0, 0].real, direction)
                _, moved = fit_record(system, manifold, nudged)
                for a, b in zip(base, moved):
                    assert b.report.n_evaluations == a.report.n_evaluations
                    assert (b.frequency_up, b.frequency_down) == (a.frequency_up, a.frequency_down)
                    assert abs(b.p - a.p) <= 1e-13


@pytest.mark.parametrize("t2_star", [1.2e-6, 2e-6, 3e-6])
def test_time_fit_merges_the_matched_field_doublet(table_a1, t2_star):
    """The matched-field lines of each origin sit 20 kHz apart, under half
    the 250 kHz resolution of the record, so each origin is fitted as one
    line. P stays within 2e-6 of the model (measured 1.7e-6 time, 1.9e-6
    spectral; the two-tone time fit read 1.9e-6)."""
    p = table_a1.system
    matched = replace(p, a_zz=-p.nuclear_zeeman, a_ani=20e3)
    for populations in ((0.5, 0.5), (0.9, 0.1)):
        for error, report in fit_errors(matched, 1, nuclear_state(*populations), t2_star):
            assert error <= 2e-6
            assert len(report.params) == 7  # two (c, d, f) lines and T2*


def test_csv_writers(table_a1, tmp_path):
    model = rm.ramsey_model(table_a1.system, -1, rho=nuclear_state(0.5, 0.5))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    frequencies, amplitudes = rm.fft_spectrum(t, s)
    sig, spec = tmp_path / "signal.csv", tmp_path / "spectrum.csv"
    rm.write_signal_csv(sig, t, s)
    rm.write_spectrum_csv(spec, frequencies, amplitudes)
    lines = sig.read_text().strip().split("\n")
    assert lines[0] == "time_ns,signal"
    assert len(lines) == len(t) + 1
    t0, s0 = lines[1].split(",")
    assert float(t0) == t[0] * 1e9
    assert float(s0) == s[0]
    lines = spec.read_text().strip().split("\n")
    assert lines[0] == "frequency_hz,magnitude"
    assert len(lines) == len(frequencies) + 1


def test_csv_writers_match_the_row_by_row_formatting(table_a1, tmp_path):
    model = rm.ramsey_model(table_a1.system, 1, rho=nuclear_state(0.8, 0.2))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for write, reference, args in (
        (rm.write_signal_csv, rowwise_signal_csv, (t, s)),
        (rm.write_spectrum_csv, rowwise_spectrum_csv, rm.fft_spectrum(t, s)),
    ):
        write(got, *args)
        reference(want, *args)
        assert got.read_bytes() == want.read_bytes()
        assert b"\r" not in got.read_bytes()
