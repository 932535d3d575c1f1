"""Fringe model, synthesis, spectra, and polarization recovery."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import rowwise_signal_csv, rowwise_spectrum_csv

from nvpolar import ramsey as rm
from nvpolar.eigensystem import eigen_system
from nvpolar.errors import (
    ConfigError,
    FitConvergenceError,
    UndefinedPolarizationError,
)
from nvpolar.operators import basis_index

DT = 2e-8
DURATION = 4e-6


def synth_and_fit(system, manifold, populations, *, duration=DURATION):
    model = rm.ramsey_model(system, manifold, populations=populations)
    t, s = rm.synthesize_ramsey(model, duration, DT)
    spectrum = rm.fft_spectrum(s, DT)
    guesses = rm.dominant_line_pair(rm.analytic_peaks(system, manifold))
    spectral = rm.fit_lorentzian_pair(spectrum, guesses, manifold=manifold)
    time_domain = rm.fit_time_domain(t, s, guesses, manifold=manifold)
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
    model = rm.ramsey_model(table_a1.system, -1, populations=(0.45, 0.05))
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
        rm.ramsey_model(p, -1)
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, rho=np.eye(6) / 6, populations=(0.5, 0.5))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, populations=(-0.2, 0.5))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, populations=(0.7, 0.7))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, 0, populations=(0.5, 0.5))
    with pytest.raises(ConfigError):
        rm.ramsey_model(p, -1, populations=(0.5, 0.5), t2_star=0.0)
    with pytest.raises(UndefinedPolarizationError):
        rm.ramsey_model(p, -1, populations=(0.0, 0.0))
    # A probe detuning below the widest hyperfine shift leaves a fringe at
    # negative frequency.
    with pytest.raises(ConfigError):
        rm.analytic_peaks(p, -1, probe_detuning=100e3)


def test_synthesis_guards(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, populations=(0.5, 0.5))
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, DURATION, 0.0)
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, 5 * DT, DT)  # record too short
    with pytest.raises(ConfigError):
        rm.synthesize_ramsey(model, DURATION, 1e-7)  # undersampled


def test_fft_bin_accuracy():
    dt = 1e-7
    t = np.arange(256) * dt
    f0 = 1.037e6
    spectrum = rm.fft_spectrum(np.cos(2.0 * np.pi * f0 * t), dt)
    peak = spectrum.frequencies[int(np.argmax(spectrum.magnitude))]
    assert abs(peak - f0) <= spectrum.bin_width
    assert spectrum.magnitude.max() > 0.8
    assert abs(spectrum.bin_width - 1.0 / (4 * 256 * dt)) < 1e-9
    with pytest.raises(ConfigError):
        rm.fft_spectrum(np.zeros(4), dt)
    with pytest.raises(ConfigError):
        rm.fft_spectrum(np.zeros(64), dt, pad_factor=0)


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


def test_single_component_signal(table_a1):
    spectral, _ = synth_and_fit(table_a1.system, -1, (1.0, 0.0))
    assert spectral.p > 0.98


def test_linewidth_matches_envelope(table_a1):
    """Real-part FWHM of an isolated line equals the envelope-set width."""
    model = rm.ramsey_model(table_a1.system, -1, populations=(1.0, 0.0))
    t, s = rm.synthesize_ramsey(model, 8e-6, DT)
    spectrum = rm.fft_spectrum(s, DT)
    re = np.real(spectrum.amplitudes) - np.median(np.real(spectrum.amplitudes))
    line = max(
        (p for p in rm.analytic_peaks(table_a1.system, -1) if p.origin_up),
        key=lambda q: q.amplitude,
    )
    idx = int(np.argmin(np.abs(spectrum.frequencies - line.frequency)))
    half = re[idx] / 2.0

    def crossing(direction):
        i = idx
        while re[i + direction] > half:
            i += direction
        f1, f2 = spectrum.frequencies[i], spectrum.frequencies[i + direction]
        m1, m2 = re[i], re[i + direction]
        return f1 + (half - m1) / (m2 - m1) * (f2 - f1)

    fwhm = crossing(+1) - crossing(-1)
    assert abs(fwhm - rm.gaussian_linewidth(rm.T2_STAR)) < spectrum.bin_width


def test_gaussian_linewidth_formula():
    assert abs(rm.gaussian_linewidth(2e-6) - 265010.36) < 1.0
    with pytest.raises(ConfigError):
        rm.gaussian_linewidth(0.0)


def test_fit_guess_validation(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, populations=(0.5, 0.5))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    spectrum = rm.fft_spectrum(s, DT)
    with pytest.raises(ConfigError):
        rm.fit_lorentzian_pair(spectrum, (5e6, 5e6), manifold=-1)
    with pytest.raises(ConfigError):
        # Guesses so close that the fit window holds almost no bins.
        rm.fit_lorentzian_pair(spectrum, (5.00e6, 5.01e6), manifold=-1)
    with pytest.raises(ConfigError):
        rm.fit_lorentzian_pair(spectrum, (4.6e6, 5.4e6), manifold=0)
    with pytest.raises(ConfigError):
        rm.fit_time_domain(t, s, (5e6, 5e6), manifold=-1)
    with pytest.raises(ConfigError):
        rm.fit_time_domain(t, np.zeros_like(s), (4.6e6, 5.4e6), manifold=-1)


def test_fit_budget_exhaustion_raises(table_a1):
    model = rm.ramsey_model(table_a1.system, -1, populations=(0.5, 0.5))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    spectrum = rm.fft_spectrum(s, DT)
    guesses = rm.dominant_line_pair(rm.analytic_peaks(table_a1.system, -1))
    with pytest.raises(FitConvergenceError):
        rm.fit_lorentzian_pair(spectrum, guesses, manifold=-1, budget=6)
    with pytest.raises(FitConvergenceError):
        rm.fit_time_domain(t, s, guesses, manifold=-1, budget=10)


def test_csv_writers(table_a1, tmp_path):
    model = rm.ramsey_model(table_a1.system, -1, populations=(0.5, 0.5))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    spectrum = rm.fft_spectrum(s, DT)
    sig, spec = tmp_path / "signal.csv", tmp_path / "spectrum.csv"
    rm.write_signal_csv(sig, t, s)
    rm.write_spectrum_csv(spec, spectrum)
    lines = sig.read_text().strip().split("\n")
    assert lines[0] == "time_ns,signal"
    assert len(lines) == len(t) + 1
    t0, s0 = lines[1].split(",")
    assert float(t0) == t[0] * 1e9
    assert float(s0) == s[0]
    lines = spec.read_text().strip().split("\n")
    assert lines[0] == "frequency_hz,magnitude"
    assert len(lines) == len(spectrum.frequencies) + 1


def test_csv_writers_match_the_row_by_row_formatting(table_a1, tmp_path):
    model = rm.ramsey_model(table_a1.system, 1, populations=(0.8, 0.2))
    t, s = rm.synthesize_ramsey(model, DURATION, DT)
    spectrum = rm.fft_spectrum(s, DT)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for write, reference, args in (
        (rm.write_signal_csv, rowwise_signal_csv, (t, s)),
        (rm.write_spectrum_csv, rowwise_spectrum_csv, (spectrum,)),
    ):
        write(got, *args)
        reference(want, *args)
        assert got.read_bytes() == want.read_bytes()
        assert b"\r" not in got.read_bytes()
