"""Electron Ramsey fringes as a nuclear-polarization readout.

A Ramsey sequence on one electron manifold beats at the offsets of the
hyperfine-split transitions from the deliberately detuned carrier, with one
line pair per nuclear orientation. The relative line weights therefore encode
the nuclear polarization. This module builds the analytic fringe model from
the closed-form eigensystem, synthesizes time traces, computes spectra, and
recovers the polarization by fitting either domain.

Frequencies are fringe offsets from zero: the carrier sits at the bare
electron transition of the chosen manifold plus ``probe_detuning``, so each
fringe appears near the probe detuning, shifted by the hyperfine and nuclear
Zeeman terms of the specific line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError, FitConvergenceError
from .experiments import write_rows
from .fitting import FitProblem, FitReport, least_squares, solve
from .operators import basis_index
from .params import SystemParams
from .polarization import POPULATION_FLOOR, polarization_of_populations
from .presets import MAX_GRID_POINTS

#: Default carrier offset from the bare electron transition (Hz). Large
#: against the hyperfine structure so every fringe frequency stays positive.
PROBE_DETUNING = 5e6

#: Default Gaussian dephasing time of the electron superposition (s).
T2_STAR = 2e-6

#: Default zero-padding multiple for spectra.
FFT_PAD_FACTOR = 4

#: Minimum record length for a meaningful spectrum.
MIN_SAMPLES = 8

#: Largest departure of a spectrum record's step from its first, relative to it.
STEP_TOLERANCE = 1e-6

#: Model evaluations and Jacobians of either fit.
FIT_BUDGET = 900

_MANIFOLDS = (1, -1)
#: Eigenstate columns spanning each electron manifold.
_COLUMNS = {1: (4, 5), -1: (2, 3)}


@dataclass(frozen=True)
class RamseyPeak:
    """One fringe component.

    Attributes:
        frequency: Fringe frequency (Hz, positive).
        amplitude: Non-negative weight of the cosine component.
        origin_up: True when the line starts from the nuclear-up level.
    """

    frequency: float
    amplitude: float
    origin_up: bool


@dataclass(frozen=True)
class RamseyModel:
    """A sum of cosine fringes under a shared Gaussian envelope.

    Peak amplitudes carry the nuclear populations, so they sum to at most
    one (less when population is parked in the other electron manifolds).
    """

    manifold: int
    probe_detuning: float
    t2_star: float
    peaks: tuple[RamseyPeak, ...]

    def __post_init__(self) -> None:
        if self.manifold not in _MANIFOLDS:
            raise ConfigError(f"manifold must be +1 or -1, got {self.manifold}")
        if not 0 < self.t2_star < math.inf:
            raise ConfigError(f"t2_star must be positive and finite, got {self.t2_star}")
        total = 0.0
        for peak in self.peaks:
            if peak.frequency <= 0:
                raise ConfigError(
                    f"fringe frequency must be positive, got {peak.frequency}"
                )
            if peak.amplitude < 0:
                raise ConfigError("peak amplitudes must be non-negative")
            total += peak.amplitude
        if total > 1.0 + 1e-9:
            raise ConfigError(f"peak amplitudes sum to {total}, above 1")

    def polarization(self) -> float:
        """Nuclear polarization implied by the peak weights."""
        up = sum(p.amplitude for p in self.peaks if p.origin_up)
        down = sum(p.amplitude for p in self.peaks if not p.origin_up)
        return polarization_of_populations(up, down)


def analytic_peaks(
    p: SystemParams, manifold: int, probe_detuning: float = PROBE_DETUNING
) -> tuple[RamseyPeak, ...]:
    """The four fringe lines of one manifold with bare visibility weights.

    Weights are the squared overlaps of the nuclear-spin-conserving drive
    target with the mixed eigenstates, so the two lines of each origin sum
    to one. Scale by nuclear populations (see ramsey_model) before treating
    amplitudes as signal weights.
    """
    if manifold not in _MANIFOLDS:
        raise ConfigError(f"manifold must be +1 or -1, got {manifold}")
    if not math.isfinite(probe_detuning):
        raise ConfigError(f"probe detuning must be finite, got {probe_detuning}")
    es = eigen_system(p)
    carrier = p.d + manifold * p.gamma_e * p.b_z
    peaks = []
    for origin_up in (True, False):
        origin = basis_index(0, origin_up)
        target = basis_index(manifold, origin_up)
        for col in _COLUMNS[manifold]:
            frequency = probe_detuning + (
                es.energies[col] - es.energies[origin] - carrier
            )
            if not frequency > 0:
                raise ConfigError(
                    "probe detuning too small: fringe frequency "
                    f"{frequency:.3e} Hz is not positive"
                )
            amplitude = float(abs(es.states[target, col]) ** 2)
            peaks.append(RamseyPeak(float(frequency), amplitude, origin_up))
    return tuple(peaks)


def ramsey_model(
    p: SystemParams,
    manifold: int,
    *,
    rho: np.ndarray,
    probe_detuning: float = PROBE_DETUNING,
    t2_star: float = T2_STAR,
) -> RamseyModel:
    """Build the fringe model for a given nuclear state.

    ``rho`` is the full 6x6 density matrix or its 4x4 driven block
    (CycleEngine.states); either way its first two diagonal entries are the
    m_s = 0 nuclear-up and nuclear-down populations that weight the lines.
    """
    up, down = (float(np.real(rho[i, i])) for i in (0, 1))
    if up < -POPULATION_FLOOR or down < -POPULATION_FLOOR:
        raise ConfigError(f"populations must be non-negative, got ({up}, {down})")
    up, down = max(up, 0.0), max(down, 0.0)
    if up + down > 1.0 + 1e-9:
        raise ConfigError(f"populations sum to {up + down}, above 1")
    polarization_of_populations(up, down)  # raises without m_s = 0 population
    weighted = tuple(
        RamseyPeak(
            peak.frequency,
            peak.amplitude * (up if peak.origin_up else down),
            peak.origin_up,
        )
        for peak in analytic_peaks(p, manifold, probe_detuning)
    )
    return RamseyModel(manifold, probe_detuning, t2_star, weighted)


def dominant_line_pair(peaks: tuple[RamseyPeak, ...]) -> tuple[float, float]:
    """Frequencies (up, down) of the strongest line of each nuclear origin.

    Both fits report the fitted frequencies of these two lines, and the
    spectral fit keeps the bins around them. Ties resolve to the first line
    listed.
    """
    best: dict[bool, RamseyPeak] = {}
    for peak in peaks:
        cur = best.get(peak.origin_up)
        if cur is None or peak.amplitude > cur.amplitude:
            best[peak.origin_up] = peak
    if True not in best or False not in best:
        raise ConfigError("need at least one line per nuclear origin")
    return best[True].frequency, best[False].frequency


def synthesize_ramsey(
    model: RamseyModel, duration: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the fringe signal on a uniform grid starting at zero.

    Args:
        model: Fringe model to evaluate.
        duration: Record length (s).
        dt: Sample spacing (s); must resolve every fringe (Nyquist).

    Returns:
        (t, s) arrays of times (s) and signal values.

    Raises:
        ConfigError: A non-finite dt or duration, a record outside
            MIN_SAMPLES..MAX_GRID_POINTS, or a dt that undersamples a fringe or exceeds t2_star.
    """
    if not (math.isfinite(duration) and math.isfinite(dt)):
        raise ConfigError(f"duration and dt must be finite, got {duration}, {dt}")
    if not 0 < dt <= model.t2_star:
        raise ConfigError(f"dt must be positive and at most t2_star {model.t2_star:.3e} s, got {dt}")
    if not duration / dt <= MAX_GRID_POINTS:
        raise ConfigError(f"record of {duration / dt:.3g} samples exceeds {MAX_GRID_POINTS}")
    n = int(round(duration / dt))
    if n < MIN_SAMPLES:
        raise ConfigError(f"record of {n} samples is too short (need {MIN_SAMPLES})")
    fmax = max((p.frequency for p in model.peaks), default=0.0)
    if fmax >= 0.5 / dt:
        raise ConfigError(
            f"dt {dt:.3e} s undersamples the {fmax:.3e} Hz fringe"
        )
    t = np.arange(n) * dt
    s = np.zeros(n)
    for peak in model.peaks:
        s += peak.amplitude * np.cos(2.0 * np.pi * peak.frequency * t)
    s *= np.exp(-((t / model.t2_star) ** 2))
    return t, s


def _record(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The record (t, s) as float arrays, checked: 1-D, at least MIN_SAMPLES
    long, of equal shapes, finite, and running forward in time."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if t.ndim != 1 or len(t) < MIN_SAMPLES:
        raise ConfigError(f"need a 1-D record of at least {MIN_SAMPLES} samples")
    if s.shape != t.shape:
        raise ConfigError("time and signal records must match")
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        raise ConfigError("time and signal records must be finite")
    if not (t[1:] > t[:-1]).all():
        raise ConfigError("time record must run forward")
    return t, s


def _rfft(a: np.ndarray, bins=slice(None)) -> np.ndarray:
    """The real FFT of the records in a's columns (axis 0), zero-padded
    FFT_PAD_FACTOR times, at bins, scaled by 2/N so that an unwindowed
    full-record cosine of unit amplitude lands near unit magnitude."""
    n = len(a)
    return np.fft.rfft(a, n=n * FFT_PAD_FACTOR, axis=0)[bins] * (2.0 / n)


def _frequencies(t: np.ndarray) -> np.ndarray:
    """_rfft's bin frequencies (Hz) for a checked time record, which must be
    uniform to STEP_TOLERANCE (else ConfigError)."""
    dt = t[1] - t[0]
    if not np.max(np.abs(np.diff(t) - dt)) <= STEP_TOLERANCE * dt:
        raise ConfigError("a spectrum needs a uniformly sampled record")
    return np.fft.rfftfreq(len(t) * FFT_PAD_FACTOR, dt)


def fft_spectrum(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (Hz) and complex amplitudes of the windowless real FFT of a
    uniform record, zero-padded FFT_PAD_FACTOR times and scaled by 2/N."""
    t, s = _record(t, s)
    return _frequencies(t), _rfft(s)


@dataclass(frozen=True)
class PolarizationEstimate:
    """A polarization read from the fitted lines, their amplitudes summed by
    nuclear origin.

    Attributes:
        p: Estimated nuclear polarization in [-1, 1].
        frequency_up: Fitted frequency of the dominant nuclear-up line (Hz).
        frequency_down: Fitted frequency of the dominant nuclear-down line (Hz).
        report: Underlying least-squares report.
    """

    p: float
    frequency_up: float
    frequency_down: float
    report: FitReport


def fit_spectrum(
    t: np.ndarray, s: np.ndarray, peaks: tuple[RamseyPeak, ...]
) -> PolarizationEstimate:
    """Fit every fringe line of peaks to the spectrum of the record (t, s).

    The model is fit_time_domain's, carried into the spectrum by
    fft_spectrum's transform. Only the bins within 0.35 x separation of
    either line of dominant_line_pair enter, their real and imaginary parts
    as separate rows. Lines, bounds, report layout and P are
    fit_time_domain's.

    Raises:
        ConfigError: A bad or non-uniform record, bad lines, or a window
            with fewer than 6 bins.
        FitConvergenceError: The fit spent its budget without converging.
    """
    t, s = _record(t, s)
    pair = np.array(dominant_line_pair(peaks))
    windows = np.abs(_frequencies(t)[:, None] - pair) <= 0.35 * abs(pair[1] - pair[0])
    if windows.sum(axis=0).min() < 6:
        raise ConfigError("fewer than 6 spectrum bins around a line; use a longer record")
    bins = windows.any(axis=1)

    def rows(a):
        z = _rfft(a, bins)
        return np.concatenate((z.real, z.imag))

    return _fit_lines(t, s, peaks, rows, "spectral fit")


# bench/layers.py traces the spectral fit by this name; it must stay the same
# object, since the tracer rebinds every module name bound to it.
fit_lorentzian_pair = fit_spectrum


def fit_time_domain(
    t: np.ndarray,
    s: np.ndarray,
    peaks: tuple[RamseyPeak, ...],
) -> PolarizationEstimate:
    """Fit every fringe line of peaks to the time record by variable projection.

    Each fitted line is a cosine and a sine column under one shared Gaussian
    envelope. At given line frequencies and T2* the columns' coefficients
    (c, d) are solved linearly, so the search covers only the frequencies,
    started at peaks', and T2*, started at T2_STAR, with Kaufman's Jacobian
    of the projected residual. A line's amplitude is hypot(c, d), and P sums
    the amplitudes of each nuclear origin (origin_up), up minus down.

    Lines of one origin closer than half the record's resolution,
    1/(2 N dt), cannot be told apart and are fitted as one line, started at
    the stronger one's frequency (the matched-field doublet). Each
    frequency stays within 0.4 x the distance to its nearest fitted line.
    report.params holds (c, d, f) for each fitted line in the order of
    peaks, then T2*; c and d have NaN uncertainty. frequency_up and
    frequency_down are the fitted frequencies of the lines started at
    dominant_line_pair's.

    Raises:
        ConfigError: A bad record or bad lines.
        FitConvergenceError: The fit spent its budget without converging.
    """
    return _fit_lines(*_record(t, s), peaks, lambda a: a, "time-domain fit")


def _fit_lines(t, s, peaks, rows, what: str) -> PolarizationEstimate:
    """fit_time_domain's fit of rows(s), for a checked record (t, s) and a
    linear row map rows that acts on each column of a record sampled at t
    (Golub & Pereyra's variable projection: the columns, and their
    derivatives, pass through rows before they are projected)."""
    data = rows(s)
    span = float(t[-1] - t[0])
    if not float(np.max(np.abs(data))) > 0:
        raise ConfigError(f"no signal for the {what}")
    frequencies = [peak.frequency for peak in peaks]
    if not all(0 < f < math.inf for f in frequencies):
        raise ConfigError("line frequencies must be positive and finite")
    if len(set(frequencies)) < len(frequencies):
        raise ConfigError("line frequencies must be distinct")
    f_up, f_down = dominant_line_pair(peaks)

    # The search runs in record units: frequencies in cycles per record span
    # and T2* in spans, so the step tolerance weighs both alike.
    tau = t / span
    merge = 0.5 * (len(t) - 1) / len(t)
    fitted: list[RamseyPeak] = []
    for peak in sorted(peaks, key=lambda q: -q.amplitude):
        if not any(
            q.origin_up == peak.origin_up and abs(q.frequency - peak.frequency) * span < merge
            for q in fitted
        ):
            fitted.append(peak)
    fitted.sort(key=peaks.index)
    n_lines = len(fitted)
    start = np.array([q.frequency for q in fitted]) * span
    gaps = np.abs(start[:, None] - start[None, :])
    np.fill_diagonal(gaps, np.inf)
    drift = 0.4 * gaps.min(axis=1)

    def project(x):
        """Time columns, their rows, the rows' Gram matrix and coefficients at
        frequencies and T2* x."""
        env = np.exp(-((tau / x[-1]) ** 2))[:, None]
        phase = np.outer(2.0 * np.pi * tau, x[:-1])
        phi = np.hstack((env * np.cos(phase), env * np.sin(phase)))
        a = rows(phi)
        gram = a.T @ a
        return phi, a, gram, solve(gram, a.T @ data)

    def model(x):
        _, a, _, coef = project(x)
        return a @ coef

    def jacobian(x):
        phi, a, gram, coef = project(x)
        cos, sin = phi[:, :n_lines], phi[:, n_lines:]
        c, d = coef[:n_lines], coef[n_lines:]
        dphi_c = np.column_stack(
            (2.0 * np.pi * tau[:, None] * (d * cos - c * sin), 2.0 * tau**2 / x[-1] ** 3 * (phi @ coef))
        )
        da_c = rows(dphi_c)
        return da_c - a @ solve(gram, a.T @ da_c)

    report = least_squares(
        FitProblem(
            model=model,
            data=data,
            init=np.append(start, T2_STAR / span),
            bounds=(*zip(start - drift, start + drift), (1.0 / len(t), 100.0 * T2_STAR / span)),
            budget=FIT_BUDGET,
            jacobian=jacobian,
        )
    )
    if not report.converged:
        raise FitConvergenceError(
            f"{what} used {report.n_evaluations} evaluations "
            f"without converging: {report.message}"
        )
    x, u = np.array(report.params), np.array(report.uncertainties)
    coef = project(x)[3]
    c, d, f = coef[:n_lines], coef[n_lines:], x[:-1] / span
    unsolved = np.full(n_lines, math.nan)
    report = replace(
        report,
        params=(*np.column_stack((c, d, f)).ravel().tolist(), float(x[-1] * span)),
        uncertainties=(
            *np.column_stack((unsolved, unsolved, u[:-1] / span)).ravel().tolist(),
            float(u[-1] * span),
        ),
    )
    amplitudes = np.hypot(c, d)
    up = float(sum(a for a, q in zip(amplitudes, fitted) if q.origin_up))
    down = float(sum(a for a, q in zip(amplitudes, fitted) if not q.origin_up))
    # The roles come from the guesses' order (see dominant_line_pair), not
    # from the frequencies, so the sign of P holds for either sign of A_zz.
    starts = [q.frequency for q in fitted]
    at_up, at_down = (float(f[starts.index(start)]) for start in (f_up, f_down))
    return PolarizationEstimate(polarization_of_populations(up, down), at_up, at_down, report)


def write_signal_csv(path, t: np.ndarray, s: np.ndarray) -> None:
    """Write a (time_ns, signal) fringe record, LF rows."""
    times = (np.asarray(t, dtype=float) * 1e9).tolist()
    rows = map("{!r},{!r}".format, times, np.asarray(s, dtype=float).tolist())
    write_rows(path, "time_ns,signal", rows, "\n")


def write_spectrum_csv(path, frequencies: np.ndarray, amplitudes: np.ndarray) -> None:
    """Write fft_spectrum's (frequencies, amplitudes) as (frequency_hz, magnitude), LF rows."""
    rows = map("{!r},{!r}".format, frequencies.tolist(), np.abs(amplitudes).tolist())
    write_rows(path, "frequency_hz,magnitude", rows, "\n")
