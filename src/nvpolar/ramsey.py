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
from .errors import ConfigError, FitConvergenceError, UndefinedPolarizationError
from .fitting import FitProblem, FitReport, least_squares, solve
from .operators import basis_index
from .params import SystemParams
from .polarization import POPULATION_FLOOR
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

#: Model evaluations and Jacobians of the line-pair and the time fit.
LINE_PAIR_BUDGET = 600
TIME_FIT_BUDGET = 900

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
        if up + down <= POPULATION_FLOOR:
            raise UndefinedPolarizationError("model carries no fringe weight")
        return (up - down) / (up + down)


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
    if up + down <= POPULATION_FLOOR:
        raise UndefinedPolarizationError(
            "no population in the probed m_s = 0 manifold"
        )
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

    The line-pair fit's guesses, in the order that fit keeps, so its first
    line is nuclear-up; the time fit reports the fitted frequencies of these
    two lines. Ties resolve to the first line listed.
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
            MIN_SAMPLES..MAX_GRID_POINTS, or a dt that undersamples a fringe.
    """
    if not (math.isfinite(duration) and math.isfinite(dt)):
        raise ConfigError(f"duration and dt must be finite, got {duration}, {dt}")
    if dt <= 0:
        raise ConfigError("dt must be positive")
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


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum of a real signal.

    Amplitudes are scaled by 2/N so an unwindowed full-record cosine of unit
    amplitude lands near unit magnitude at its bin.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


def fft_spectrum(signal: np.ndarray, dt: float) -> Spectrum:
    """Windowless real FFT of a fringe record, zero-padded FFT_PAD_FACTOR times."""
    s = np.asarray(signal, dtype=float)
    if s.ndim != 1 or len(s) < MIN_SAMPLES:
        raise ConfigError(f"need a 1-D record of at least {MIN_SAMPLES} samples")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    n_pad = len(s) * FFT_PAD_FACTOR
    amplitudes = np.fft.rfft(s, n=n_pad) * (2.0 / len(s))
    frequencies = np.fft.rfftfreq(n_pad, dt)
    return Spectrum(frequencies, amplitudes)


@dataclass(frozen=True)
class PolarizationEstimate:
    """A polarization recovered from a fitted line pair.

    Attributes:
        p: Estimated nuclear polarization in [-1, 1].
        frequency_up: Fitted frequency assigned to the nuclear-up line (Hz).
        frequency_down: Fitted frequency of the nuclear-down line (Hz).
        report: Underlying least-squares report.
    """

    p: float
    frequency_up: float
    frequency_down: float
    report: FitReport


def _estimate(
    lines: tuple[tuple[float, float], tuple[float, float]],
    report: FitReport,
    what: str,
) -> PolarizationEstimate:
    """Polarization from the fitted ((f_up, w_up), (f_down, w_down)) lines.

    The roles come from the guesses' order (see dominant_line_pair), not
    from the frequencies, so the sign of P holds for either sign of A_zz.
    """
    (f_up, w_up), (f_down, w_down) = lines
    total = w_up + w_down
    if total <= POPULATION_FLOOR:
        raise UndefinedPolarizationError(f"fitted {what} vanish")
    return PolarizationEstimate(
        float((w_up - w_down) / total), float(f_up), float(f_down), report
    )


def fit_lorentzian_pair(
    spectrum: Spectrum,
    center_guesses: tuple[float, float],
) -> PolarizationEstimate:
    """Fit both fringe lines as Lorentzians in one least-squares problem.

    The fit runs on the real part of the one-sided spectrum, which for a
    cosine record is the additive absorption shape. A flat baseline (the
    spectrum-wide median) is removed, and only a window around each guessed
    center enters, so neither line's tails can bias the other. The search
    covers the centers and widths; each height is solved by projection,
    h = max(0, b.v / b.b) for its window's values v and unit Lorentzian b,
    so its uncertainty in report.params (a1, f1, g1, a2, f2, g2) is NaN.
    The Jacobian is the exact derivative of that projected model.
    Each center stays within 0.3 x separation of its guess, so the lines
    cannot cross: pass the guesses as dominant_line_pair's (up, down), and
    P is the normalized area difference, line 1 minus line 2.

    Raises:
        FitConvergenceError: The fit spent its budget without converging.
    """
    c1, c2 = (float(c) for c in center_guesses)
    if c1 == c2:
        raise ConfigError("center guesses must be distinct")
    separation = abs(c2 - c1)
    baseline = float(np.median(np.real(spectrum.amplitudes)))
    width0 = max(4.0 * spectrum.bin_width, 0.05 * separation)

    windows = []
    for center in (c1, c2):
        mask = np.abs(spectrum.frequencies - center) <= 0.35 * separation
        if int(np.sum(mask)) < 6:
            raise ConfigError(
                "fewer than 6 spectrum points around a guessed line; "
                "use a longer record or more padding"
            )
        values = np.real(spectrum.amplitudes)[mask] - baseline
        if not np.any(values):
            raise ConfigError("spectrum carries no signal near a guessed line")
        windows.append((spectrum.frequencies[mask], values))
    freqs = np.concatenate([f for f, _ in windows])
    data = np.concatenate([values for _, values in windows])
    which = np.repeat([0, 1], [len(f) for f, _ in windows])  # window of each row
    rows = np.arange(len(data))

    def lines(x):
        """Each row's unit Lorentzian b, offset from its center and width, and
        each window's projected height, at centers and widths x."""
        u, g = freqs - x[0::2][which], x[1::2][which]
        b = g**2 / (u**2 + g**2)
        return b, u, g, np.maximum(0.0, np.bincount(which, b * data) / np.bincount(which, b * b))

    def model(x):
        b, _, _, h = lines(x)
        return h[which] * b

    def jacobian(x):
        """d(h b)/dθ = h db/dθ + b dh/dθ, with dh/dθ = (db.(v - h b) - h b.db) / b.b
        for h > 0 and zero for a clamped height."""
        b, u, g, h = lines(x)
        den = (u**2 + g**2) ** 2
        rest = data - h[which] * b
        jac = np.zeros((len(data), len(x)))
        for j, db in enumerate((2.0 * g**2 * u / den, 2.0 * g * u**2 / den)):
            dh = np.bincount(which, db * rest) - h * np.bincount(which, b * db)
            dh = np.where(h > 0, dh / np.bincount(which, b * b), 0.0)
            jac[rows, 2 * which + j] = h[which] * db + dh[which] * b
        return jac

    drift = 0.3 * separation
    widths = (spectrum.bin_width / 4.0, 1.5 * separation)
    report = least_squares(
        FitProblem(
            model=model,
            data=data,
            init=np.array([c1, width0, c2, width0]),
            bounds=((c1 - drift, c1 + drift), widths, (c2 - drift, c2 + drift), widths),
            budget=LINE_PAIR_BUDGET,
            jacobian=jacobian,
        )
    )
    if not report.converged:
        raise FitConvergenceError(
            f"line-pair fit near {c1:.3e} and {c2:.3e} Hz used "
            f"{report.n_evaluations} evaluations without converging: {report.message}"
        )
    f1, g1, f2, g2 = report.params
    a1, a2 = (float(h) for h in lines(np.array(report.params))[3])
    u_f1, u_g1, u_f2, u_g2 = report.uncertainties
    report = replace(
        report,
        params=(a1, f1, g1, a2, f2, g2),
        uncertainties=(math.nan, u_f1, u_g1, math.nan, u_f2, u_g2),
    )
    areas = ((f1, np.pi * a1 * g1), (f2, np.pi * a2 * g2))
    return _estimate(areas, report, "line areas")


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
        FitConvergenceError: The fit spent its budget without converging.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.shape != s.shape or t.ndim != 1 or len(t) < MIN_SAMPLES:
        raise ConfigError("need matching 1-D records of at least 8 samples")
    span = float(t[-1] - t[0])
    if not span > 0:
        raise ConfigError("time record must run forward")
    if not float(np.max(np.abs(s))) > 0:
        raise ConfigError("signal record is all zeros")
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
        """Columns, their Gram matrix and coefficients at frequencies and T2* x."""
        env = np.exp(-((tau / x[-1]) ** 2))[:, None]
        phase = np.outer(2.0 * np.pi * tau, x[:-1])
        phi = np.hstack((env * np.cos(phase), env * np.sin(phase)))
        gram = phi.T @ phi
        return phi, gram, solve(gram, phi.T @ s)

    def model(x):
        phi, _, coef = project(x)
        return phi @ coef

    def jacobian(x):
        phi, gram, coef = project(x)
        cos, sin = phi[:, :n_lines], phi[:, n_lines:]
        c, d = coef[:n_lines], coef[n_lines:]
        dphi_c = np.column_stack(
            (2.0 * np.pi * tau[:, None] * (d * cos - c * sin), 2.0 * tau**2 / x[-1] ** 3 * (phi @ coef))
        )
        return dphi_c - phi @ solve(gram, phi.T @ dphi_c)

    report = least_squares(
        FitProblem(
            model=model,
            data=s,
            init=np.append(start, T2_STAR / span),
            bounds=(*zip(start - drift, start + drift), (1.0 / len(t), 100.0 * T2_STAR / span)),
            budget=TIME_FIT_BUDGET,
            jacobian=jacobian,
        )
    )
    if not report.converged:
        raise FitConvergenceError(
            f"time-domain fit used {report.n_evaluations} evaluations "
            f"without converging: {report.message}"
        )
    x, u = np.array(report.params), np.array(report.uncertainties)
    coef = project(x)[2]
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
    starts = [q.frequency for q in fitted]
    return _estimate(
        ((f[starts.index(f_up)], up), (f[starts.index(f_down)], down)), report, "amplitudes"
    )


def write_signal_csv(path, t: np.ndarray, s: np.ndarray) -> None:
    """Write a (time_ns, signal) fringe record."""
    times = (np.asarray(t, dtype=float) * 1e9).tolist()
    _write_pairs(path, "time_ns,signal", times, np.asarray(s, dtype=float).tolist())


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    """Write a (frequency_hz, magnitude) spectrum."""
    _write_pairs(
        path,
        "frequency_hz,magnitude",
        spectrum.frequencies.tolist(),
        spectrum.magnitude.tolist(),
    )


def _write_pairs(path, header: str, xs: list[float], ys: list[float]) -> None:
    """Write a two-column CSV with LF line ends, formatted first, in one call."""
    lines = [header] + [f"{x!r},{y!r}" for x, y in zip(xs, ys)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
