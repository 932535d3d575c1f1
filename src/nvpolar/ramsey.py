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
from dataclasses import dataclass

import numpy as np

from .eigensystem import eigen_system
from .errors import ConfigError, FitConvergenceError, UndefinedPolarizationError
from .experiments import MAX_GRID_POINTS
from .fitting import FitProblem, FitReport, least_squares
from .operators import basis_index
from .params import SystemParams
from .polarization import POPULATION_FLOOR

#: Default carrier offset from the bare electron transition (Hz). Large
#: against the hyperfine structure so every fringe frequency stays positive.
PROBE_DETUNING = 5e6

#: Default Gaussian dephasing time of the electron superposition (s).
T2_STAR = 2e-6

#: Default zero-padding multiple for spectra.
FFT_PAD_FACTOR = 4

#: Minimum record length for a meaningful spectrum.
MIN_SAMPLES = 8

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
        if up + down < POPULATION_FLOOR:
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
            if frequency <= 0:
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
    rho: np.ndarray | None = None,
    populations: tuple[float, float] | None = None,
    probe_detuning: float = PROBE_DETUNING,
    t2_star: float = T2_STAR,
) -> RamseyModel:
    """Build the fringe model for a given nuclear state.

    Exactly one of ``rho`` or ``populations`` ((up, down), summing to at most
    one) selects the nuclear weights. ``rho`` is the full 6x6 density matrix
    or its 4x4 driven block (CycleEngine.states); either way its first two
    diagonal entries are the m_s = 0 populations.
    """
    if (rho is None) == (populations is None):
        raise ConfigError("pass exactly one of rho or populations")
    if rho is not None:
        up = float(np.real(rho[0, 0]))
        down = float(np.real(rho[1, 1]))
    else:
        up, down = (float(v) for v in populations)
    if up < -POPULATION_FLOOR or down < -POPULATION_FLOOR:
        raise ConfigError(f"populations must be non-negative, got ({up}, {down})")
    up, down = max(up, 0.0), max(down, 0.0)
    if up + down > 1.0 + 1e-9:
        raise ConfigError(f"populations sum to {up + down}, above 1")
    if up + down < POPULATION_FLOOR:
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
    """Frequencies of the strongest up-origin and down-origin lines.

    Useful as fit guesses; ties resolve to the first line listed.
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


def fft_spectrum(
    signal: np.ndarray, dt: float, pad_factor: int = FFT_PAD_FACTOR
) -> Spectrum:
    """Windowless zero-padded real FFT of a fringe record."""
    s = np.asarray(signal, dtype=float)
    if s.ndim != 1 or len(s) < MIN_SAMPLES:
        raise ConfigError(f"need a 1-D record of at least {MIN_SAMPLES} samples")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if pad_factor < 1:
        raise ConfigError("pad_factor must be at least 1")
    n_pad = len(s) * int(pad_factor)
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
    manifold: int,
    lines: tuple[tuple[float, float], tuple[float, float]],
    report: FitReport,
    what: str,
) -> PolarizationEstimate:
    """Polarization from two fitted (frequency, weight) lines.

    In the m_s = -1 manifold the nuclear-up line sits above the down line;
    in m_s = +1 the order flips because the hyperfine shift enters with the
    opposite sign relative to the nuclear Zeeman term.
    """
    lo, hi = sorted(lines, key=lambda fv: fv[0])
    (f_up, w_up), (f_down, w_down) = (hi, lo) if manifold == -1 else (lo, hi)
    total = w_up + w_down
    if total < POPULATION_FLOOR:
        raise UndefinedPolarizationError(f"fitted {what} vanish")
    return PolarizationEstimate(
        p=float((w_up - w_down) / total),
        frequency_up=float(f_up),
        frequency_down=float(f_down),
        report=report,
    )


def fit_lorentzian_pair(
    spectrum: Spectrum,
    center_guesses: tuple[float, float],
    *,
    manifold: int,
    budget: int = 600,
) -> PolarizationEstimate:
    """Fit a Lorentzian to each fringe line and read off polarization.

    The fit runs on the real part of the one-sided spectrum, which for a
    cosine record is the additive absorption shape. A flat baseline (the
    spectrum-wide median) is removed, then each line is fitted in its own
    window around the guessed center, so neither line's tails can bias the
    other. The polarization is the normalized area difference of the two
    lines, assigned to nuclear orientations by the manifold's ordering
    rule; each center is confined near its guess so the lines cannot swap.

    Raises:
        FitConvergenceError: Either line fit spent its half of the budget
            without converging.
    """
    if manifold not in _MANIFOLDS:
        raise ConfigError(f"manifold must be +1 or -1, got {manifold}")
    c1, c2 = (float(c) for c in center_guesses)
    if c1 == c2:
        raise ConfigError("center guesses must be distinct")
    separation = abs(c2 - c1)
    baseline = float(np.median(np.real(spectrum.amplitudes)))
    width0 = max(4.0 * spectrum.bin_width, 0.05 * separation)

    params: list[float] = []
    cost = 0.0
    evaluations = 0
    messages: list[str] = []
    for center in (c1, c2):
        mask = np.abs(spectrum.frequencies - center) <= 0.35 * separation
        if int(np.sum(mask)) < 6:
            raise ConfigError(
                "fewer than 6 spectrum points around a guessed line; "
                "use a longer record or more padding"
            )
        freqs = spectrum.frequencies[mask]
        values = np.real(spectrum.amplitudes)[mask] - baseline
        peak_scale = float(np.max(np.abs(values)))
        if peak_scale <= 0:
            raise ConfigError("spectrum carries no signal near a guessed line")

        def model(x: np.ndarray) -> np.ndarray:
            a, f0, g = x
            return a * g**2 / ((freqs - f0) ** 2 + g**2)

        height = max(_height_near(spectrum, center) - baseline, 0.0)
        drift = 0.3 * separation
        report = least_squares(
            FitProblem(
                model=model,
                data=values,
                init=np.array([height, center, width0]),
                bounds=(
                    (0.0, 4.0 * peak_scale),
                    (center - drift, center + drift),
                    (spectrum.bin_width / 4.0, 1.5 * separation),
                ),
                budget=budget // 2,
            )
        )
        if not report.converged:
            raise FitConvergenceError(
                f"line fit near {center:.3e} Hz used {report.n_evaluations} "
                f"evaluations without converging: {report.message}"
            )
        params.extend(report.params)
        cost += report.residual_norm**2
        evaluations += report.n_evaluations
        messages.append(report.message)
    report = FitReport(
        params=tuple(params),
        residual_norm=float(np.sqrt(cost)),
        n_evaluations=evaluations,
        converged=True,
        uncertainties=tuple(float("nan") for _ in params),
        message="; ".join(messages),
    )
    a1, f1, g1, a2, f2, g2 = report.params
    lines = ((f1, np.pi * a1 * g1), (f2, np.pi * a2 * g2))
    return _estimate(manifold, lines, report, "line areas")


def _height_near(spectrum: Spectrum, frequency: float) -> float:
    idx = int(np.argmin(np.abs(spectrum.frequencies - frequency)))
    lo, hi = max(idx - 2, 0), idx + 3
    return float(np.max(np.real(spectrum.amplitudes)[lo:hi]))


def fit_time_domain(
    t: np.ndarray,
    s: np.ndarray,
    freq_guesses: tuple[float, float],
    *,
    manifold: int,
    budget: int = 900,
) -> PolarizationEstimate:
    """Fit a two-tone damped cosine directly to the time record.

    The model is two cosines with free amplitude, frequency, and phase under
    one shared Gaussian envelope with a free decay time, started at T2_STAR.
    Polarization is the normalized amplitude difference with the same
    line-ordering rule as the spectral fit.

    Raises:
        FitConvergenceError: The fit spent its budget without converging.
    """
    if manifold not in _MANIFOLDS:
        raise ConfigError(f"manifold must be +1 or -1, got {manifold}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.shape != s.shape or t.ndim != 1 or len(t) < MIN_SAMPLES:
        raise ConfigError("need matching 1-D records of at least 8 samples")
    f1, f2 = (float(f) for f in freq_guesses)
    if f1 == f2:
        raise ConfigError("frequency guesses must be distinct")
    separation = abs(f2 - f1)
    scale = float(np.max(np.abs(s)))
    if scale <= 0:
        raise ConfigError("signal record is all zeros")

    def model(x: np.ndarray) -> np.ndarray:
        a1, fa, p1, a2, fb, p2, t2 = x
        env = np.exp(-((t / t2) ** 2))
        return env * (
            a1 * np.cos(2.0 * np.pi * fa * t + p1)
            + a2 * np.cos(2.0 * np.pi * fb * t + p2)
        )

    init = np.array([scale / 2.0, f1, 0.0, scale / 2.0, f2, 0.0, T2_STAR])
    drift = 0.4 * separation
    span = float(t[-1] - t[0]) if len(t) > 1 else T2_STAR
    bounds = (
        (0.0, 4.0 * scale),
        (f1 - drift, f1 + drift),
        (-np.pi, np.pi),
        (0.0, 4.0 * scale),
        (f2 - drift, f2 + drift),
        (-np.pi, np.pi),
        (span / len(t), 100.0 * T2_STAR),
    )
    report = least_squares(
        FitProblem(model=model, data=s, init=init, bounds=bounds, budget=budget)
    )
    if not report.converged:
        raise FitConvergenceError(
            f"time-domain fit used {report.n_evaluations} evaluations "
            f"without converging: {report.message}"
        )
    a1, fa, _, a2, fb, _, _ = report.params
    return _estimate(manifold, ((fa, a1), (fb, a2)), report, "amplitudes")


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
