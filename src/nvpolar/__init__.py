"""Simulation and analysis of optically assisted nuclear spin polarization.

The package models a spin-1 electron coupled to one spin-1/2 nucleus, driven
by interleaved laser and microwave pulse schedules and relaxed through a
small set of Lindblad channels. On top of the propagator sit the standard
numerical experiments: detuning sweeps, cycle-by-cycle buildup, field and
coupling maps, fringe-based readout of the nuclear state, and a closed-loop
fit that recovers the hyperfine couplings from a polarization curve.
"""

from .errors import (
    ConfigError,
    FitConvergenceError,
    FitModelError,
    NumericalError,
    UndefinedPolarizationError,
)
from .params import RelaxationRates, SystemParams
from .operators import DIM, SpinOperators, basis_index, spin_operators
from .hamiltonian import rotating_hamiltonian, static_hamiltonian
from .eigensystem import EigenSystem, eigen_system, mixing_angles
from .schedule import PulseSegment, Schedule, chopped_laser_train
from .polarization import PolarizationResult, polarization_of_state
from .lindblad import (
    DRIVE_SCALE,
    SchedulePropagator,
    build_channels,
    initial_mixed_state,
    liouvillian,
    write_trajectory_csv,
)
from .presets import Preset, get_preset, preset_names
from .experiments import (
    SweepAxis,
    SweepResult,
    grid,
    max_trace,
    predicted_resonance,
    sequence_polarization,
    sweep_ani_detuning,
    sweep_detuning,
    sweep_field,
    sweep_field_ani,
    sweep_repetitions,
)
from .ramsey import (
    PolarizationEstimate,
    RamseyModel,
    RamseyPeak,
    Spectrum,
    analytic_peaks,
    dominant_line_pair,
    fft_spectrum,
    fit_lorentzian_pair,
    fit_time_domain,
    ramsey_model,
    synthesize_ramsey,
)
from .fitting import FitProblem, FitReport, fit_polarization_curve, least_squares

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FitConvergenceError",
    "FitModelError",
    "NumericalError",
    "UndefinedPolarizationError",
    "RelaxationRates",
    "SystemParams",
    "DIM",
    "SpinOperators",
    "basis_index",
    "spin_operators",
    "rotating_hamiltonian",
    "static_hamiltonian",
    "EigenSystem",
    "eigen_system",
    "mixing_angles",
    "PulseSegment",
    "Schedule",
    "chopped_laser_train",
    "PolarizationResult",
    "polarization_of_state",
    "DRIVE_SCALE",
    "SchedulePropagator",
    "build_channels",
    "initial_mixed_state",
    "liouvillian",
    "write_trajectory_csv",
    "Preset",
    "get_preset",
    "preset_names",
    "SweepAxis",
    "SweepResult",
    "grid",
    "max_trace",
    "predicted_resonance",
    "sequence_polarization",
    "sweep_ani_detuning",
    "sweep_detuning",
    "sweep_field",
    "sweep_field_ani",
    "sweep_repetitions",
    "PolarizationEstimate",
    "RamseyModel",
    "RamseyPeak",
    "Spectrum",
    "analytic_peaks",
    "dominant_line_pair",
    "fft_spectrum",
    "fit_lorentzian_pair",
    "fit_time_domain",
    "ramsey_model",
    "synthesize_ramsey",
    "FitProblem",
    "FitReport",
    "fit_polarization_curve",
    "least_squares",
    "__version__",
]
