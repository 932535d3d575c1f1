"""Bundled parameter sets for the standard simulation campaigns.

Each preset carries a complete run configuration: the physical constants,
relaxation rates, and the schedule parameters (chop train, microwave pulse
length, Rabi frequency, cycle count). Fields that a campaign sweeps keep
their fitted-coupling defaults and are listed in ``swept``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .params import RelaxationRates, SystemParams, _number
from .schedule import Schedule, PulseSegment, chopped_laser_train

#: Hyperfine couplings recovered by the detuning-curve fit (Hz). The axial
#: component is negative so that a_zz + gamma_c * b_z ~ 0 at 520 G, which is
#: the near-matched regime the polarization scheme relies on.
FIT_A_ZZ = -686.5546e3
FIT_A_ANI = 215.3535e3

#: Most points one grid axis may hold, and most cycles one sequence may run.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class Preset:
    """One named simulation campaign: system, rates, and schedule defaults.

    Attributes:
        name: Registry key.
        description: One-line summary of what the campaign sweeps.
        system: Physical constants and couplings.
        rates: Relaxation rates.
        omega: Microwave Rabi (flop) frequency of the driven transition (Hz).
        t_mw_ns: Microwave pulse duration per cycle (ns).
        n_cycles: Polarization cycles per sequence.
        t_gl_ns: Nominal laser time from the coefficient table (ns). Recorded
            for fidelity only; the simulated illumination is the chop train.
        chop_on_ns / chop_off_ns / chop_reps: Chopped-laser-train shape.
        rest_ns: Dead time after the train and after the microwave pulse (ns).
        swept: Names of fields this campaign varies (kept at defaults here).
    """

    name: str
    description: str
    system: SystemParams
    rates: RelaxationRates
    omega: float
    t_mw_ns: int
    n_cycles: int
    t_gl_ns: int = 300
    chop_on_ns: int = 30
    chop_off_ns: int = 60
    chop_reps: int = 17
    rest_ns: int = 100
    swept: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _number("omega", self.omega))
        for f in dataclasses.fields(self):
            if f.type == "int":
                object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name)))
        if self.omega < 0:
            raise ConfigError(f"omega must be >= 0, got {self.omega}")
        if self.chop_reps > 0 and self.chop_on_ns <= 0:
            raise ConfigError("on_ns must be > 0")

    def cycles(self, n_cycles: int | None = None) -> int:
        """n_cycles, or the preset's count if None, checked to lie in 0..MAX_GRID_POINTS."""
        n = _integer("n_cycles", self.n_cycles if n_cycles is None else n_cycles)
        if n > MAX_GRID_POINTS:
            raise ConfigError(f"{n} cycles exceed {MAX_GRID_POINTS}")
        return n

    def schedule(self, delta: float, *, n_cycles: int | None = None) -> Schedule:
        """The polarization sequence at drive detuning delta.

        Each of the n_cycles cycles is the readout tail (chop train, rest)
        followed by one microwave pulse of t_mw_ns at (delta, omega) and
        another rest.
        """
        n = self.cycles(n_cycles)
        pulse = PulseSegment(self.t_mw_ns, mw_on=True, mw_delta=delta, mw_rabi=self.omega)
        return (*self.readout_tail(), pulse, PulseSegment(self.rest_ns)) * n

    def readout_tail(self) -> Schedule:
        """Terminal relaxation train placed before reading the populations.

        Appending this makes the sequence segment-for-segment identical to
        running the cycle microwave-first, so the readout populations are
        taken with the electron relaxed back to m_s = 0 and the reported P
        equals the conserved nuclear polarization of the final state.
        """
        train = chopped_laser_train(self.chop_on_ns, self.chop_off_ns, self.chop_reps)
        return (*train, PulseSegment(self.rest_ns))

    def with_system(self, **changes) -> "Preset":
        """Copy of this preset with SystemParams fields replaced."""
        return dataclasses.replace(self, system=dataclasses.replace(self.system, **changes))

    def to_dict(self) -> dict:
        """JSON-ready description (used by sweep metadata), omega as omega_hz."""
        doc = {**vars(self), "system": dict(vars(self.system)), "rates": dict(vars(self.rates))}
        doc["omega_hz"] = doc.pop("omega")
        return doc


def _integer(name: str, value) -> int:
    """An int, or an integral float as an int, that is >= 0; else ConfigError.

    A fraction is refused rather than truncated, and so are a bool and a
    non-number.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return value


def _base_system(a_zz: float, a_ani: float) -> SystemParams:
    return SystemParams(b_z=520.0, a_zz=a_zz, a_ani=a_ani)


_PRESETS: dict[str, Preset] = {}


def _register(preset: Preset) -> Preset:
    _PRESETS[preset.name] = preset
    return preset


TABLE_A1_FIT = _register(
    Preset(
        name="table-a1-fit",
        description="polarization vs microwave detuning (fit parameters)",
        system=_base_system(FIT_A_ZZ, FIT_A_ANI),
        rates=RelaxationRates(),
        omega=294.1176e3,
        t_mw_ns=1700,
        n_cycles=6,
        swept=("delta",),
    )
)

# The cycle-count and field campaigns share the fit campaign's physics.
TABLE_A1_N = _register(
    dataclasses.replace(
        TABLE_A1_FIT,
        name="table-a1-n",
        description="polarization vs cycle count at fixed detuning",
        swept=("n_cycles",),
    )
)

TABLE_A1_FIELD = _register(
    dataclasses.replace(
        TABLE_A1_FIT,
        name="table-a1-field",
        description="maximum polarization vs axial magnetic field",
        swept=("b_z",),
    )
)

TABLE_A1_FIG4 = _register(
    Preset(
        name="table-a1-fig4",
        description="polarization vs transverse coupling and detuning",
        system=_base_system(-625.0e3, FIT_A_ANI),
        rates=RelaxationRates(),
        omega=25.0e3,
        t_mw_ns=20000,
        n_cycles=10,
        swept=("a_ani", "delta"),
    )
)


def preset_names() -> tuple[str, ...]:
    """Registered preset names in registration order."""
    return tuple(_PRESETS)


def get_preset(name: str) -> Preset:
    """Look up a preset by name.

    Raises:
        ConfigError: Unknown name (the message lists the known ones).
    """
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(_PRESETS)
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None


def format_presets() -> str:
    """Human-readable table of every preset (one row per coefficient)."""
    names = preset_names()
    presets = [get_preset(n) for n in names]

    scale = {"kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

    def fmt(value: float, unit: str) -> str:
        return f"{value / scale[unit]:g} {unit}"

    rows: list[tuple[str, list[str]]] = [
        ("t_gl", [f"{p.t_gl_ns} ns (train {p.chop_on_ns}/{p.chop_off_ns} x{p.chop_reps})" for p in presets]),
        ("t_mw", [f"{p.t_mw_ns / 1e3:g} us" for p in presets]),
        ("Omega", [fmt(p.omega, "kHz") for p in presets]),
        ("Gamma_gl", [fmt(p.rates.gamma_gl, "MHz") for p in presets]),
        ("D", [fmt(p.system.d, "GHz") for p in presets]),
        ("gamma_e", [f"{p.system.gamma_e / 1e6:g} MHz/G" for p in presets]),
        ("gamma_c", [f"{p.system.gamma_c / 1e3:g} kHz/G" for p in presets]),
        ("Gamma_d", [",".join(f"{g:g}" for g in p.rates.gamma_d) for p in presets]),
        ("Gamma_n_gl", [f"{p.rates.gamma_n_gl:g}" for p in presets]),
        ("n_th", [f"{p.rates.n_th:g}" for p in presets]),
        ("A_zz", ["(swept)" if "a_zz" in p.swept else fmt(p.system.a_zz, "kHz") for p in presets]),
        ("A_ani", ["(swept)" if "a_ani" in p.swept else fmt(p.system.a_ani, "kHz") for p in presets]),
        ("B_z", ["(swept)" if "b_z" in p.swept else f"{p.system.b_z:g} G" for p in presets]),
        ("N", ["(swept)" if "n_cycles" in p.swept else str(p.n_cycles) for p in presets]),
    ]
    widths = [max(len(label) for label, _ in rows)] + [
        max(len(name), max(len(vals[i]) for _, vals in rows)) for i, name in enumerate(names)
    ]
    lines = ["  ".join(s.ljust(w) for s, w in zip(("",) + names, widths)).rstrip()]
    for label, vals in rows:
        lines.append("  ".join(s.ljust(w) for s, w in zip([label] + vals, widths)).rstrip())
    lines.append("")
    lines.append("A_zz signs are negative so that A_zz + gamma_c*B_z ~ 0 at 520 G.")
    lines.append("t_gl is the nominal laser time; the simulation uses the chop train.")
    return "\n".join(lines)
