"""Static system parameters and relaxation rates.

Unit conventions used throughout the package:

* energies and couplings are cyclic frequencies in Hz (the factor 2 pi is
  applied once, inside the evolution generator),
* gyromagnetic ratios are Hz per gauss, magnetic fields are gauss,
* decay and dephasing rates are linear rates in 1/s (no 2 pi),
* schedule durations are integer nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError


def _require_finite(params) -> None:
    """Raise ConfigError naming the first NaN or infinite field."""
    for f in fields(params):
        value = getattr(params, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the electron spin-1 / nuclear spin-1/2 pair.

    Attributes:
        d: Zero-field splitting of the electron spin (Hz).
        gamma_e: Electron gyromagnetic ratio (Hz/G).
        gamma_c: Nuclear gyromagnetic ratio (Hz/G).
        b_z: Static field along the symmetry axis (G).
        a_zz: Secular hyperfine component (Hz). May be negative; presets
            store the sign even where only magnitudes are quoted.
        a_ani: Anisotropic (transverse) hyperfine component (Hz), >= 0.
        phi: Azimuthal angle of the transverse hyperfine term (rad).
    """

    d: float = 2.87e9
    gamma_e: float = 2.8e6
    gamma_c: float = 1.07e3
    b_z: float = 520.0
    a_zz: float = 0.0
    a_ani: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.a_ani < 0:
            raise ConfigError(f"a_ani must be >= 0, got {self.a_ani}")
        if self.b_z < 0:
            raise ConfigError(f"b_z must be >= 0, got {self.b_z}")
        if self.gamma_e <= 0 or self.gamma_c <= 0:
            raise ConfigError("gyromagnetic ratios must be positive")
        # The generators scale these by 2 pi, which must not overflow either.
        for name in ("electron_carrier", "nuclear_zeeman"):
            if not math.isfinite(2.0 * math.pi * getattr(self, name)):
                raise ConfigError(f"{name} overflows: 2 pi x {getattr(self, name)}")

    @property
    def nuclear_zeeman(self) -> float:
        """Nuclear Zeeman splitting gamma_c * B_z (Hz)."""
        return self.gamma_c * self.b_z

    @property
    def electron_carrier(self) -> float:
        """Frequency of the bare m_s = 0 to +1 transition, D + gamma_e B_z (Hz)."""
        return self.d + self.gamma_e * self.b_z


def _four(values) -> tuple[float, float, float, float]:
    out = tuple(float(v) for v in values)
    if len(out) != 4:
        raise ConfigError(f"gamma_d needs exactly four rates, got {len(out)}")
    return out


@dataclass(frozen=True)
class RelaxationRates:
    """Linear rates (1/s) for the open-system channels.

    Attributes:
        gamma_gl: Optical pumping rate while the laser is on.
        n_th: Thermal occupation; scales the upward channel by n_th and the
            downward one by 1 + n_th. Zero suppresses upward channels entirely.
        gamma_d: Four dephasing rates, one per driven-block eigenstate
            (both m_s = 0 states, then lower and upper m_s = +1 eigenstates).
        gamma_n_gl: Nuclear cross-relaxation rate between the two m_s = 0
            states, applied in both directions.
    """

    gamma_gl: float = 8e6
    n_th: float = 0.0
    gamma_d: tuple[float, float, float, float] = field(
        default=(0.0, 0.0, 0.0, 0.0)
    )
    gamma_n_gl: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_d", _four(self.gamma_d))
        _require_finite(self)
        if self.gamma_gl < 0 or self.n_th < 0 or self.gamma_n_gl < 0:
            raise ConfigError("rates must be non-negative")
        if any(g < 0 for g in self.gamma_d):
            raise ConfigError("dephasing rates must be non-negative")
