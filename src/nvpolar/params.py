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
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from .errors import ConfigError


def _number(name: str, value) -> float:
    """A finite number as a float, or ConfigError naming the field.

    A bool or a non-number is refused, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value}")
    return number


def _require_finite(params) -> None:
    """Replace every field by _number of it (a tuple field element-wise)."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, tuple):
            number = tuple(_number(f.name, v) for v in value)
        else:
            number = _number(f.name, value)
        object.__setattr__(params, f.name, number)


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
        if isinstance(self.gamma_d, str) or not isinstance(self.gamma_d, Iterable):
            raise ConfigError(f"gamma_d must be a list of numbers, got {self.gamma_d!r}")
        object.__setattr__(self, "gamma_d", tuple(self.gamma_d))
        _require_finite(self)
        if len(self.gamma_d) != 4:
            raise ConfigError(f"gamma_d needs exactly four rates, got {len(self.gamma_d)}")
        if self.gamma_gl < 0 or self.n_th < 0 or self.gamma_n_gl < 0:
            raise ConfigError("rates must be non-negative")
        if any(g < 0 for g in self.gamma_d):
            raise ConfigError("dephasing rates must be non-negative")
