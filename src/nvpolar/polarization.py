"""Nuclear polarization readout from a density matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPolarizationError

#: Below this total m_s = 0 population the contrast is undefined.
POPULATION_FLOOR = 1e-12


@dataclass(frozen=True)
class PolarizationResult:
    """Population contrast of the two m_s = 0 readout states.

    Each field is a float for one state and an array for a stack of states.

    Attributes:
        p: (pop_up - pop_down) / (pop_up + pop_down), in [-1, 1].
        pop_up: Population of |0,up>.
        pop_down: Population of |0,down>.
    """

    p: float | np.ndarray
    pop_up: float | np.ndarray
    pop_down: float | np.ndarray


def polarization_of_state(rho: np.ndarray) -> PolarizationResult:
    """Polarization read from the m_s = 0 diagonal of a density matrix.

    rho is one state, (6, 6) or its (4, 4) driven block, or a stack of
    them, (n, 6, 6) or (n, 4, 4). Every state of a stack is read with the
    same arithmetic as a state on its own, so each value has the same bits.
    A state without m_s = 0 population raises as polarization_of_populations.
    """
    rho = np.asarray(rho)
    pop_up, pop_down = rho[..., 0, 0].real, rho[..., 1, 1].real
    p = polarization_of_populations(pop_up, pop_down)
    if rho.ndim == 2:
        return PolarizationResult(p=float(p), pop_up=float(pop_up), pop_down=float(pop_down))
    return PolarizationResult(p=p, pop_up=pop_up, pop_down=pop_down)


def polarization_of_populations(up, down):
    """The readout rule P = (up - down) / (up + down) of m_s = 0 populations,
    floats or arrays. A total at or below POPULATION_FLOOR is undefined: it
    raises UndefinedPolarizationError, whose message names the first one."""
    total = up + down
    below = np.asarray(total <= POPULATION_FLOOR)
    if below.any():
        low = float(np.asarray(total)[below].flat[0])
        raise UndefinedPolarizationError(
            f"total m_s = 0 population {low:.3e} is below {POPULATION_FLOOR:.0e}"
        )
    return (up - down) / total
