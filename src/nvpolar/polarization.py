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

    Raises:
        UndefinedPolarizationError: If both readout populations of a state
            are below the floor (no m_s = 0 population to read out); the
            message names the first such state's total.
    """
    rho = np.asarray(rho)
    pop_up = rho[..., 0, 0].real
    pop_down = rho[..., 1, 1].real
    total = pop_up + pop_down
    below = total <= POPULATION_FLOOR
    if below.any():
        low = float(total[below].flat[0])
        raise UndefinedPolarizationError(
            f"total m_s = 0 population {low:.3e} is below {POPULATION_FLOOR:.0e}"
        )
    p = (pop_up - pop_down) / total
    if rho.ndim == 2:
        return PolarizationResult(p=float(p), pop_up=float(pop_up), pop_down=float(pop_down))
    return PolarizationResult(p=p, pop_up=pop_up, pop_down=pop_down)
