"""Secular Hamiltonians in the lab and rotating frames.

All matrix elements are cyclic frequencies in Hz. The secular lab-frame
Hamiltonian is

    H0 = D S_z^2 + gamma_e B_z S_z + gamma_c B_z I_z + A_zz S_z I_z
         + (A_ani / 2) S_z (I+ e^{-i phi} + I- e^{i phi})

which is block diagonal in m_s; the transverse hyperfine term mixes the two
nuclear states inside the m_s = +-1 manifolds only.
"""

from __future__ import annotations

import numpy as np

from .operators import spin_operators
from .params import SystemParams


def static_hamiltonian(p: SystemParams) -> np.ndarray:
    """Lab-frame secular Hamiltonian (6x6, Hz)."""
    ops = spin_operators()
    transverse = 0.5 * p.a_ani * (
        ops.i_plus * np.exp(-1j * p.phi) + ops.i_minus * np.exp(1j * p.phi)
    )
    h = (
        p.d * ops.s_z2
        + p.gamma_e * p.b_z * ops.s_z
        + p.gamma_c * p.b_z * ops.i_z
        + p.a_zz * (ops.s_z @ ops.i_z)
        + ops.s_z @ transverse
    )
    return h


def rotating_hamiltonian(p: SystemParams, delta: float, omega: float) -> np.ndarray:
    """Hamiltonian in the frame rotating with the drive (6x6, Hz).

    The drive carrier D + gamma_e B_z + delta is removed from the driven
    m_s = +1 manifold, which then appears at detuning -delta while the
    m_s = 0 block keeps only its nuclear Zeeman term. The undriven m_s = -1
    manifold keeps its far-detuned lab energy. In this frame the 0 <-> -1 half
    of the drive has no static component, so the rotating-wave drive keeps
    only the 0 <-> +1 part of S_x (off-diagonal elements omega / sqrt(2)).

    Args:
        p: System parameters.
        delta: Drive detuning from the bare 0 <-> +1 transition (Hz).
        omega: Rabi amplitude multiplying S_x (Hz).
    """
    ops = spin_operators()
    h = static_hamiltonian(p) - (p.electron_carrier + delta) * ops.p_plus1
    if omega != 0.0:
        h = h + omega * ops.s_x_driven
    return h

