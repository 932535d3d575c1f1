"""Secular Hamiltonians in the lab and rotating frames, plus dipolar geometry.

All matrix elements are cyclic frequencies in Hz. The secular lab-frame
Hamiltonian is

    H0 = D S_z^2 + gamma_e B_z S_z + gamma_c B_z I_z + A_zz S_z I_z
         + (A_ani / 2) S_z (I+ e^{-i phi} + I- e^{i phi})

which is block diagonal in m_s; the transverse hyperfine term mixes the two
nuclear states inside the m_s = +-1 manifolds only.
"""

from __future__ import annotations

import numpy as np
from scipy import constants

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


def dipolar_tensor(r_nm: np.ndarray, p: SystemParams) -> np.ndarray:
    """Point-dipole hyperfine tensor for a nucleus at displacement r (3x3, Hz).

    A_ij = -K (3 r_i r_j / r^2 - delta_ij) with
    K = mu0 h gamma_e gamma_c / (4 pi r^3) and the gyromagnetic ratios
    converted from Hz/G to Hz/T.

    Args:
        r_nm: Displacement vector in nm, NV axis along z.
        p: System parameters (supplies the gyromagnetic ratios).

    Raises:
        ValueError: If the displacement has zero length.
    """
    r = np.asarray(r_nm, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {r.shape}")
    norm = np.linalg.norm(r)
    if norm == 0.0:
        raise ValueError("displacement vector must have nonzero length")
    rhat = r / norm
    r_m = norm * 1e-9
    k = (
        constants.mu_0
        * constants.h
        * (p.gamma_e * 1e4)
        * (p.gamma_c * 1e4)
        / (4.0 * np.pi * r_m**3)
    )
    return -k * (3.0 * np.outer(rhat, rhat) - np.eye(3))


def hyperfine_from_geometry(
    r_nm: np.ndarray, p: SystemParams
) -> tuple[float, float, float]:
    """Secular hyperfine parameters (a_zz, a_ani, phi) from a lattice vector.

    a_zz is the zz tensor component, a_ani the magnitude of the (zx, zy)
    column and phi its azimuth. phi is returned as 0 when a_ani vanishes.
    """
    a = dipolar_tensor(r_nm, p)
    a_zz = a[2, 2]
    a_zx, a_zy = a[2, 0], a[2, 1]
    a_ani = float(np.hypot(a_zx, a_zy))
    phi = float(np.arctan2(a_zy, a_zx)) if a_ani > 0.0 else 0.0
    return float(a_zz), a_ani, phi
