"""Spin operators on the six-level product space.

Basis order is fixed everywhere in the package:

    |0,up>, |0,down>, |+1,up>, |+1,down>, |-1,up>, |-1,down>

i.e. electron levels ordered (0, +1, -1) tensored with the nuclear spin-1/2
(up, down). The nuclear I_z has eigenvalues +-1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DIM = 6

# Electron level order within the 3-dimensional factor.
ELECTRON_ORDER = (0, +1, -1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpinOperators:
    """Composite operators on the 6-dimensional space (read-only arrays)."""

    s_z: np.ndarray
    s_x: np.ndarray
    s_z2: np.ndarray
    i_z: np.ndarray
    i_plus: np.ndarray
    i_minus: np.ndarray
    p_zero: np.ndarray
    p_plus1: np.ndarray
    p_minus1: np.ndarray
    #: 0 <-> +1 half of S_x; the static part of the drive in the rotating frame.
    s_x_driven: np.ndarray


@lru_cache(maxsize=1)
def spin_operators() -> SpinOperators:
    """Build the shared operator set once.

    Electron operators are written directly in the (0, +1, -1) level order;
    S_x couples |0> to both |+1> and |-1> with element 1/sqrt(2).
    """
    sq2 = 1.0 / np.sqrt(2.0)
    ez = np.diag([0.0, 1.0, -1.0])
    ex = np.array([[0, sq2, sq2], [sq2, 0, 0], [sq2, 0, 0]])
    ex_driven = np.array([[0, sq2, 0], [sq2, 0, 0], [0, 0, 0]])
    e0 = np.diag([1.0, 0.0, 0.0])
    ep = np.diag([0.0, 1.0, 0.0])
    em = np.diag([0.0, 0.0, 1.0])

    nz = np.diag([0.5, -0.5])
    nplus = np.array([[0.0, 1.0], [0.0, 0.0]])
    nminus = nplus.T.copy()
    n1 = np.eye(2)
    e1 = np.eye(3)

    kron = np.kron
    return SpinOperators(
        s_z=_frozen(kron(ez, n1).astype(complex)),
        s_x=_frozen(kron(ex, n1).astype(complex)),
        s_z2=_frozen(kron(ez @ ez, n1).astype(complex)),
        i_z=_frozen(kron(e1, nz).astype(complex)),
        i_plus=_frozen(kron(e1, nplus).astype(complex)),
        i_minus=_frozen(kron(e1, nminus).astype(complex)),
        p_zero=_frozen(kron(e0, n1).astype(complex)),
        p_plus1=_frozen(kron(ep, n1).astype(complex)),
        p_minus1=_frozen(kron(em, n1).astype(complex)),
        s_x_driven=_frozen(kron(ex_driven, n1).astype(complex)),
    )


def basis_index(electron: int, nuclear_up: bool) -> int:
    """Index of the product state |electron, nuclear> in the fixed basis."""
    block = ELECTRON_ORDER.index(electron)
    return 2 * block + (0 if nuclear_up else 1)
