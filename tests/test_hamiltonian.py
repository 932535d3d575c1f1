"""Lab-frame and rotating-frame Hamiltonians."""

import numpy as np

from nvpolar.eigensystem import eigen_system
from nvpolar.hamiltonian import rotating_hamiltonian, static_hamiltonian
from nvpolar.params import SystemParams


def _random_params(rng) -> SystemParams:
    return SystemParams(
        b_z=float(rng.uniform(50.0, 900.0)),
        a_zz=float(rng.uniform(-1e6, 1e6)),
        a_ani=float(rng.uniform(0.0, 5e5)),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def test_static_hamiltonian_is_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = static_hamiltonian(_random_params(rng))
        assert np.allclose(h, h.conj().T, atol=1e-9)


def test_static_hamiltonian_is_block_diagonal_in_ms():
    """The secular form never couples different electron projections."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = static_hamiltonian(_random_params(rng))
        blocks = [(0, 1), (2, 3), (4, 5)]
        for a, rows in enumerate(blocks):
            for b, cols in enumerate(blocks):
                if a != b:
                    sub = h[np.ix_(rows, cols)]
                    assert np.max(np.abs(sub)) < 1e-12


def test_bare_levels_without_field_and_coupling():
    p = SystemParams(b_z=0.0, a_zz=0.0, a_ani=0.0)
    vals = np.linalg.eigvalsh(static_hamiltonian(p))
    assert np.allclose(vals, [0.0, 0.0, p.d, p.d, p.d, p.d], atol=1e-6)


def test_ms_zero_block_is_nuclear_zeeman_only():
    p = SystemParams(a_zz=-686.5546e3, a_ani=215.3535e3)
    h = static_hamiltonian(p)
    half = p.nuclear_zeeman / 2.0
    assert abs(h[0, 0] - half) < 1e-9
    assert abs(h[1, 1] + half) < 1e-9
    assert abs(h[0, 1]) < 1e-15  # transverse term vanishes with S_z


def test_eigenvalues_do_not_depend_on_phi():
    base = SystemParams(a_zz=-4e5, a_ani=2e5, phi=0.0)
    ref = np.linalg.eigvalsh(static_hamiltonian(base))
    for phi in (np.pi / 4.0, np.pi / 2.0, 1.2345):
        vals = np.linalg.eigvalsh(
            static_hamiltonian(SystemParams(a_zz=-4e5, a_ani=2e5, phi=phi))
        )
        assert np.allclose(vals, ref, rtol=1e-12, atol=1e-6)


def test_rotating_frame_drive_elements():
    """The rotating-wave drive couples only 0 <-> +1 with element omega/sqrt(2)."""
    p = SystemParams(a_zz=-686.5546e3, a_ani=215.3535e3)
    omega = 294.1176e3
    h = rotating_hamiltonian(p, 3e5, omega)
    expected = omega / np.sqrt(2.0)
    assert abs(h[0, 2] - expected) < 1e-9
    assert abs(h[1, 3] - expected) < 1e-9
    assert abs(h[0, 4]) < 1e-15 and abs(h[1, 5]) < 1e-15


def test_rotating_frame_driven_block_detuning():
    """With the drive off, the +1 block sits at -delta minus nuclear terms."""
    p = SystemParams(a_zz=-686.5546e3, a_ani=215.3535e3)
    delta = 2.5e5
    h = rotating_hamiltonian(p, delta, 0.0)
    lab = static_hamiltonian(p)
    shift = p.electron_carrier + delta
    assert np.allclose(h[2:4, 2:4], lab[2:4, 2:4] - shift * np.eye(2), atol=1e-6)
    # The undriven manifold keeps its lab energy untouched.
    assert np.allclose(h[4:6, 4:6], lab[4:6, 4:6], atol=1e-12)


def test_rotating_frame_preserves_intra_manifold_splittings():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = _random_params(rng)
        es = eigen_system(p)
        h = rotating_hamiltonian(p, float(rng.normal(0.0, 5e5)), 0.0)
        vals_p = np.linalg.eigvalsh(h[2:4, 2:4])
        vals_m = np.linalg.eigvalsh(h[4:6, 4:6])
        assert abs((vals_p[1] - vals_p[0]) - es.splitting_plus) < 1e-10 * max(
            1.0, abs(es.splitting_plus)
        )
        assert abs((vals_m[1] - vals_m[0]) - es.splitting_minus) < 1e-10 * max(
            1.0, abs(es.splitting_minus)
        )
