import numpy as np
import pytest
from conftest import expm_taylor, random_hermitian

from entopt.linalg import hermitian_eigen
from entopt.spin_model import build_hamiltonian
from entopt.thermal import gibbs_state, purity


def ground_state(h, degeneracy_rtol=1e-9):
    """Zero-temperature limit: the maximally mixed state over the ground space."""
    values, vectors = hermitian_eigen(h)
    scale = max(1.0, float(np.max(np.abs(values))))
    mask = values - values[0] <= degeneracy_rtol * scale
    v = vectors[:, mask]
    rho = (v @ v.conj().T) / v.shape[1]
    return (rho + rho.conj().T) / 2.0


def is_density_matrix(rho, atol=1e-12):
    """Hermitian, unit trace, and positive semidefinite within tolerance."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        return False
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        return False
    values = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return bool(values[0] >= -atol)


def test_infinite_temperature_limit():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng)
    rho, _ = gibbs_state(h, 1e-12)
    assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-10


def test_ground_state_projector_at_large_beta():
    rho, _ = gibbs_state(np.diag([-1.0, 1.0, 1.0, 1.0]), 50.0)
    assert np.max(np.abs(rho - np.diag([1.0, 0.0, 0.0, 0.0]))) <= 1e-20


def test_gibbs_taylor_oracle():
    h = build_hamiltonian(np.diag([1 / 2, 1 / 3, 1 / 6]), (0, 0, 1.0), (0, 0, -1.0))
    rho, _ = gibbs_state(h, 1.0)
    reference = expm_taylor(-h)
    reference /= np.real(np.trace(reference))
    assert np.max(np.abs(rho - reference)) <= 1e-9


def test_gibbs_rejects_bad_beta():
    h = np.diag([0.0, 1.0, 2.0, 3.0])
    for beta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            gibbs_state(h, beta)


def test_gibbs_density_matrix_invariants_bulk():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        h = random_hermitian(rng, scale=rng.uniform(0.1, 5.0))
        beta = 10 ** rng.uniform(-3, 3)
        rho, z = gibbs_state(h, beta)
        assert z >= 1.0  # shifted convention: the ground level contributes 1
        assert is_density_matrix(rho, atol=1e-12)
        assert 0.25 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


def test_purity_examples():
    assert purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-15)
    assert purity(np.diag([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-15)


def test_purity_approaches_one_at_low_temperature():
    h = np.diag([-1.0, 0.5, 1.0, 2.0])
    rho, _ = gibbs_state(h, 1e3)
    assert purity(rho) >= 1.0 - 1e-12


def test_ground_state_degenerate_is_maximally_mixed_in_subspace():
    rho = ground_state(np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12)
    assert is_density_matrix(rho)


def test_ground_state_nondegenerate():
    rng = np.random.default_rng(41)
    h = random_hermitian(rng)
    rho = ground_state(h)
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)


def test_purity_matches_numpy_trace_bit_for_bit():
    rng = np.random.default_rng(47)
    for _ in range(1200):
        h = random_hermitian(rng, scale=rng.uniform(0.2, 2.0))
        rho, _ = gibbs_state(h, 10 ** rng.uniform(-2.0, 3.0))
        assert purity(rho) == float(np.real(np.trace(rho @ rho)))
