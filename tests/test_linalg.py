import numpy as np
import pytest
from conftest import random_hermitian

from entopt.linalg import (
    NonHermitianError,
    hermitian_eigen,
    hermiticity_defect,
)
from entopt.spin_model import IDENTITY_2, SIGMA_Z


def test_eigen_sigma_z_tensor_identity():
    values, vectors = hermitian_eigen(np.kron(SIGMA_Z, IDENTITY_2))
    assert np.allclose(values, [-1, -1, 1, 1])
    assert np.allclose(vectors.conj().T @ vectors, np.eye(4), atol=1e-12)


def test_eigen_zero_matrix():
    values, _ = hermitian_eigen(np.zeros((4, 4)))
    assert np.allclose(values, 0.0)


def test_eigen_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NonHermitianError, match="defect"):
        hermitian_eigen(m)
    assert hermiticity_defect(m) == 1.0
    with pytest.raises(NonHermitianError, match="non-finite"):
        hermitian_eigen(np.full((4, 4), np.nan))
    with pytest.raises(NonHermitianError, match="square"):
        hermitian_eigen(np.zeros((4, 3)))


def test_eigen_reconstruction_bulk():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = random_hermitian(rng, scale=rng.uniform(0.1, 10.0))
        values, vectors = hermitian_eigen(m)
        rebuilt = (vectors * values) @ vectors.conj().T
        scale = np.max(np.abs(m))
        assert np.max(np.abs(rebuilt - m)) <= 1e-10 * scale
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) <= 1e-10
