import numpy as np
import pytest
from conftest import random_hermitian

from entopt.linalg import (
    NonHermitianError,
    _eigh,
    _svdvals,
    hermitian_eigen,
    require_hermitian,
)
from entopt.spin_model import IDENTITY_2, SIGMA_Z


def hermiticity_defect(m) -> float:
    """Largest absolute deviation of M from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


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


def test_require_hermitian_returns_the_exact_symmetrization():
    rng = np.random.default_rng(12)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = random_hermitian(rng, scale=scale) + 1e-14 * scale * noise
        assert np.array_equal(require_hermitian(m), (m + m.conj().T) / 2.0)
    real = rng.normal(size=(4, 4))
    real = real + real.T
    assert np.array_equal(require_hermitian(real), (real + real.T) / 2.0 + 0j)


@pytest.mark.parametrize(
    "entry", [complex(0.0, np.nan), complex(1.0, np.nan), np.inf, -np.inf, complex(0.0, np.inf)]
)
def test_require_hermitian_rejects_non_finite_entries(entry):
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    with pytest.raises(NonHermitianError) as info:
        require_hermitian(m)
    message = (
        "matrix has non-finite entries or entries that overflow M + M^dagger "
        f"(largest modulus {abs(entry):.3e})"
    )
    assert str(info.value) == message


@pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 2), (1, 4)])
def test_require_hermitian_rejects_non_square_shapes(shape):
    with pytest.raises(NonHermitianError) as info:
        require_hermitian(np.zeros(shape))
    assert str(info.value) == f"expected a square matrix, got shape {shape}"


def test_require_hermitian_tolerance_edge():
    # the largest entry is 3, so the tolerance on the defect is 3e-12
    m = np.diag([3.0, 1.0, -2.0, 0.5]).astype(complex)
    m[0, 1] = 1.01 * 3e-12
    assert hermiticity_defect(m) == 1.01 * 3e-12
    with pytest.raises(NonHermitianError) as info:
        require_hermitian(m)
    message = "matrix is not Hermitian: defect 3.030e-12 exceeds 1.0e-12 * 3.000e+00"
    assert str(info.value) == message
    m[0, 1] = 0.99 * 3e-12
    assert np.array_equal(require_hermitian(m), (m + m.conj().T) / 2.0)


def test_require_hermitian_rejects_entries_whose_symmetrization_overflows():
    # a finite 1.3e308+1.3e308j has |m| = inf, and a real 1e308 pair overflows
    # in m + m^dagger; both are rejected before the symmetrization
    for entry in (1.3e308 + 1.3e308j, 1e308):
        m = np.eye(4, dtype=complex)
        m[0, 1], m[1, 0] = entry, np.conj(entry)
        with pytest.raises(NonHermitianError, match="overflow"):
            require_hermitian(m)
    m = np.eye(4, dtype=complex)
    m[0, 1], m[1, 0] = 4e307, 4e307
    assert np.array_equal(require_hermitian(m), m)


def test_svdvals_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(13)
    matrices = [np.zeros((4, 4), dtype=complex), np.outer([1, 2j, 0, 1], [1, 1, 1j, 0])]
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        matrices.append(scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
    for m in matrices:
        assert np.array_equal(_svdvals(m), np.linalg.svd(m, compute_uv=False))
        values, vectors = _eigh(m)
        expected = np.linalg.eigh(m)
        assert np.array_equal(values, expected.eigenvalues)
        assert np.array_equal(vectors, expected.eigenvectors)
        assert np.array_equal(_eigh(m, vectors=False)[0], np.linalg.eigvalsh(m))


def test_lapack_seam_raises_on_failure():
    m = np.full((4, 4), np.nan, dtype=complex)
    with np.errstate(invalid="ignore"):
        for solve in (_eigh, lambda m: _eigh(m, vectors=False), _svdvals):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                solve(m)
