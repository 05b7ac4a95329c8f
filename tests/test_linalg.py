import numpy as np
import pytest
from conftest import random_hermitian

from entopt import linalg
from entopt.linalg import (
    NumericalFailure,
    _eigh,
    _svd,
    _svdvals,
    hermitian_eigen,
    require_hermitian,
)
from entopt.spin_model import IDENTITY_2, SIGMA_Z, canonicalize


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
    with pytest.raises(ValueError, match="defect"):
        hermitian_eigen(m)
    assert hermiticity_defect(m) == 1.0
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigen(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="4x4"):
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


def test_require_hermitian_returns_exact_input_itself():
    rng = np.random.default_rng(15)
    m = random_hermitian(rng)
    assert np.array_equal(m, m.conj().T)
    assert require_hermitian(m) is m
    # a real matrix is converted, so it comes back as a complex copy
    real = rng.normal(size=(4, 4))
    real = real + real.T
    out = require_hermitian(real)
    assert out is not real and out.dtype == complex
    assert np.array_equal(out, real)
    # -0.0 == +0.0: a diagonal with -0.0 imaginary parts is exact, and kept as given
    m = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
    m.imag[np.diag_indices(4)] = -0.0
    assert require_hermitian(m) is m
    assert np.signbit(m.diagonal().imag).all()


@pytest.mark.parametrize(
    "entry", [complex(0.0, np.nan), complex(1.0, np.nan), np.inf, -np.inf, complex(0.0, np.inf)]
)
def test_require_hermitian_rejects_non_finite_entries(entry):
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    with pytest.raises(ValueError) as info:
        require_hermitian(m)
    message = (
        "matrix has non-finite entries or entries that overflow M + M^dagger "
        f"(largest modulus {abs(entry):.3e})"
    )
    assert str(info.value) == message


@pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 2), (1, 4)])
def test_require_hermitian_rejects_non_square_shapes(shape):
    with pytest.raises(ValueError) as info:
        require_hermitian(np.zeros(shape))
    assert str(info.value) == f"expected a two-qubit (4x4) matrix, got shape {shape}"


def test_require_hermitian_tolerance_edge():
    # the largest entry is 3, so the tolerance on the defect is 3e-12
    m = np.diag([3.0, 1.0, -2.0, 0.5]).astype(complex)
    m[0, 1] = 1.01 * 3e-12
    assert hermiticity_defect(m) == 1.01 * 3e-12
    with pytest.raises(ValueError) as info:
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
        with pytest.raises(ValueError, match="overflow"):
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


def seeded_couplings(rng, n):
    """n real 3x3 couplings at scales 1e-8 to 1e8: generic, rank 2, rank 1, zero,
    with two or three equal singular values, and signed permutation matrices."""
    out = [np.zeros((3, 3)), np.eye(3), -np.eye(3), np.diag([1.0, 1.0, 0.0])]
    while len(out) < n:
        q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        a, b = rng.uniform(0.05, 1.0, size=2)
        kind = len(out) % 6
        if kind == 0:
            j = rng.normal(size=(3, 3))
        elif kind == 1:
            j = q1 @ np.diag([a, b, 0.0]) @ q2
        elif kind == 2:
            j = np.outer(rng.normal(size=3), rng.normal(size=3))
        elif kind == 3:
            j = q1 @ np.diag([a, b, b]) @ q2
        elif kind == 4:
            j = a * q1 @ q2
        else:
            j = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3) * [a, b, a]
        out.append(10.0 ** rng.uniform(-8.0, 8.0) * j)
    return out


def test_real_svd_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(16)
    for j in seeded_couplings(rng, 1200):
        u, s, vh = _svd(j)
        expected = np.linalg.svd(j)
        assert np.array_equal(u, expected.U)
        assert np.array_equal(s, expected.S)
        assert np.array_equal(vh, expected.Vh)


def test_lapack_seam_raises_on_failure(monkeypatch):
    m = np.full((4, 4), np.nan, dtype=complex)
    with np.errstate(invalid="ignore"):
        for solve in (_eigh, lambda m: _eigh(m, vectors=False), _svdvals):
            with pytest.raises(NumericalFailure, match="did not converge"):
                solve(m)
        with pytest.raises(NumericalFailure, match="dgesdd did not converge"):
            _svd(m.real)

    # canonicalize rejects non-finite couplings itself, so a failing dgesdd is
    # stood in for by one that returns NaN, as numpy's gufunc does on failure
    def failing_svd(j, signature):
        nan = np.full((3, 3), np.nan)
        return nan, nan[0], nan

    monkeypatch.setattr(linalg, "svd_f", failing_svd)
    with pytest.raises(NumericalFailure, match="dgesdd did not converge"):
        canonicalize(np.eye(3))
