"""Dense linear algebra for two-qubit operators: require_hermitian gates every 4x4 matrix argument."""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, eigvalsh_lo, svd, svd_f

# Relative defect up to which a matrix counts as Hermitian
HERMITICITY_RTOL = 1e-12
_SCALE_MAX = np.finfo(float).max / 2.0  # larger entries can overflow M + M^dagger


class NumericalFailure(RuntimeError):
    """A lost result: no bracket, no convergence, a LAPACK failure or an overflow."""


def _two_qubit(m) -> np.ndarray:
    """m itself, an array, checked to be 4x4."""
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit (4x4) matrix, got shape {m.shape}")
    return m


def require_hermitian(m) -> np.ndarray:
    """M made exactly Hermitian, (M + M^dagger)/2, after checking that it is a finite
    4x4 matrix, Hermitian within HERMITICITY_RTOL; ValueError otherwise.

    The result may be M itself: an exactly Hermitian complex M is returned as it is."""
    m = _two_qubit(np.asarray(m, dtype=complex))
    mh = m.conj().T
    # NaN or inf for a non-finite entry, and inf for a finite 1e308+1e308j
    scale = float(np.abs(m).max())
    if not scale <= _SCALE_MAX:
        raise ValueError(
            "matrix has non-finite entries or entries that overflow M + M^dagger "
            f"(largest modulus {scale:.3e})"
        )
    if not np.count_nonzero(m != mh):
        return m
    defect = float(np.abs(m - mh).max())
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return (m + mh) / 2.0


def _eigh(m, vectors: bool = True):
    """(values, vectors) of a matrix Hermitian by construction, values ascending.

    numpy's own zheevd gufuncs on the lower triangle, which numpy.linalg.eigh and
    eigvalsh call, without their per-call wrapper; vectors is None when
    vectors=False. A LAPACK failure comes back as NaN (and numpy's "invalid" flag).
    """
    if vectors:
        values, v = eigh_lo(m, signature="D->dD")
    else:
        values, v = eigvalsh_lo(m, signature="D->d"), None
    if math.isnan(values[0]):
        raise NumericalFailure("zheevd did not converge")
    return values, v


def _svdvals(m) -> np.ndarray:
    """Singular values of a complex matrix, descending, from numpy's zgesdd gufunc:
    the call numpy.linalg.svd(m, compute_uv=False) makes, without its wrapper."""
    s = svd(m, signature="D->d")
    if math.isnan(s[0]):
        raise NumericalFailure("zgesdd did not converge")
    return s


def _svd(m):
    """numpy.linalg.svd(m) of a real matrix: its dgesdd gufunc, without the wrapper."""
    u, s, vh = svd_f(m, signature="d->ddd")
    if math.isnan(s[0]):
        raise NumericalFailure("dgesdd did not converge")
    return u, s, vh


def hermitian_eigen(m):
    """Eigendecomposition of a two-qubit Hermitian matrix.

    Returns (values, vectors) with values ascending and vectors as orthonormal
    columns. A matrix that is not 4x4, finite and Hermitian is a ValueError.
    """
    return _eigh(require_hermitian(m))
