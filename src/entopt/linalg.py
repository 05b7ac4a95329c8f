"""Dense linear algebra for 4x4 Hermitian operators."""

from __future__ import annotations

from functools import cache

import numpy as np

# Shared tolerances; solvers and tests must agree on these.
HERMITICITY_RTOL = 1e-12
# Partial-transpose eigenvalues above this floor count as non-negative.
PSD_EIGENVALUE_FLOOR = -1e-12


class NonHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check."""


def require_hermitian(m) -> np.ndarray:
    """M made exactly Hermitian, (M + M^dagger)/2, after checking it within HERMITICITY_RTOL."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    # on the entries: a finite 1e308+1e308j has |m| = inf
    if not np.isfinite(m).all():
        raise NonHermitianError("matrix has non-finite entries")
    mh = m.conj().T
    scale = float(np.abs(m).max())
    defect = float(np.abs(m - mh).max())
    if defect > HERMITICITY_RTOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return (m + mh) / 2.0


@cache
def _lapack():
    """scipy.linalg.lapack, imported on first use, so that importing the package loads no scipy."""
    from scipy.linalg import lapack

    return lapack


def _eigh(m, vectors: bool = True):
    """(values, vectors) of a matrix Hermitian by construction, values ascending.

    Calls LAPACK zheevd on the lower triangle, as numpy.linalg.eigh does, but
    without numpy's per-call wrapper, which costs as much as a 4x4 solve.
    """
    values, v, info = _lapack().zheevd(m, compute_v=vectors, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed with info = {info}")
    return values, v


def _svdvals(m) -> np.ndarray:
    """Singular values of a complex matrix, descending, from LAPACK zgesdd.

    The same call numpy.linalg.svd(m, compute_uv=False) makes, without numpy's
    per-call wrapper.
    """
    _, s, _, info = _lapack().zgesdd(m, compute_uv=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed with info = {info}")
    return s


def hermitian_eigen(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values ascending and vectors as orthonormal
    columns. Non-Hermitian input is rejected with the measured defect norm.
    """
    return _eigh(require_hermitian(m))
