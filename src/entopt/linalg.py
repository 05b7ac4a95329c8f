"""Dense linear algebra for 4x4 Hermitian operators."""

from __future__ import annotations

import numpy as np

# Shared tolerances; solvers and tests must agree on these.
HERMITICITY_RTOL = 1e-12
# Partial-transpose eigenvalues above this floor count as non-negative.
PSD_EIGENVALUE_FLOOR = -1e-12


# scipy.linalg.lapack.zheevd, loaded by the first _eigh call, so that
# importing the package loads no scipy.
_zheevd = None


class NonHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check."""


def hermiticity_defect(m) -> float:
    """Largest absolute deviation of M from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m) -> np.ndarray:
    """M made exactly Hermitian, (M + M^dagger)/2, after checking it within HERMITICITY_RTOL."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonHermitianError("matrix has non-finite entries")
    scale = float(np.max(np.abs(m)))
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_RTOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def _eigh(m, vectors: bool = True):
    """(values, vectors) of a matrix Hermitian by construction, values ascending.

    Calls LAPACK zheevd on the lower triangle, as numpy.linalg.eigh does, but
    without numpy's per-call wrapper, which costs as much as a 4x4 solve.
    """
    global _zheevd
    if _zheevd is None:
        from scipy.linalg.lapack import zheevd as _zheevd
    values, v, info = _zheevd(m, compute_v=vectors, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed with info = {info}")
    return values, v


def hermitian_eigen(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values ascending and vectors as orthonormal
    columns. Non-Hermitian input is rejected with the measured defect norm.
    """
    return _eigh(require_hermitian(m))
