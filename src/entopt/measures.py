"""Entanglement quantifiers on two-qubit density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalFailure, _eigh, _svdvals, hermitian_eigen, require_hermitian

# X*[::-1, ::-1] * _FLIP_SIGN is sigma_y x sigma_y X* sigma_y x sigma_y
_FLIP_SIGN = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
# Flat index of each entry of rho^T1 in rho
_PT_INDEX = np.arange(16).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def partial_transpose(rho) -> np.ndarray:
    """Transpose the first qubit's indices; involutive and trace preserving."""
    return require_hermitian(rho).take(_PT_INDEX)


def _pt_spectrum(rho) -> np.ndarray:
    """Ascending eigenvalues of rho^T1, without checks, for an exactly Hermitian rho."""
    return _eigh(rho.take(_PT_INDEX), vectors=False)[0]


# rho^T1 counts as positive semidefinite unless lambda_min < -16 eps lambda_max: rounding
# leaves separable states within a few eps lambda_max of 0
_PSD_RTOL = 16.0 * 2.0**-52


def _negativity(pt_values) -> float:
    """-2 lambda_min of an ascending partial-transpose spectrum when it is negative, else 0."""
    lam_min, _, _, lam_max = pt_values.tolist()
    return -2.0 * lam_min if lam_min < -_PSD_RTOL * lam_max else 0.0


def _pi(pt_values) -> float:
    a, b, c, d = pt_values.tolist()
    if not a < -_PSD_RTOL * d:
        return 0.0
    det = abs(a * b * c * d)  # det rho^T1 is the product of its eigenvalues
    if det == math.inf:
        raise NumericalFailure(f"det rho^T1 overflows (eigenvalues {a!r} to {d!r})")
    return 2.0 * det**0.25


def min_pt_eigenvalue(rho) -> float:
    return float(_pt_spectrum(require_hermitian(rho))[0])


def negativity(rho) -> float:
    """max(-2 lambda_min, 0) over the partial-transpose spectrum.

    The partial transpose of a two-qubit state has at most one negative
    eigenvalue, so this equals the trace-norm definition ||rho^T1||_1 - 1.
    lambda_min counts as negative below -16 eps lambda_max, relative to the state's own scale.
    """
    return _negativity(_pt_spectrum(require_hermitian(rho)))


def concurrence(rho) -> float:
    """Wootters concurrence from the spin-flipped state rho~.

    The square roots of the eigenvalues of rho @ rho~ are the singular values
    of sqrt(rho~) sqrt(rho), with sqrt(rho) exact in rho's eigenbasis. Taking
    them from one SVD keeps the computation deterministic and avoids the
    precision loss of rooting near-zero eigenvalues.
    """
    values, vectors = hermitian_eigen(rho)
    s = np.sqrt(np.maximum(values, 0.0))  # roundoff can leave tiny negatives
    sqrt_rho = (vectors * s) @ vectors.conj().T
    m = (sqrt_rho.conj()[::-1, ::-1] * _FLIP_SIGN) @ sqrt_rho
    r0, r1, r2, r3 = _svdvals(m).tolist()
    return max(0.0, r0 - r1 - r2 - r3)


def pi_measure(rho) -> float:
    """Determinant-based quantifier: 2 |det rho^T1|^(1/4) when rho^T1 < 0, else 0."""
    return _pi(_pt_spectrum(require_hermitian(rho)))


def necessary_condition(rho) -> bool:
    """Eigenvalue-ordering witness: lam1 >= lam3 + 2 sqrt(lam2 lam4) >= 3 lam4.

    The lam_i are the state's eigenvalues in non-ascending order. Any state
    with nonzero negativity satisfies both inequalities; separable states may
    fail them. Both hold within an absolute slack of 1e-12.
    """
    values = _eigh(require_hermitian(rho), vectors=False)[0].tolist()
    l4, l3, l2, l1 = (max(v, 0.0) for v in values)
    mid = l3 + 2.0 * math.sqrt(l2 * l4)
    return l1 + 1e-12 >= mid and mid + 1e-12 >= 3.0 * l4


@dataclass(frozen=True)
class EntanglementReport:
    negativity: float
    concurrence: float
    pi: float
    min_pt_eigenvalue: float


def entanglement_report(rho) -> EntanglementReport:
    """All three measures of one state from a single partial-transpose eigensolve."""
    rho = require_hermitian(rho)
    values = _pt_spectrum(rho)
    return EntanglementReport(_negativity(values), concurrence(rho), _pi(values), float(values[0]))
