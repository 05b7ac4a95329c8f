"""Gibbs states of two-qubit Hamiltonians and simple thermodynamic scalars."""

from __future__ import annotations

import math

import numpy as np

from .linalg import NumericalFailure, _eigh, _two_qubit, require_hermitian


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"inverse temperature must be finite and positive, got {beta}")
    return beta


def _beta_from_t(t: float) -> float:
    """1/T for 0 < T < inf; NumericalFailure where 1/T overflows (a subnormal T)."""
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {t}")
    if 1.0 / t == math.inf:
        raise NumericalFailure(f"1/T overflows at T = {t!r}")
    return 1.0 / t


def _gibbs_from_spectrum(values, vectors, beta: float):
    """(rho, z_shifted) from H's ascending eigenvalues and eigenvectors, without checks:
    gibbs_state before its symmetrization, for a valid beta."""
    # Python floats: a level gap or beta times it that overflows is inf, with weight 0
    e0 = float(values[0])
    weights = np.exp([-beta * (e - e0) for e in values.tolist()])
    z = float(weights.sum())
    return (vectors * (weights / z)) @ vectors.conj().T, z


def _gibbs(h, beta: float):
    """gibbs_state without checks or symmetrization, for an exactly Hermitian h and a valid beta."""
    return _gibbs_from_spectrum(*_eigh(h), beta)


def gibbs_state(h, beta: float):
    """Thermal state exp(-beta H)/Z via eigendecomposition.

    The ground energy is subtracted before exponentiation, so every exponent is
    <= 0 and no beta overflows; the returned partition function uses that shifted
    convention, Z_shifted = Z * exp(beta * E_min). Returns (rho, z_shifted).
    """
    rho, z = _gibbs(require_hermitian(h), _validate_beta(beta))
    return (rho + rho.conj().T) / 2.0, z


def purity(rho) -> float:
    """tr(rho^2) of a 4x4 state, 1/4 (maximally mixed) to 1 (pure); ValueError for other shapes."""
    rho = _two_qubit(np.asarray(rho))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        p = float(rho.dot(rho).trace().real)  # the bits of rho @ rho, with less overhead
    if not math.isfinite(p):
        require_hermitian(rho)  # non-finite or oversized entries are rejected input
        raise NumericalFailure(f"tr(rho^2) overflows ({p})")
    return p
