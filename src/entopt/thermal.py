"""Gibbs states of two-qubit Hamiltonians and simple thermodynamic scalars."""

from __future__ import annotations

import math

import numpy as np

from .linalg import _eigh, hermitian_eigen, require_hermitian


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"inverse temperature must be finite and positive, got {beta}")
    return beta


def _gibbs(h, beta: float):
    """gibbs_state without checks, for an exactly Hermitian h and a valid beta."""
    values, vectors = _eigh(h)
    weights = np.exp(-beta * (values - values[0]))
    z = float(weights.sum())
    return (vectors * (weights / z)) @ vectors.conj().T, z


def gibbs_state(h, beta: float):
    """Thermal state exp(-beta H)/Z via eigendecomposition.

    The ground energy is subtracted before exponentiation so that beta up to
    ~1e3 cannot overflow; the returned partition function uses that shifted
    convention, Z_shifted = Z * exp(beta * E_min). Returns (rho, z_shifted).
    """
    rho, z = _gibbs(require_hermitian(h), _validate_beta(beta))
    return (rho + rho.conj().T) / 2.0, z


def ground_state(h, degeneracy_rtol: float = 1e-9) -> np.ndarray:
    """Zero-temperature limit: the maximally mixed state over the ground space."""
    values, vectors = hermitian_eigen(h)
    scale = max(1.0, float(np.max(np.abs(values))))
    mask = values - values[0] <= degeneracy_rtol * scale
    v = vectors[:, mask]
    rho = (v @ v.conj().T) / v.shape[1]
    return (rho + rho.conj().T) / 2.0


def purity(rho) -> float:
    """tr(rho^2), between 1/4 (maximally mixed) and 1 (pure)."""
    rho = np.asarray(rho)
    return float(np.real(np.trace(rho @ rho)))


def is_density_matrix(rho, atol: float = 1e-12) -> bool:
    """Hermitian, unit trace, and positive semidefinite within tolerance."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        return False
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        return False
    values = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return bool(values[0] >= -atol)
