"""Brute-force reference values, independent of the entopt package.

Every state here is built from its own Pauli matrices and exponentiated with
scipy.linalg.expm; the partial transpose is an explicit index permutation and
its spectrum comes from numpy.linalg.eigvalsh. Nothing in this module imports
entopt, so a defect in the package's eigen-route, closed form or root finders
cannot hide itself here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = (_SX, _SY, _SZ)
_SYSY = np.kron(_SY, _SY)

# Partial transpose on the first qubit: rho^T1[(a b), (c d)] = rho[(c b), (a d)].
_PT_ROWS = np.array([[2 * c + b for c in (0, 1) for d in (0, 1)] for a in (0, 1) for b in (0, 1)])
_PT_COLS = np.array([[2 * a + d for c in (0, 1) for d in (0, 1)] for a in (0, 1) for b in (0, 1)])
_OPPOSED_Z = np.kron(_SZ, _I2) - np.kron(_I2, _SZ)
_PAIR = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])
_SPIN1 = np.array([np.kron(a, _I2) for a in _PAULI])
_SPIN2 = np.array([np.kron(_I2, a) for a in _PAULI])

# Absolute tolerances between the package and these references.
MEASURE_ATOL = 1e-9
CONCURRENCE_ATOL = 1e-7  # square roots of near-zero eigenvalues of rho rho~
OPTIMUM_SLACK = 1e-9


def hamiltonian(j, h1=(0.0, 0.0, 0.0), h2=(0.0, 0.0, 0.0)) -> np.ndarray:
    """sum_ij J_ij s1^i s2^j + h1 . s1 + h2 . s2 in the |00>, |01>, |10>, |11> basis."""
    j = np.asarray(j, dtype=float)
    if j.shape == (3,):
        j = np.diag(j)
    return (
        np.einsum("ab,abij->ij", j, _PAIR)
        + np.einsum("a,aij->ij", np.asarray(h1, dtype=float), _SPIN1)
        + np.einsum("a,aij->ij", np.asarray(h2, dtype=float), _SPIN2)
    )


def gibbs(h, beta: float) -> np.ndarray:
    """exp(-beta H)/Z by matrix exponential, shifted by the ground energy.

    Accepts one 4x4 Hamiltonian or a stack of them.
    """
    e0 = np.linalg.eigvalsh(h)[..., :1, None]
    w = expm(-beta * (h - e0 * np.eye(4)))
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]


def partial_transpose(rho) -> np.ndarray:
    return rho[..., _PT_ROWS, _PT_COLS]


def negativity(rho):
    """max(-2 lambda_min(rho^T1), 0), elementwise over a stack of states."""
    return np.maximum(-2.0 * np.linalg.eigvalsh(partial_transpose(rho))[..., 0], 0.0)


def purity(rho):
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def concurrence(rho) -> float:
    """Wootters: sqrt-eigenvalues of rho (sy sy) rho* (sy sy), descending."""
    m = rho @ _SYSY @ rho.conj() @ _SYSY
    r = np.sqrt(np.clip(np.sort(np.linalg.eigvals(m).real)[::-1], 0.0, None))
    return float(max(0.0, r[0] - r[1] - r[2] - r[3]))


def opposed_z_states(diag, hs, beta: float) -> np.ndarray:
    """Gibbs states for fields (0, 0, h), (0, 0, -h), one per entry of hs."""
    hs = np.asarray(hs, dtype=float)[:, None, None]
    return gibbs(hamiltonian(diag) + hs * _OPPOSED_Z, beta)


def zero_field_slope_sign(diag, t: float, dh: float = 1e-2) -> float:
    """Sign of N~(dh) - N~(0) for opposed z fields at temperature t.

    N~ is the un-clamped -2 lambda_min of the partial transpose restricted to
    span{|00>, |11>}, the block that holds its only sign-indefinite
    eigenvalue, so the difference keeps its sign where the state is separable.
    """
    pt = partial_transpose(opposed_z_states(diag, [dh, 0.0], 1.0 / t))
    n_tilde = -2.0 * np.linalg.eigvalsh(pt[:, [[0], [3]], [[0, 3]]])[:, 0]
    return float(np.sign(n_tilde[0] - n_tilde[1]))


def canonical_diagonal(j) -> np.ndarray:
    """Diagonal XYZ form up to the x/y order: singular values times sign(det J)."""
    sign = 1.0 if np.linalg.det(j) >= 0.0 else -1.0
    return sign * np.linalg.svd(j, compute_uv=False)


def constrained_optimum(j, beta: float, h_max: float, points: int = 801) -> float:
    """max over h >= 0 of N for opposed z fields along the canonical z axis.

    Dense grid on [0, h_max], then a bounded scalar refinement around the best
    grid point; the flat maximum makes the value accurate far below the grid step.
    """
    diag = canonical_diagonal(j)
    grid = np.linspace(0.0, h_max, points)
    values = negativity(opposed_z_states(diag, grid, beta))
    k = int(np.argmax(values))
    if values[k] == 0.0:
        return 0.0
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    res = minimize_scalar(
        lambda h: -negativity(opposed_z_states(diag, [h], beta))[0],
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(float(values[k]), -float(res.fun))

