"""Two-qubit Hamiltonians and the rotation of arbitrary couplings to diagonal XYZ form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Flattened operators whose real coefficients assemble every Hamiltonian:
# rows 0-8 are s1^a s2^b (row-major in a, b), rows 9-11 s1^a and 12-14 s2^a.
PAULI_BASIS = np.array(
    [np.kron(a, b).ravel() for a in PAULI for b in PAULI]
    + [np.kron(s, IDENTITY_2).ravel() for s in PAULI]
    + [np.kron(IDENTITY_2, s).ravel() for s in PAULI]
)


def _as_coupling_matrix(j) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if j.shape == (3,):
        j = np.diag(j)
    if j.shape != (3, 3):
        raise ValueError(f"coupling must be a 3x3 matrix or a 3-vector, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("coupling has non-finite entries")
    return j


def build_hamiltonian(j, h1=(0.0, 0.0, 0.0), h2=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Assemble sum_ij J_ij s1^i s2^j + sum_i (h1^i s1^i + h2^i s2^i).

    Basis ordering is |00>, |01>, |10>, |11> with sigma^z |0> = +|0>. A
    length-3 coupling is treated as the diagonal (Jx, Jy, Jz).
    """
    j = _as_coupling_matrix(j)
    fields = np.concatenate((np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)))
    return (np.concatenate((j.ravel(), fields)) @ PAULI_BASIS).reshape(4, 4)


def is_canonical_diagonal(jx: float, jy: float, jz: float) -> bool:
    """True when either {jx, jy} >= jz >= 0 or 0 >= jz >= {jx, jy}, exactly: |jz| is minimal."""
    return 0.0 <= jz <= min(jx, jy) or max(jx, jy) <= jz <= 0.0


@dataclass(eq=False)
class CanonicalCoupling:
    """Diagonal XYZ coupling plus the spin rotations that produced it.

    The rotations satisfy diag(jx, jy, jz) = r1 @ J @ r2.T with
    det r1 = det r2 = +1.
    """

    jx: float
    jy: float
    jz: float
    r1: np.ndarray = field(default_factory=lambda: np.eye(3))
    r2: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        # Python floats: numpy scalars would tax every step of the scalar solvers
        self.jx, self.jy, self.jz = d = (float(self.jx), float(self.jy), float(self.jz))
        if not (all(map(math.isfinite, d)) and is_canonical_diagonal(*d)):
            raise ValueError(
                f"({self.jx}, {self.jy}, {self.jz}) is not a finite canonical diagonal "
                "coupling; run canonicalize() first"
            )

    @property
    def diagonal(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz])

    @property
    def norm(self) -> float:
        """|jx| + |jy| + |jz|, the spectral norm of the interaction Hamiltonian."""
        return abs(self.jx) + abs(self.jy) + abs(self.jz)

    @cached_property
    def gaps(self) -> tuple[float, float, float]:
        """jt = |jx + jy| and the level gaps jt - kp = 2 (min(|jx|, |jy|) + jz) >= 0 and
        jt + km = 2 (max(|jx|, |jy|) + jz) >= 0, kp, km = |jx - jy| -+ 2 jz, as jx and jy
        share a sign: one rounded sum each, so exact at 0. jt - kp == 0 is the one
        degeneracy test (jz <= 0, jz = jx or jy)."""
        lo, hi = sorted((abs(self.jx), abs(self.jy)))
        return abs(self.jx + self.jy), 2.0 * (lo + self.jz), 2.0 * (hi + self.jz)

    @property
    def sign_class(self) -> str:
        """'afm' for the all-non-negative class, 'fm' for the all-non-positive one."""
        return "fm" if min(self.jx, self.jy, self.jz) < 0 else "afm"


def canonicalize(j) -> CanonicalCoupling:
    """Rotate an arbitrary coupling matrix to a diagonal XYZ interaction.

    The two local rotations leave the interaction spectrum unchanged. The
    diagonal values all share one sign: non-negative when det J >= 0
    (antiferromagnetic class, det J = 0 included), non-positive otherwise
    (ferromagnetic class). |jz| is the least of the three magnitudes and
    jx >= jy; ties between equal singular values follow the underlying SVD's
    deterministic order.
    """
    j = _as_coupling_matrix(j)
    # r1 @ J @ r2.T = diag(d) with r1 = U^T, r2 = Vh and d sorted descending
    u, d, r2 = np.linalg.svd(j)
    r1 = u.T.copy()
    # Values within the SVD's rounding (64 eps) of 0 or of each other become equal,
    # so that a rotated degenerate level keeps its exact zero gap (CanonicalCoupling.gaps).
    x, tol = d.tolist(), 2.0**-46 * d[0]
    for i in (1, 2):
        x[i] = x[i - 1] if x[i - 1] - x[i] <= tol else x[i] if x[i] > tol else 0.0
    d = np.array(x)
    # Inversions cannot be realized by spin rotations; trade them for a sign
    # on the smallest singular value.
    if np.linalg.det(r1) < 0:
        r1[2, :] *= -1.0
        d[2] *= -1.0
    if np.linalg.det(r2) < 0:
        r2[2, :] *= -1.0
        d[2] *= -1.0
    # d[2] now carries the sign of det J. Deciding the class on it, not on a
    # separately rounded det J, keeps near-singular couplings canonical.
    if d[2] < 0:
        # Rotate spin 1 by pi about z: flips the x and y couplings.
        r1 = np.diag([-1.0, -1.0, 1.0]) @ r1
        d[0] *= -1.0
        d[1] *= -1.0
        # Swap the x and y axes on both spins (det +1 via the z sign flip)
        # so that |jz| stays minimal and jx >= jy.
        swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        r1 = swap @ r1
        r2 = swap @ r2
        d = np.array([d[1], d[0], d[2]])
    else:
        d = np.abs(d)  # det J = 0 may leave a -0.0 in the z slot
    return CanonicalCoupling(float(d[0]), float(d[1]), float(d[2]), r1, r2)
