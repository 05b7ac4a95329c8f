"""Two-qubit Hamiltonians and the rotation of arbitrary couplings to diagonal XYZ form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import _svd

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
# Spin 1 rotated by pi about z; the x and y axes swapped (det +1 via the z sign flip)
_PI_Z = np.diag([-1.0, -1.0, 1.0])
_SWAP_XY = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def _as_coupling_matrix(j) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if j.shape == (3,):
        d, j = j, np.zeros((3, 3))
        j.flat[::4] = d  # np.diag(d) without its wrapper
    if j.shape != (3, 3):
        raise ValueError(f"coupling must be a 3x3 matrix or a 3-vector, got shape {j.shape}")
    if not all(map(math.isfinite, j.ravel().tolist())):
        raise ValueError("coupling has non-finite entries")
    return j


def _det3(r) -> float:
    """Determinant of a 3x3 matrix by cofactors, in Python floats.

    Only its sign is read, on orthogonal matrices, where det = +-1 to rounding.
    """
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def build_hamiltonian(j, h1=(0.0, 0.0, 0.0), h2=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Assemble sum_ij J_ij s1^i s2^j + sum_i (h1^i s1^i + h2^i s2^i).

    Basis ordering is |00>, |01>, |10>, |11> with sigma^z |0> = +|0>. A
    length-3 coupling is treated as the diagonal (Jx, Jy, Jz); each field must
    be a finite 3-vector, and the magnitudes of all 15 coefficients must have a
    finite sum, which bounds every entry of H.
    """
    j = _as_coupling_matrix(j)
    h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
    if h1.shape != (3,) or h2.shape != (3,):
        raise ValueError(f"fields must be 3-vectors, got shapes {h1.shape} and {h2.shape}")
    coeffs = np.concatenate((j.ravel(), h1, h2))
    # NaN or inf for a non-finite field, and inf when an entry of H could overflow
    total = sum(map(abs, coeffs.tolist()))
    if not math.isfinite(total):
        raise ValueError(f"field has non-finite entries or H overflows: sum |coeffs| = {total}")
    return (coeffs @ PAULI_BASIS).reshape(4, 4)


def is_canonical_diagonal(jx: float, jy: float, jz: float) -> bool:
    """True when either {jx, jy} >= jz >= 0 or 0 >= jz >= {jx, jy}, exactly: |jz| is minimal."""
    return 0.0 <= jz <= min(jx, jy) or max(jx, jy) <= jz <= 0.0


@dataclass(frozen=True, eq=False)
class CanonicalCoupling:
    """Diagonal XYZ coupling plus the spin rotations that produced it.

    The rotations satisfy diag(jx, jy, jz) = r1 @ J @ r2.T with
    det r1 = det r2 = +1. Frozen, so that the canonical check and the cached
    gaps and unit stay true.
    """

    jx: float
    jy: float
    jz: float
    r1: np.ndarray = field(default_factory=lambda: np.eye(3))
    r2: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        # Python floats: numpy scalars would tax every step of the scalar solvers
        d = (float(self.jx), float(self.jy), float(self.jz))
        for name, value in zip(("jx", "jy", "jz"), d):
            object.__setattr__(self, name, value)
        # NaN or inf components fail this too
        if not math.isfinite(self.norm):
            raise ValueError(f"coupling {d} has no finite norm |jx| + |jy| + |jz|")
        if not is_canonical_diagonal(*d):
            raise ValueError(f"{d} is not a canonical diagonal coupling; run canonicalize() first")

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

    @cached_property
    def unit(self) -> tuple[float, CanonicalCoupling]:
        """(s, coupling / s), s the power of two nearest the norm (at most 2^1023; 1 at norm 0).

        N~ depends on J, h and beta only through beta J and beta h, so every solver works on
        the coupling / s at beta s and scales back by powers of s, which is exact."""
        s = 2.0 ** min(round(math.log2(self.norm)), 1023) if self.norm else 1.0
        if s == 1.0:
            return s, self
        return s, CanonicalCoupling(self.jx / s, self.jy / s, self.jz / s)

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
    u, d, r2 = _svd(j)
    r1 = u.T.copy()
    # Values within the SVD's rounding (64 eps) of 0 or of each other become equal,
    # so that a rotated degenerate level keeps its exact zero gap (CanonicalCoupling.gaps).
    d, tol = d.tolist(), 2.0**-46 * d[0]
    for i in (1, 2):
        d[i] = d[i - 1] if d[i - 1] - d[i] <= tol else d[i] if d[i] > tol else 0.0
    # Inversions cannot be realized by spin rotations; trade them for a sign
    # on the smallest singular value.
    if _det3(r1) < 0:
        r1[2, :] *= -1.0
        d[2] = -d[2]
    if _det3(r2) < 0:
        r2[2, :] *= -1.0
        d[2] = -d[2]
    # d[2] now carries the sign of det J. Deciding the class on it, not on a
    # separately rounded det J, keeps near-singular couplings canonical.
    if d[2] < 0:
        # Rotate spin 1 by pi about z, which flips the x and y couplings, then swap
        # the x and y axes on both spins so that |jz| stays minimal and jx >= jy.
        r1, r2 = _SWAP_XY @ (_PI_Z @ r1), _SWAP_XY @ r2
        d = (-d[1], -d[0], d[2])
    else:
        d = map(abs, d)  # det J = 0 may leave a -0.0 in the z slot
    return CanonicalCoupling(*d, r1, r2)
