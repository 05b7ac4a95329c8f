"""Analytic partial-transpose spectrum for opposed z fields on a diagonal coupling.

For H = sum_i J_i s1^i s2^i + h (s1^z - s2^z), the partial transpose of the
Gibbs state is block diagonal in the computational basis and its spectrum has
a closed form in the five scalars a1, a2, b1, b2, b3. Only the (a1 - |a2|)/Z
eigenvalue can become negative, which gives the negativity directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import CanonicalCoupling
from .thermal import _validate_beta


@dataclass(frozen=True)
class ClosedFormParams:
    """The closed-form scalars for one (coupling, field, temperature) point.

    a1, a2, b1, b2, b3 and z carry a common factor exp(-log_scale) relative to
    their raw definitions so that large beta*J2 cannot overflow; the
    partial-transpose spectrum and the negativity are invariant under that
    factor. j1 = |Jx - Jy| and j2 = sqrt(4 h^2 + (Jx + Jy)^2) are unscaled.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    b3: float
    j1: float
    j2: float
    z: float
    log_scale: float = 0.0


def closed_form_params(c: CanonicalCoupling, h: float, beta: float) -> ClosedFormParams:
    """Evaluate the five closed-form scalars and the partition function."""
    beta = _validate_beta(beta)
    h = float(h)
    jx, jy, jz = c.jx, c.jy, c.jz
    jsum = jx + jy
    j1 = abs(jx - jy)
    j2 = math.hypot(2.0 * h, jsum)

    # Common scale keeping every exponent non-positive.
    s = max(0.0, j1 - jz, j2 + jz)
    log_scale = beta * s

    a1 = 0.5 * (math.exp(beta * (j1 - jz) - log_scale) + math.exp(beta * (-j1 - jz) - log_scale))
    b3 = -0.5 * (math.exp(beta * (j1 - jz) - log_scale) - math.exp(beta * (-j1 - jz) - log_scale))
    b1 = 0.5 * (math.exp(beta * (jz + j2) - log_scale) + math.exp(beta * (jz - j2) - log_scale))
    x = beta * j2
    if x < 1e-6:
        # sinh(beta J2)/J2 stays finite as J2 -> 0 (Ising corner at h = 0)
        sinh_over_j2 = beta * (1.0 + x * x / 6.0) * math.exp(beta * jz - log_scale)
    else:
        sinh_over_j2 = 0.5 * (
            math.exp(beta * (jz + j2) - log_scale) - math.exp(beta * (jz - j2) - log_scale)
        ) / j2
    a2 = -jsum * sinh_over_j2
    b2 = 2.0 * h * sinh_over_j2
    z = 2.0 * (a1 + b1)
    return ClosedFormParams(a1, a2, b1, b2, b3, j1, j2, z, log_scale)


def pt_spectrum(p: ClosedFormParams) -> np.ndarray:
    """The four partial-transpose eigenvalues, normalized by Z.

    Order: a1 - |a2|, a1 + |a2|, b1 + sqrt(b2^2 + b3^2), b1 - sqrt(b2^2 + b3^2).
    Only the first entry can be negative; the four sum to 1.
    """
    rad = math.hypot(p.b2, p.b3)
    return np.array([p.a1 - abs(p.a2), p.a1 + abs(p.a2), p.b1 + rad, p.b1 - rad]) / p.z


def negativity_tilde(c: CanonicalCoupling, h: float, beta: float) -> float:
    """The un-clamped negativity N~ = -2 (a1 - |a2|)/Z.

    May be negative; the physical negativity is max(N~, 0). Exposed un-clamped
    so root finders can locate sign changes and stationary points.
    """
    p = closed_form_params(c, h, beta)
    return -2.0 * (p.a1 - abs(p.a2)) / p.z
