"""High- and low-temperature asymptotics of the optimized negativity."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .spin_model import CanonicalCoupling

_BRANCH_POINT = -1.0 / math.e


class AsymptoteDomainError(ValueError):
    """Requested asymptote is outside its validity domain."""


class NondegenerateCouplingError(ValueError):
    """No low-temperature asymptote exists; the optimizing field is exactly zero."""


def lambert_w_minus1(x: float) -> float:
    """Lambert W on the secondary real branch: w <= -1 with w e^w = x.

    Defined for -1/e <= x < 0. Halley iteration from a log-based seed, with a
    branch-point series near x = -1/e where the log seed degenerates.
    """
    x = float(x)
    if not (_BRANCH_POINT - 1e-15 <= x < 0.0):
        raise AsymptoteDomainError(f"W_-1 requires -1/e <= x < 0, got {x}")
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 < 1e-12:
        p = -math.sqrt(max(p2, 0.0))
        return -1.0 + p - p * p / 3.0
    if p2 < 0.04:
        p = -math.sqrt(p2)
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        l1 = math.log(-x)
        w = l1 - math.log(-l1)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-14 * max(1.0, abs(w)):
            break
    return w


@dataclass(frozen=True)
class HighTAsymptote:
    """High-temperature optimum: dimensionless field beta*h, field, and negativity."""

    h_prime_op: float
    h_op: float
    n_op: float


@dataclass(frozen=True)
class LowTAsymptote:
    """Low-temperature optimum for degenerate ferromagnetic couplings."""

    h_op: float
    n_op: float
    degeneracy: str  # "doubly" or "triply"


def high_t_hop_exact(jx: float, jy: float, beta: float) -> HighTAsymptote:
    """Optimal field from the fixed point e^(2h') = 8 h'^2 / (beta |Jx+Jy|).

    Solved through the W_-1 branch; valid only where the W argument
    -sqrt(beta |Jx+Jy| / 8) stays above the branch point -1/e, i.e. at high
    enough temperature.
    """
    jt = abs(jx + jy)
    if jt == 0.0:
        raise AsymptoteDomainError("|Jx + Jy| vanishes; the high-temperature scale is undefined")
    arg = -math.sqrt(beta * jt / 8.0)
    if arg < _BRANCH_POINT:
        raise AsymptoteDomainError(
            f"asymptote invalid at this temperature: W argument {arg:.6g} < -1/e"
        )
    hp = -lambert_w_minus1(arg)
    n_op = beta * jt / (2.0 * hp) - 2.0 * math.exp(-2.0 * hp)
    return HighTAsymptote(h_prime_op=hp, h_op=hp / beta, n_op=n_op)


def high_t_leading(jx: float, jy: float, beta: float) -> HighTAsymptote:
    """Leading-order forms h ~ log(1/beta)/(2 beta), N ~ beta |Jx+Jy| / log(1/beta).

    Known to converge slowly: at moderate temperatures these can be off by
    factors of 2 or more where the fixed-point asymptote is already accurate.
    """
    if beta >= 1.0:
        raise AsymptoteDomainError(f"leading-order asymptote needs beta < 1, got {beta}")
    log1b = math.log(1.0 / beta)
    return HighTAsymptote(
        h_prime_op=0.5 * log1b,
        h_op=log1b / (2.0 * beta),
        n_op=beta * abs(jx + jy) / log1b,
    )


def low_t_asymptote(c: CanonicalCoupling, beta: float) -> LowTAsymptote:
    """Low-temperature optimum for degenerate ferromagnetic ground states.

    Applies where CanonicalCoupling.gaps has jt - kp == 0: 0 >= jz = jx > jy,
    0 >= jz = jy > jx (doubly degenerate) and 0 >= jz = jx = jy (triply).
    Elsewhere the optimizing field is exactly zero at low temperature.
    """
    jt, gap, _ = c.gaps
    if gap > 0.0:
        raise NondegenerateCouplingError(
            "no low-temperature asymptote for this coupling; h_op = 0 exactly"
        )
    if 2.0 * beta * jt <= 1.0:
        raise AsymptoteDomainError(
            f"low-temperature asymptote needs 2 beta |Jx+Jy| > 1, got {2.0 * beta * jt}"
        )
    tag = "triply" if c.jx == c.jy else "doubly"
    log_term = math.log((4.0 if tag == "triply" else 2.0) * beta * jt)
    h_op = math.sqrt(jt / (2.0 * beta) * log_term)
    n_op = 1.0 - (1.0 + log_term) / (beta * jt)
    return LowTAsymptote(h_op=h_op, n_op=n_op, degeneracy=tag)


def matrix_element_pp_mm(
    c: CanonicalCoupling, theta1: float, phi1: float, theta2: float, phi2: float
) -> complex:
    """<++| H_int |--> for local fields along polar angles (theta_i, phi_i).

    |++> and |--> are the top and bottom product eigenstates of the local
    Hamiltonian. The magnitude is bounded by |Jx + Jy|, with equality at
    (theta1, theta2, phi1, phi2) = (0, pi, 0, 0), i.e. opposed z fields.
    """
    s1 = math.sin(theta1 / 2.0) ** 2
    c1 = math.cos(theta1 / 2.0) ** 2
    s2 = math.sin(theta2 / 2.0) ** 2
    c2 = math.cos(theta2 / 2.0) ** 2
    term_z = c.jz * math.sin(theta1) * math.sin(theta2)
    term_diff = (c.jx - c.jy) * (
        s1 * s2 * cmath.exp(-1j * (phi1 + phi2)) + c1 * c2 * cmath.exp(1j * (phi1 + phi2))
    )
    term_sum = (c.jx + c.jy) * (
        c1 * s2 * cmath.exp(1j * (phi1 - phi2)) + s1 * c2 * cmath.exp(-1j * (phi1 - phi2))
    )
    return term_z + term_diff - term_sum
