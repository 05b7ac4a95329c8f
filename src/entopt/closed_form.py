"""The opposed-z-field closed form: N~, its partial-transpose spectrum and its derivatives.

For H = sum_i J_i s1^i s2^i + h (s1^z - s2^z) on a canonical diagonal
coupling, the negativity of the Gibbs state depends on the field only through
J = sqrt(4 h^2 + jt^2) and on the temperature only through beta:

    N~ = (S - A)/(A + C),  A = exp(-2 beta jz) cosh(beta j1),
                           S = jt sinh(beta J)/J,  C = cosh(beta J),

with jt = |jx + jy| and j1 = |jx - jy|. `_scaled_form` evaluates every
exponential at one common scale exp(-beta J), from the coupling's exact level
gaps, so no exponent is positive and nothing overflows; every quotient below is
invariant under that factor. The partial-transpose spectrum, N~, its field
stationarity J dN~/dJ and its beta and J derivatives are short formulas on top
of it.
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


def _scaled_form(c: CanonicalCoupling, h: float, beta: float):
    """The closed form's terms at one (beta, J), each exponential times exp(-x), x = beta J.

    Returns (r, J, x, ap, am, ch, sh, xc, hx): r = jt/J (0 at jt = 0),
    A e^-x = ap + am = (exp(beta kp - x) + exp(-beta km - x))/2; C, sinh x and
    x cosh x - sinh x times e^-x are ch, sh and xc; (sinh(2x)/2 - x) e^-2x = hx,
    both by series below x = 0.2, where the differences cancel. No exponent is a
    difference of rounded ones, and none is positive: beta (kp - J) =
    -beta (jt - kp) - beta (J - jt) <= 0 with J - jt = 4 h^2/(J + jt), likewise
    for km, on the coupling's exact gaps.
    """
    jt, dp, dm = c.gaps
    j = math.hypot(2.0 * h, jt)
    dj = beta * (2.0 * h * (2.0 * h / (j + jt))) if h else 0.0  # beta (J - jt)
    x = beta * j
    ap = 0.5 * math.exp(-beta * dp - dj)
    am = 0.5 * math.exp(-beta * dm - dj)
    if x < 0.2:
        e = math.exp(-x)
        ch, sh = math.cosh(x) * e, math.sinh(x) * e
        x2 = x * x
        xc = x * x2 * (1.0 / 3.0 + x2 * (1.0 / 30.0 + x2 * (1.0 / 840.0 + x2 / 45360.0))) * e
        hx = x * x2 * (2.0 / 3.0 + x2 * (2.0 / 15.0 + x2 * (4.0 / 315.0 + x2 * 2.0 / 2835.0)))
        hx *= e * e
    else:
        em = math.exp(-2.0 * x)
        ch, sh = 0.5 * (1.0 + em), 0.5 * (1.0 - em)
        xc = x * ch - sh
        hx = sh * ch - x * em
    return (jt / j if jt else 0.0), j, x, ap, am, ch, sh, xc, hx


def closed_form_params(c: CanonicalCoupling, h: float, beta: float) -> ClosedFormParams:
    """Evaluate the five closed-form scalars and the partition function.

    They are a1 = A, a2 = -(jx + jy) sinh(beta J)/J, b1 = C,
    b2 = 2 h sinh(beta J)/J and b3 = -exp(-2 beta jz) sinh(beta j1), all
    times exp(-beta jz - beta J), so log_scale = beta jz + beta J.
    """
    beta = _validate_beta(beta)
    h = float(h)
    _, j, x, ap, am, ch, sh, _, _ = _scaled_form(c, h, beta)
    # sinh(beta J)/J e^-x; J = 0 only at the zero coupling and h = 0, where
    # both of its prefactors vanish
    sj = sh / j if j else 0.0
    a1 = ap + am
    return ClosedFormParams(
        a1, -(c.jx + c.jy) * sj, ch, 2.0 * h * sj, am - ap, abs(c.jx - c.jy), j,
        2.0 * (a1 + ch), beta * c.jz + x,
    )


def pt_spectrum(p: ClosedFormParams) -> np.ndarray:
    """The four partial-transpose eigenvalues, normalized by Z.

    Order: a1 - |a2|, a1 + |a2|, b1 + sqrt(b2^2 + b3^2), b1 - sqrt(b2^2 + b3^2).
    Only the first entry can be negative; the four sum to 1.
    """
    rad = math.hypot(p.b2, p.b3)
    return np.array([p.a1 - abs(p.a2), p.a1 + abs(p.a2), p.b1 + rad, p.b1 - rad]) / p.z


def negativity_tilde(c: CanonicalCoupling, h: float, beta: float) -> float:
    """The un-clamped negativity N~ = (S - A)/(A + C) = -2 (a1 - |a2|)/Z.

    May be negative; the physical negativity is max(N~, 0). Exposed un-clamped
    so root finders can locate sign changes and stationary points.
    """
    r, _, _, ap, am, ch, sh, _, _ = _scaled_form(c, h, _validate_beta(beta))
    a = ap + am
    return (r * sh - a) / (a + ch)


def _stationarity_scaled(c: CanonicalCoupling, h: float, beta: float) -> float:
    """J dN~/dJ = (J^2/4)(1/h) dN~/dh, J = sqrt(4 h^2 + jt^2), in units of min(1, beta jt).

    Equals (A + C)^-2 [jt/J (A xc - hx) + A x sinh x] with x = beta J,
    xc = x cosh x - sinh x and hx = sinh(2x)/2 - x. Its sign and roots in
    h > 0 are those of the field derivative of N~, the trivial h = 0 root
    removed, and it is finite at h = 0, where J = jt. The unit keeps the
    h = 0 value, (beta jt)^2/4 at high T, in range; it is 1 at jt = 0.
    """
    r, _, x, ap, am, ch, sh, xc, hx = _scaled_form(c, h, beta)
    unit = min(beta * c.gaps[0], 1.0) or 1.0  # beta jt
    a = ap + am
    g = a + ch
    return (r * (a * xc - hx) / unit + a * ((x / unit) * sh)) / (g * g)


def _negativity_derivatives(c: CanonicalCoupling, h: float, beta: float):
    """N_b, N_bb, J N_bJ and J^2 N_JJ: derivatives of N~ in beta and J.

    A does not depend on the field. The numerator of
    N_b = ((S - A)_b (A + C) - (S - A)(A + C)_b)/(A + C)^2 reduces to
    jt + A (S_b + C_b) - A_b (C + S), and its beta derivative to
    (C + S)(J^2 A - A_bb); on a canonical coupling both are sums of
    non-negative terms, so N_b and N_bb keep their precision where N~ -> 1.
    4 h^2 = J^2 - jt^2 enters as the product (J - jt)(J + jt) and is never
    formed, so huge fields stay in range. Needs J > 0.
    """
    jt, dp, dm = c.gaps  # jt - kp and jt + km
    r, j, x, ap, am, ch, sh, xc, _ = _scaled_form(c, h, beta)
    dj = 2.0 * h * (2.0 * h / (j + jt))  # J - jt without the cancellation
    cs = ch + r * sh  # C + S
    a = ap + am
    g = a + ch  # A + C
    g_b = (jt - dp) * ap - (dm - jt) * am + j * sh
    n = (r * sh - a) / g
    q = dj * (1.0 + r) * sh  # S_b + C_b - k (C + S) = (jt - k)(C + S) + q
    num = jt * math.exp(-2.0 * x) + ap * (dp * cs + q) + am * (dm * cs + q)
    num_b = cs * (a * dj * (j + jt) + ap * dp * (2.0 * jt - dp) + am * dm * (2.0 * jt - dm))
    n_b = num / (g * g)
    n_bb = (num_b * g - 2.0 * num * g_b) / (g * g * g)
    # J-derivatives times powers of J, free of beta^2 and J^3 factors that
    # leave the float range at extreme beta * s
    xs = x * sh  # J C_J
    jn_j = (r * xc - n * xs) / g
    jn_bj = (jt * xs - n_b * xs - jn_j * g_b - n * j * (sh + x * ch)) / g
    # S - N~ C = A (1 + N~) holds exactly and keeps J^2 N_JJ accurate where N~ -> 1
    j2n_jj = (x * (x * a) * (1.0 + n) - 2.0 * (r * xc + jn_j * xs)) / g
    return n_b, n_bb, jn_bj, j2n_jj
