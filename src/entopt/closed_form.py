"""The opposed-z-field closed form: N~, its partial-transpose spectrum and its derivatives.

For H = sum_i J_i s1^i s2^i + h (s1^z - s2^z) on a canonical diagonal
coupling, the negativity of the Gibbs state depends on the field only through
J = sqrt(4 h^2 + jt^2) and on the temperature only through beta:

    N~ = (S - A)/(A + C),  A = exp(-2 beta jz) cosh(beta j1),
                           S = jt sinh(beta J)/J,  C = cosh(beta J),

with jt = |jx + jy| and j1 = |jx - jy|. `_scaled_form` evaluates every
exponential of this form at one common scale exp(-m), m = max(beta J,
beta (j1 - 2 jz)), so no exponent is positive and nothing overflows; every
quotient below is invariant under that factor. The partial-transpose
spectrum, N~, its field stationarity J dN~/dJ and its beta and J derivatives
are short formulas on top of it.
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
    """The closed form's terms at one (beta, J), each exponential times exp(-m).

    Returns (r, J, x, m, ap, am, ch, sh, xc, hx) with x = beta J and
    r = jt/J (0 at jt = 0); A e^-m = ap + am, the halves
    exp(beta kp - m)/2 and exp(-beta km - m)/2 with kp, km = j1 -+ 2 jz;
    C e^-m = ch; sinh(x) e^-m = sh; (x cosh x - sinh x) e^-m = xc; and
    (sinh(2x)/2 - x) e^-2m = hx. xc and hx come from their series below
    x = 0.2, where the differences cancel. m = max(x, beta kp) keeps every
    exponent non-positive; on a canonical coupling jt >= |kp|, so m = x up to
    the canonical slack.
    """
    jt = abs(c.jx + c.jy)
    j1 = abs(c.jx - c.jy)
    kp = j1 - 2.0 * c.jz
    j = math.hypot(2.0 * h, jt)
    x = beta * j
    m = max(x, beta * kp)
    ap = 0.5 * math.exp(beta * kp - m)
    am = 0.5 * math.exp(-beta * (j1 + 2.0 * c.jz) - m)
    if x < 0.2:
        e = math.exp(-m)
        ch, sh = math.cosh(x) * e, math.sinh(x) * e
        x2 = x * x
        xc = x * x2 * (1.0 / 3.0 + x2 * (1.0 / 30.0 + x2 * (1.0 / 840.0 + x2 / 45360.0))) * e
        hx = x * x2 * (2.0 / 3.0 + x2 * (2.0 / 15.0 + x2 * (4.0 / 315.0 + x2 * 2.0 / 2835.0)))
        hx *= e * e
    else:
        ep, em = math.exp(x - m), math.exp(-x - m)
        ch, sh = 0.5 * (ep + em), 0.5 * (ep - em)
        xc = x * ch - sh
        hx = sh * ch - x * (ep * em)
    return (jt / j if jt else 0.0), j, x, m, ap, am, ch, sh, xc, hx


def closed_form_params(c: CanonicalCoupling, h: float, beta: float) -> ClosedFormParams:
    """Evaluate the five closed-form scalars and the partition function.

    They are a1 = A, a2 = -(jx + jy) sinh(beta J)/J, b1 = C,
    b2 = 2 h sinh(beta J)/J and b3 = -exp(-2 beta jz) sinh(beta j1), all
    times exp(-beta jz - m), so log_scale = beta jz + m.
    """
    beta = _validate_beta(beta)
    h = float(h)
    _, j, _, m, ap, am, ch, sh, _, _ = _scaled_form(c, h, beta)
    # sinh(beta J)/J e^-m; J = 0 only at the zero coupling and h = 0, where
    # both of its prefactors vanish
    sj = sh / j if j else 0.0
    a1 = ap + am
    return ClosedFormParams(
        a1, -(c.jx + c.jy) * sj, ch, 2.0 * h * sj, am - ap, abs(c.jx - c.jy), j,
        2.0 * (a1 + ch), beta * c.jz + m,
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
    r, _, _, _, ap, am, ch, sh, _, _ = _scaled_form(c, h, _validate_beta(beta))
    a = ap + am
    return (r * sh - a) / (a + ch)


def _stationarity_scaled(c: CanonicalCoupling, h: float, beta: float) -> float:
    """J dN~/dJ at J = sqrt(4 h^2 + jt^2), which is (J^2/4)(1/h) dN~/dh.

    Equals (A + C)^-2 [jt/J (A xc - hx) + A x sinh x] with x = beta J,
    xc = x cosh x - sinh x and hx = sinh(2x)/2 - x. Its sign and roots in
    h > 0 are those of the field derivative of N~, the trivial h = 0 root
    removed, and it is finite at h = 0, where J = jt.
    """
    r, _, x, _, ap, am, ch, sh, xc, hx = _scaled_form(c, h, beta)
    a = ap + am
    g = a + ch
    return (r * (a * xc - hx) + a * (x * sh)) / (g * g)


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
    jt = abs(c.jx + c.jy)
    j1 = abs(c.jx - c.jy)
    kp, km = j1 - 2.0 * c.jz, j1 + 2.0 * c.jz  # jt -+ kp, jt -+ km >= 0
    r, j, x, m, ap, am, ch, sh, xc, _ = _scaled_form(c, h, beta)
    dj = 2.0 * h * (2.0 * h / (j + jt))  # J - jt without the cancellation
    cs = ch + r * sh  # C + S
    a = ap + am
    g = a + ch  # A + C
    g_b = kp * ap - km * am + j * sh
    n = (r * sh - a) / g
    q = dj * (1.0 + r) * sh  # S_b + C_b - k (C + S) = (jt - k)(C + S) + q
    num = jt * math.exp(-2.0 * m) + ap * ((jt - kp) * cs + q) + am * ((jt + km) * cs + q)
    num_b = cs * (a * dj * (j + jt) + ap * (jt - kp) * (jt + kp) + am * (jt + km) * (jt - km))
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
