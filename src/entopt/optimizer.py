"""Exact numerical maximization of the negativity over local fields.

The opposed-z-field negativity N~ is stationary in the field strength h at
the roots of J dN~/dJ = (J^2/4)(1/h) dN~/dh (the trivial h = 0 root removed;
see closed_form). That expression drives three solvers: the optimal field at
fixed temperature, the boundary temperature splitting the zero-field and
finite-field phases, and the temperature sweeps behind the reference curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _negativity_derivatives, _stationarity_scaled, negativity_tilde
from .linalg import NumericalFailure, _eigh
from .measures import _negativity, _pt_spectrum
from .spin_model import PAULI_BASIS, CanonicalCoupling, build_hamiltonian, canonicalize
from .thermal import _beta_from_t, _gibbs, _gibbs_from_spectrum, _validate_beta, gibbs_state, purity


@dataclass(frozen=True)
class OptimizationResult:
    h_op: float
    n_op: float
    phase: str  # "low_t" (h_op = 0) or "high_t"


@dataclass(frozen=True)
class PhasePoint:
    jx_over_abs_jz: float
    jy_over_abs_jz: float
    t_c: float


@dataclass(frozen=True)
class Hypothesis1Report:
    constrained_best: float
    unconstrained_best: float
    best_params: np.ndarray  # (h1x, h1y, h1z, h2x, h2y, h2z) in input units
    gap: float
    restarts: int
    failed_restarts: int
    passed: bool


def brentq(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """A root of f on [a, b] by Brent's method, from end values fa = f(a) > 0 and fb = f(b) < 0
    (or fb == 0, which returns b).

    A line-for-line port of scipy.optimize.brentq (scipy's brentq.c), so roots and the
    evaluations after the two ends agree with scipy's bit for bit, without importing scipy.
    The caller has taken and sign-checked both end values. A NaN value of f, and 200
    iterations without convergence, raise ValueError.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # C's x/0 is inf or nan, which fails the step test: bisect
            if den != 0.0 and 2 * abs(num / den) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, num / den  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise ValueError("no convergence after 200 iterations")


def minimize(fun, x0):
    """scipy's L-BFGS-B at its defaults, imported on first use: importing the package loads no scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, method="L-BFGS-B")


def _failure(what: str, c: CanonicalCoupling, where: str) -> NumericalFailure:
    """The coupling is named to 17 digits, so that the failure reproduces."""
    return NumericalFailure(f"{what} for coupling ({c.jx:.17g}, {c.jy:.17g}, {c.jz:.17g}) {where}")


def _is_maximum(c: CanonicalCoupling, u: float, beta: float, n: float) -> bool:
    """False when N~ at u -+ 1e-5 max(1, u) beats n = N~(u) by more than 1e-10 |n| + 64 eps."""
    delta = 1e-5 * max(1.0, u)
    bound = n + (1e-10 * abs(n) + 2.0**-46)  # 2^-46 = 64 eps
    return not any(negativity_tilde(c, v, beta) > bound for v in (u + delta, max(u - delta, 0.0)))


def optimal_field(c: CanonicalCoupling, beta: float) -> OptimizationResult:
    """Maximize N~ over the opposed-z field strength at fixed temperature.

    Low-temperature phase: the stationarity function is non-positive at h = 0
    and the optimum sits exactly at zero field. High-temperature phase: the
    sign change on (0, h_max] is bracketed and refined with Brent's method.
    Both are solved on the coupling / s at beta s (see CanonicalCoupling.unit).
    """
    beta = _validate_beta(beta)
    s, unit_c = c.unit
    bs = beta * s
    # T/s past the float range (h_op ~ T ln(T/s)), or T -> 0 past it: beta jt overflows, as it
    # does wherever beta s does, jt being at least 2/3 of the norm
    if bs == 0.0 or bs * unit_c.gaps[0] == math.inf:
        what = "s overflows" if bs == math.inf else "|jx + jy| overflows" if bs else "s underflows to 0"
        raise _failure(f"beta {what}", c, f"at beta = {beta:.17g}")
    f0 = _stationarity_scaled(unit_c, 0.0, bs)
    if f0 <= 0.0:
        n0 = max(negativity_tilde(unit_c, 0.0, bs), 0.0)
        return OptimizationResult(0.0, n0, "low_t")

    def stationarity(u):
        return _stationarity_scaled(unit_c, u, bs)

    t = 1.0 / bs
    # capped at 2^1022, so that 2 u and J stay finite; above T/s ~ 1.25e305 the root lies past it
    u_max = min(max(10.0, 5.0 * t * math.log(max(t, 2.0))), 2.0**1022)

    def failure(what):  # the bracket in units of s, whose top s u_max can overflow
        return _failure(what, c, f"at beta = {beta:.17g}, bracket h / s in [0, {u_max:.17g}] "
                                 f"with s = {s:.17g}")

    f_max = stationarity(u_max)
    if not (f0 > 0.0 and f_max < 0.0):  # a NaN or inf end fails too
        past = f_max > 0.0 and u_max == 2.0**1022
        raise failure(f"no field bracket (stationarity {f0!r} at h = 0, {f_max!r} at the top"
                      + "; the optimal field lies past the cap h / s = 2^1022" * past + ")")
    try:
        u_op = brentq(stationarity, 0.0, u_max, f0, f_max, xtol=1e-12, rtol=1e-11)
    except ValueError as exc:  # a NaN stationarity value, or no convergence
        raise failure(f"field root search failed ({exc})") from None
    n_op = negativity_tilde(unit_c, u_op, bs)
    if not _is_maximum(unit_c, u_op, bs, n_op):
        raise failure(f"stationary point at h = {s * u_op:.17g} is not a maximum")
    h_op = s * u_op
    if h_op == math.inf:
        raise failure(f"optimal field overflows in input units (h / s = {u_op:.17g})")
    return OptimizationResult(h_op, max(n_op, 0.0), "high_t")


def boundary_temperature(c: CanonicalCoupling) -> float:
    """Temperature T_c below which the optimizing field vanishes; 0 when it never does.

    It never does exactly when the ground level is degenerate, by the exact
    test CanonicalCoupling.gaps[1] == 0. Otherwise the h -> 0 limit of the
    stationarity function changes sign once in beta, from positive at high
    temperature to non-positive at low temperature, and T_c is that root: one
    Brent solve in y = ln(beta s) on the coupling / s, both ends checked first,
    over beta s in [1e-3, min(1e3 s / (jt - kp), 1e308)]. The top brackets every
    T_c: at the root beta (jt - kp) ~ ln(2 beta jt) <= ~710 up to beta s = 1e308,
    so gaps down to about 1e-305 s are found.
    """
    if c.gaps[1] == 0.0:
        return 0.0
    s, unit_c = c.unit  # beta s cannot overflow

    def g(y):
        return _stationarity_scaled(unit_c, 0.0, math.exp(y))

    # 1e3 s / gap overflows near the float maximum; a unit gap of 0 puts the top past 1e308
    gap = unit_c.gaps[1]
    bottom, top = 1e-3, (min(1e3 / gap, 1e308) if gap > 0.0 else 1e308)
    lo, hi = math.log(bottom), math.log(top)

    def failure(what):  # the window in beta s: beta itself can overflow when s is small
        return _failure(what, c, f"with s = {s:.17g}, on beta s in [{bottom:.17g}, {top:.17g}]")

    g_lo, g_hi = g(lo), g(hi)
    if not g_lo > 0.0:
        raise failure(f"boundary scan starts past the sign change at beta s = {bottom:.17g} ({g_lo!r})")
    if not g_hi <= 0.0:
        raise failure(f"no boundary sign change up to beta s = {top:.17g} ({g_hi!r})")
    try:
        y = brentq(g, lo, hi, g_lo, g_hi, xtol=1e-13, rtol=1e-15)
    except ValueError as exc:  # a NaN stationarity value, or no convergence
        raise failure(f"boundary root search failed ({exc})") from None
    return s / math.exp(y)


# s1^z - s2^z: the opposed fields (0, 0, u) and (0, 0, -u) add u times this to H
_OPPOSED_Z = np.diag([0.0, 2.0, -2.0, 0.0])


@dataclass(frozen=True)
class EnhancementPoint:
    t: float
    h_op: float
    n_op: float
    n_zero_field: float
    enhancement: float
    purity_op: float
    purity_zero: float
    dn_op_dt: float
    d2n_op_dt2: float
    phase: str


def enhancement_curve(c: CanonicalCoupling, temps) -> list[EnhancementPoint]:
    """Optimized vs zero-field negativity and purity along a temperature sweep.

    One optimal_field solve per temperature. The temperature derivatives of
    N_op are exact at (h_op, beta): dN_op/dbeta = N_b by the envelope theorem
    (N~ is stationary in h at h_op, and even in h at h = 0), and
    d^2N_op/dbeta^2 = N_bb - N_bJ^2/N_JJ in the high_t phase by the
    implicit-function theorem on N_J = 0, or N_bb at the fixed J = |jx + jy|
    in the low_t phase (see closed_form._negativity_derivatives). Rows whose
    n_op is clamped to 0 get 0 in both derivative columns. Like the field,
    every column is taken on the coupling / s at beta s (see CanonicalCoupling.unit).
    The zero-field Hamiltonian and its spectrum do not depend on T: they are
    taken once per call, and a row makes one Gibbs eigensolve, at its field.
    """
    s, unit_c = c.unit
    h_zero = build_hamiltonian(unit_c.diagonal)
    zero_spectrum = _eigh(h_zero)
    rows = []
    for t in temps:
        t = float(t)
        beta = _beta_from_t(t)
        res = optimal_field(c, beta)
        u, bs = res.h_op / s, beta * s
        n_zero = max(negativity_tilde(unit_c, 0.0, bs), 0.0)
        rho_op, _ = gibbs_state(h_zero + u * _OPPOSED_Z, bs)
        rho_zero, _ = _gibbs_from_spectrum(*zero_spectrum, bs)
        rho_zero = (rho_zero + rho_zero.conj().T) / 2.0  # symmetrized, as by gibbs_state
        d1 = d2 = 0.0
        if res.n_op > 0.0:
            n_b, n_bb, jn_bj, j2n_jj = _negativity_derivatives(unit_c, u, bs)
            if res.phase == "high_t":
                n_bb -= jn_bj * jn_bj / j2n_jj
            # dT = -dbeta/beta^2, d/dbeta = s d/d(beta s). One factor at a time, so an underflowed
            # N_b never meets an overflowed beta^4 (0 * inf); + 0.0 turns -0.0 into 0.0.
            d1 = -beta * (bs * n_b) + 0.0
            d2 = beta * (beta * (bs * (bs * n_bb + 2.0 * n_b))) + 0.0
        rows.append(EnhancementPoint(
            t=t, h_op=res.h_op, n_op=res.n_op, n_zero_field=n_zero, enhancement=res.n_op - n_zero,
            purity_op=purity(rho_op), purity_zero=purity(rho_zero), dn_op_dt=d1, d2n_op_dt2=d2,
            phase=res.phase,
        ))
    return rows


def d2n_op_dt2_jump(c: CanonicalCoupling, t_c: float) -> float:
    """d^2N_op/dT^2 just above the boundary temperature t_c > 0 minus just below.

    Both phases meet at J = |jx + jy|, where N_J = 0, so the jump is the
    implicit-function term of the high_t phase alone: beta_c^4 N_bJ^2/|N_JJ|, which
    is positive; NumericalFailure when floats lose it in units of s (see
    CanonicalCoupling.unit).
    """
    s, unit_c = c.unit
    beta = s / t_c  # on the coupling / s, where the jump is s^2 times the one asked for
    _, _, jn_bj, j2n_jj = _negativity_derivatives(unit_c, 0.0, beta)
    jump = beta * (beta * (beta * (beta * jn_bj * jn_bj))) / abs(j2n_jj)
    if not 0.0 < jump < math.inf:  # in units of s the true jump is also in range
        raise _failure(f"d2N_op/dT2 jump unresolved ({jump})", c, f"at t_c = {t_c:.17g}")
    return jump / s / s


def phase_diagram(xs, ys, sign_class: str) -> list[PhasePoint]:
    """T_c over a grid of coupling ratios (jx/|jz|, jy/|jz|), spectral norm 1.

    'afm' builds all-positive diagonals, 'fm' all-negative ones. Grid values
    start at the isotropic point (1, 1); each point is independent, so the
    loop is trivially data parallel, and results are ordered by grid index.
    """
    if sign_class not in ("afm", "fm"):
        raise ValueError(f"sign_class must be 'afm' or 'fm', got {sign_class!r}")
    sign = 1.0 if sign_class == "afm" else -1.0
    points = []
    for x in map(float, xs):
        for y in map(float, ys):
            # on Python floats, so a sum that overflows is inf without a warning
            if not (1.0 <= x and 1.0 <= y and x + y < math.inf):
                raise ValueError(f"grid ratios must be >= 1 with a finite sum, got ({x}, {y})")
            # |jx| + |jy| + |jz| is the spectral norm of a one-sign diagonal
            d = sign * np.array([x, y, 1.0]) / (x + y + 1.0)
            c = CanonicalCoupling(d[0], d[1], d[2])
            points.append(PhasePoint(x, y, boundary_temperature(c)))
    return points


def _make_search_objective(j, beta: float):
    """-negativity of the Gibbs state as a function of the six field components."""
    h_int = build_hamiltonian(j).ravel()
    field_basis = PAULI_BASIS[9:]

    def objective(fields):
        rho, _ = _gibbs((h_int + fields @ field_basis).reshape(4, 4), beta)
        return -_negativity(_pt_spectrum(rho))

    return objective


# The search passes when it beats the constrained optimum by no more than this.
_GAP_TOL = 1e-6


def verify_hypothesis1(j, beta: float, restarts: int = 64, seed: int = 0) -> Hypothesis1Report:
    """Multi-start unconstrained field search against the opposed-z optimum.

    The six field components are searched by L-BFGS-B (finite-difference
    gradient, scipy's default options) from the constrained optimum, from
    zero field and from `restarts` uniform draws in a box of half-width 5, in
    units of the coupling's scale s (see CanonicalCoupling.unit; shrunk by
    1/(beta s) when beta s exceeds 1). Values are compared rather than raw
    parameters: local rotations from canonicalization change the optimal
    field's direction but not the achievable negativity. best_params are
    reported in the caller's original units; failed_restarts counts runs that
    L-BFGS-B did not report as converged.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    beta = _validate_beta(beta)
    j = np.asarray(j, dtype=float)
    c = canonicalize(j)
    result = optimal_field(c, beta)  # checks beta s
    constrained = result.n_op
    s = c.unit[0]
    u_op, bs = result.h_op / s, beta * s
    objective = _make_search_objective(j / s, bs)

    # The constrained optimum mapped back to the unrotated frame, plus zero
    # fields, always seed the search; random restarts fill the rest.
    seeded = [
        np.concatenate((c.r1.T @ [0.0, 0.0, u_op], c.r2.T @ [0.0, 0.0, -u_op])),
        np.zeros(6),
    ]
    box = 5.0 / max(1.0, bs)
    rng = np.random.default_rng(seed)
    starts = seeded + [rng.uniform(-box, box, size=6) for _ in range(restarts)]

    best_value = -math.inf
    best_params = np.zeros(6)
    failed = 0
    for start in starts:
        res = minimize(objective, start)
        if not res.success:
            failed += 1
        if -res.fun > best_value:
            best_value = -res.fun
            best_params = res.x
    if not float(np.abs(best_params).max()) * s < math.inf:
        raise _failure("best fields overflow in input units", c, f"at beta = {beta:.17g}")
    gap = float(best_value - constrained)
    return Hypothesis1Report(
        constrained_best=float(constrained),
        unconstrained_best=float(best_value),
        best_params=np.asarray(best_params, dtype=float) * s,
        gap=gap,
        restarts=restarts,
        failed_restarts=failed,
        passed=bool(gap <= _GAP_TOL),
    )
