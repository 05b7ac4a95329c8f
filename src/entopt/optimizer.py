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
from .measures import _negativity, _pt_spectrum
from .spin_model import (
    PAULI_BASIS,
    CanonicalCoupling,
    build_hamiltonian,
    canonicalize,
)
from .thermal import _gibbs, _validate_beta, gibbs_state, purity


class NumericalFailure(RuntimeError):
    """A solver exhausted its bracket or failed to converge."""


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


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int):
    """A root of f on [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A line-for-line port of scipy.optimize.brentq (scipy's brentq.c), so roots
    and iteration counts agree with scipy's bit for bit, without importing
    scipy. Returns (root, iterations); root is None when maxiter iterations
    do not converge. A NaN value of f raises ValueError, as in scipy.
    """

    def fx(x):
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
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
        fcur = fx(xcur)
    return None, maxiter


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on first use: importing the package loads no scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _unit(c: CanonicalCoupling) -> float:
    """The power of two nearest |jx| + |jy| + |jz|, the spectral norm of a canonical coupling.

    N~ depends on the coupling, the field and beta only through beta*J and
    beta*h, so the solvers work in these units; scaling by a power of two is
    exact.
    """
    return 2.0 ** round(math.log2(c.norm))


def _failure(what: str, c: CanonicalCoupling, where: str) -> NumericalFailure:
    """The coupling is named to 17 digits, so that the failure reproduces."""
    return NumericalFailure(f"{what} for coupling ({c.jx:.17g}, {c.jy:.17g}, {c.jz:.17g}) {where}")


def optimal_field(c: CanonicalCoupling, beta: float) -> OptimizationResult:
    """Maximize N~ over the opposed-z field strength at fixed temperature.

    Low-temperature phase: the stationarity function is non-positive at h = 0
    and the optimum sits exactly at zero field. High-temperature phase: the
    sign change on (0, h_max] is bracketed and refined with Brent's method,
    in units of the coupling's scale s (see _unit).
    """
    beta = _validate_beta(beta)
    if _stationarity_scaled(c, 0.0, beta) <= 0.0:
        n0 = max(negativity_tilde(c, 0.0, beta), 0.0)
        return OptimizationResult(0.0, n0, "low_t")
    s = _unit(c)

    def stationarity(u):
        return _stationarity_scaled(c, s * u, beta)

    t = 1.0 / (beta * s)
    u_max = max(10.0, 5.0 * t * math.log(max(t, 2.0)))

    def failure(what):
        return _failure(what, c, f"at beta = {beta:.17g}, bracket [0, {s * u_max:.17g}]")

    if stationarity(u_max) >= 0.0:
        raise failure("no field bracket")
    u_op, _ = brentq(stationarity, 0.0, u_max, xtol=1e-12, rtol=1e-11, maxiter=200)
    if u_op is None:
        raise failure("field root did not converge")
    h_op = s * u_op
    n_op = negativity_tilde(c, h_op, beta)
    delta = s * 1e-5 * max(1.0, u_op)
    slack = 1e-10 * max(1.0, abs(n_op))
    if (
        negativity_tilde(c, h_op + delta, beta) > n_op + slack
        or negativity_tilde(c, max(h_op - delta, 0.0), beta) > n_op + slack
    ):
        raise failure(f"stationary point at h = {h_op:.17g} is not a maximum")
    return OptimizationResult(h_op, max(n_op, 0.0), "high_t")


# boundary_temperature's beta window, in units of 1/s (see _unit); its top
# end grows on small level gaps, up to beta s = 1e308.
_BETA_WINDOW = (1e-3, 1e16)


def boundary_temperature(c: CanonicalCoupling) -> float:
    """Temperature T_c below which the optimizing field vanishes; 0 when it never does.

    It never does exactly when the ground level is degenerate, by the exact
    test CanonicalCoupling.gaps[1] == 0. Otherwise the h -> 0 limit of the
    stationarity function changes sign once in beta, from positive at high
    temperature to non-positive at low temperature, and T_c is that root: one
    Brent solve in y = ln(beta s) on the coupling / s, both ends checked first,
    over beta s in [1e-3, max(1e16, 1e3 s / (jt - kp))]: at the root beta
    (jt - kp) ~ ln(2 beta jt) < 1e3, so gaps down to about 1e-305 s are found.
    """
    if c.gaps[1] == 0.0:
        return 0.0
    s = _unit(c)
    unit_c = CanonicalCoupling(c.jx / s, c.jy / s, c.jz / s)  # exact; beta s cannot overflow

    def g(y):
        return _stationarity_scaled(unit_c, 0.0, math.exp(y))

    bottom = _BETA_WINDOW[0]
    top = min(max(_BETA_WINDOW[1], 1e3 * s / c.gaps[1]), 1e308)
    lo, hi = math.log(bottom), math.log(top)

    def failure(what):  # the window in beta s: beta itself can overflow when s is small
        return _failure(what, c, f"with s = {s:.17g}, on beta s in [{bottom:.17g}, {top:.17g}]")

    if g(lo) <= 0.0:
        raise failure(f"boundary scan starts past the sign change at beta s = {bottom:.17g}")
    if g(hi) > 0.0:
        raise failure(f"no boundary sign change up to beta s = {top:.17g}")
    y, _ = brentq(g, lo, hi, xtol=1e-13, rtol=1e-15, maxiter=200)
    if y is None:
        raise failure("boundary root did not converge")
    return s / math.exp(y)


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
    n_op is clamped to 0 get 0 in both derivative columns.
    """
    rows = []
    for t in temps:
        t = float(t)
        if not (0.0 < t < math.inf):
            raise ValueError(f"temperature must be finite and positive, got {t}")
        beta = 1.0 / t
        res = optimal_field(c, beta)
        n_zero = max(negativity_tilde(c, 0.0, beta), 0.0)
        rho_op, _ = gibbs_state(
            build_hamiltonian(c.diagonal, (0.0, 0.0, res.h_op), (0.0, 0.0, -res.h_op)), beta
        )
        rho_zero, _ = gibbs_state(build_hamiltonian(c.diagonal), beta)
        d1 = d2 = 0.0
        if res.n_op > 0.0:
            n_b, n_bb, jn_bj, j2n_jj = _negativity_derivatives(c, res.h_op, beta)
            if res.phase == "high_t":
                n_bb -= jn_bj * jn_bj / j2n_jj
            # dT = -dbeta/beta^2. One factor of beta at a time, so an
            # underflowed N_b never meets an overflowed beta^4 (0 * inf), and
            # + 0.0 turns -0.0 into 0.0.
            d1 = -beta * (beta * n_b) + 0.0
            d2 = beta * (beta * (beta * (beta * n_bb + 2.0 * n_b))) + 0.0
        rows.append(
            EnhancementPoint(
                t=t,
                h_op=res.h_op,
                n_op=res.n_op,
                n_zero_field=n_zero,
                enhancement=res.n_op - n_zero,
                purity_op=purity(rho_op),
                purity_zero=purity(rho_zero),
                dn_op_dt=d1,
                d2n_op_dt2=d2,
                phase=res.phase,
            )
        )
    return rows


def d2n_op_dt2_jump(c: CanonicalCoupling, t_c: float) -> float:
    """d^2N_op/dT^2 just above the boundary temperature t_c > 0 minus just below.

    Both phases meet at J = |jx + jy|, where N_J = 0, so the jump is the
    implicit-function term of the high_t phase alone: beta_c^4 N_bJ^2/|N_JJ|.
    """
    beta = 1.0 / t_c
    _, _, jn_bj, j2n_jj = _negativity_derivatives(c, 0.0, beta)
    return beta * (beta * (beta * (beta * jn_bj * jn_bj))) / abs(j2n_jj)


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
    for x in xs:
        for y in ys:
            if not (1.0 <= x < math.inf and 1.0 <= y < math.inf):
                raise ValueError(f"grid ratios must be finite and >= 1, got ({x}, {y})")
            # |jx| + |jy| + |jz| is the spectral norm of a one-sign diagonal
            d = sign * np.array([x, y, 1.0]) / (x + y + 1.0)
            c = CanonicalCoupling(d[0], d[1], d[2])
            points.append(PhasePoint(float(x), float(y), boundary_temperature(c)))
    return points


def _make_search_objective(j, beta: float):
    """-negativity of the Gibbs state as a function of the six field components."""
    h_int = build_hamiltonian(j).ravel()
    field_basis = PAULI_BASIS[9:]

    def objective(fields):
        rho, _ = _gibbs((h_int + fields @ field_basis).reshape(4, 4), beta)
        return -_negativity(float(_pt_spectrum(rho)[0]))

    return objective


# The search passes when it beats the constrained optimum by no more than this.
_GAP_TOL = 1e-6


def verify_hypothesis1(j, beta: float, restarts: int = 64, seed: int = 0) -> Hypothesis1Report:
    """Multi-start unconstrained field search against the opposed-z optimum.

    The six field components are searched by L-BFGS-B (finite-difference
    gradient, scipy's default options) from the constrained optimum, from
    zero field and from `restarts` uniform draws in a box of half-width 5, in
    units where the spectral norm of H_int is 1 (shrunk by 1/beta when beta
    exceeds 1 in those units). Values are compared rather than raw
    parameters: local rotations from canonicalization change the optimal
    field's direction but not the achievable negativity. best_params are
    reported in the caller's original units; failed_restarts counts runs that
    L-BFGS-B did not report as converged.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    j = np.asarray(j, dtype=float)
    c = canonicalize(j)
    scale = c.norm
    if scale == 0.0:
        zero = np.zeros(6)
        return Hypothesis1Report(0.0, 0.0, zero, 0.0, restarts, 0, True)
    jn = j / scale
    beta_n = beta * scale
    c = CanonicalCoupling(c.jx / scale, c.jy / scale, c.jz / scale, c.r1, c.r2)
    result = optimal_field(c, beta_n)
    constrained = result.n_op
    objective = _make_search_objective(jn, beta_n)

    # The constrained optimum mapped back to the unrotated frame, plus zero
    # fields, always seed the search; random restarts fill the rest.
    seeded = [
        np.concatenate((c.r1.T @ [0.0, 0.0, result.h_op], c.r2.T @ [0.0, 0.0, -result.h_op])),
        np.zeros(6),
    ]
    box = 5.0 / max(1.0, beta_n)
    rng = np.random.default_rng(seed)
    starts = seeded + [rng.uniform(-box, box, size=6) for _ in range(restarts)]

    best_value = -math.inf
    best_params = np.zeros(6)
    failed = 0
    for start in starts:
        res = minimize(objective, start, method="L-BFGS-B")
        if not res.success:
            failed += 1
        if -res.fun > best_value:
            best_value = -res.fun
            best_params = res.x
    gap = float(best_value - constrained)
    return Hypothesis1Report(
        constrained_best=float(constrained),
        unconstrained_best=float(best_value),
        best_params=np.asarray(best_params, dtype=float) * scale,
        gap=gap,
        restarts=restarts,
        failed_restarts=failed,
        passed=bool(gap <= _GAP_TOL),
    )
