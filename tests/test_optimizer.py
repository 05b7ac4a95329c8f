import dataclasses
import json
import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from conftest import random_canonical, regime_couplings
from hypothesis import given, settings
from scipy.optimize import brentq

from entopt.asymptotics import AsymptoteDomainError, high_t_hop_exact, low_t_asymptote
from entopt.closed_form import _negativity_derivatives, negativity_tilde
import entopt.cli as cli
import entopt.optimizer as optimizer
from entopt.optimizer import (
    EnhancementPoint,
    NumericalFailure,
    _make_search_objective,
    _stationarity_scaled,
    boundary_temperature,
    d2n_op_dt2_jump,
    enhancement_curve,
    optimal_field,
    phase_diagram,
    verify_hypothesis1,
)
from entopt.measures import negativity
from entopt.spin_model import CanonicalCoupling, build_hamiltonian, canonicalize
from entopt.thermal import _beta_from_t, gibbs_state, purity

ISO = CanonicalCoupling(1 / 3, 1 / 3, 1 / 3)
FIG3 = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
FERRO_DEGEN = CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)


def stationarity_from_finite_differences(c, h, beta):
    """(1/h) dN~/dh rescaled to J dN~/dJ = (J^2/4)(1/h) dN~/dh, J = sqrt(4 h^2 + jt^2),
    in units of min(1, beta jt)."""
    if h == 0.0:
        # N~(h) is even in h; Richardson-extrapolate 2(N~(d) - N~(0))/d^2
        delta = 2e-3

        def quad_slope(d):
            return 2.0 * (negativity_tilde(c, d, beta) - negativity_tilde(c, 0.0, beta)) / d**2

        slope = (4.0 * quad_slope(delta / 2.0) - quad_slope(delta)) / 3.0
    else:
        delta = 1e-6 * max(1.0, h)
        slope = (
            negativity_tilde(c, h + delta, beta) - negativity_tilde(c, h - delta, beta)
        ) / (2.0 * delta * h)
    j2 = math.hypot(2.0 * h, c.jx + c.jy)
    return slope * j2**2 / 4.0 / min(1.0, beta * abs(c.jx + c.jy))


def test_stationarity_matches_derivative_oracle():
    rng = np.random.default_rng(67)
    for _ in range(40):
        c = random_canonical(rng)
        h = rng.uniform(0.1, 3.0)
        beta = rng.uniform(0.3, 3.0)
        got = _stationarity_scaled(c, h, beta)
        ref = stationarity_from_finite_differences(c, h, beta)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_stationarity_h_zero_limit_oracle():
    for c, beta in ((FIG3, 1.0), (ISO, 0.5), (FERRO_DEGEN, 2.0)):
        got = _stationarity_scaled(c, 0.0, beta)
        ref = stationarity_from_finite_differences(c, 0.0, beta)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_stationarity_sign_structure_across_phases():
    # below T_c: single sign over the whole bracket
    beta = 1.0 / 0.5
    values = [_stationarity_scaled(ISO, h, beta) for h in np.linspace(1e-6, 100.0, 500)]
    assert all(v < 0.0 for v in values)
    # above T_c: a sign change exists within (0, 20]
    beta = 1.0 / 2.0
    assert _stationarity_scaled(ISO, 0.0, beta) > 0.0
    assert any(_stationarity_scaled(ISO, h, beta) < 0.0 for h in np.linspace(0.1, 20.0, 200))


def test_stationarity_no_overflow_extremes():
    # the scaled evaluator stays finite even where the raw exponentials exceed
    # the float range, and its sign is that of the finite-difference oracle
    for beta in (1e-3, 1.0, 1e3):
        for h in (0.0, 1e-6, 1.0, 50.0):
            for c in (FIG3, FERRO_DEGEN):
                value = _stationarity_scaled(c, h, beta)
                assert math.isfinite(value)
                ref = stationarity_from_finite_differences(c, h, beta)
                if ref != 0.0:
                    assert math.copysign(1.0, ref) == math.copysign(1.0, value)


def test_optimal_field_low_temperature_phase():
    res = optimal_field(ISO, 1.0 / 0.5)
    assert res.phase == "low_t"
    assert res.h_op == 0.0
    assert res.n_op == pytest.approx(max(negativity_tilde(ISO, 0.0, 2.0), 0.0), abs=1e-15)
    assert res.n_op > 0.6
    # the singlet dominates as T -> 0
    assert optimal_field(ISO, 50.0).n_op > 1.0 - 1e-12


def test_optimal_field_ferro_degenerate_always_high_t():
    for t in (0.1, 1.0, 10.0):
        res = optimal_field(FERRO_DEGEN, 1.0 / t)
        assert res.phase == "high_t"
        assert res.h_op > 0.0
        assert res.n_op > 0.0


def test_optimal_field_matches_lambert_asymptote_at_high_t():
    beta = 0.01
    res = optimal_field(ISO, beta)
    asym = high_t_hop_exact(ISO.jx, ISO.jy, beta)
    assert abs(asym.h_op / res.h_op - 1.0) < 1e-3


def test_optimal_field_is_a_maximum():
    beta = 1.0
    res = optimal_field(FIG3, beta)
    assert res.phase == "high_t"
    for delta in (1e-4, 1e-2):
        assert negativity_tilde(FIG3, res.h_op, beta) >= negativity_tilde(
            FIG3, res.h_op + delta, beta
        )
        assert negativity_tilde(FIG3, res.h_op, beta) >= negativity_tilde(
            FIG3, max(res.h_op - delta, 0.0), beta
        )


def test_optimal_field_zero_coupling():
    for beta in (1e-300, 1.0, 1e300):
        res = optimal_field(CanonicalCoupling(0.0, 0.0, 0.0), beta)
        assert res.h_op == 0.0
        assert res.n_op == 0.0


def test_optimal_field_raises_when_beta_s_underflows():
    # T/s past the float range, where h_op ~ T ln(T/s)/2 ~ 4e32 here is still finite;
    # solved on the raw coupling this returned h_op = 0 in the low_t phase
    c = CanonicalCoupling(1e-300, 1e-300, 1e-300)
    with pytest.raises(NumericalFailure, match=r"underflows to 0 .* at beta = 1\.0000000000000001e-30"):
        optimal_field(c, 1e-30)
    assert optimal_field(c, 1.0).phase == "high_t"  # T/s = 3.3e299


def test_optimal_field_high_t_beyond_t_1e162():
    # J dN~/dJ at h = 0 is about (beta jt)^2/4 here, below the float range;
    # its sign still decides the phase
    for t in (1e163, 1e200, 1e300):
        res = optimal_field(FIG3, 1.0 / t)
        asym = high_t_hop_exact(FIG3.jx, FIG3.jy, 1.0 / t)
        assert res.phase == "high_t"
        assert res.n_op == pytest.approx(asym.n_op, rel=1e-6, abs=0.0)
        assert res.h_op == pytest.approx(asym.h_op, rel=1e-6, abs=0.0)


def test_field_bracket_top_is_capped_below_the_float_maximum():
    # the top 5 t ln t is capped at h / s = 2^1022: below T/s ~ 1.25e305 the root lies under it
    for t in (1e305, 1.25e305):
        res = optimal_field(FIG3, 1.0 / t)
        assert res.h_op == pytest.approx(high_t_hop_exact(FIG3.jx, FIG3.jy, 1.0 / t).h_op, rel=1e-12)
    assert optimal_field(FIG3, 1e-305).h_op == pytest.approx(3.5816e307, rel=1e-4)
    # above it, a finite top value and the cap are named
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 1.0 / 2e305)
    message = str(exc.value)
    assert "at the top; the optimal field lies past the cap h / s = 2^1022)" in message
    assert "nan" not in message and "inf" not in message
    # with s = 4 the capped top is past the float maximum in input units: it is named in units of s
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(CanonicalCoupling(2.0, 1.5, 0.5), 1e-306)
    message = str(exc.value)
    assert "bracket h / s in [0, 4.4942328371557898e+307] with s = 4" in message
    assert "inf" not in message


def test_degenerate_h_op_matches_low_t_asymptote():
    # on a degenerate ground level the field stays finite as T -> 0, and
    # h_op ~ sqrt(T ln(1/T)) is resolved far below the coupling scale
    triply = CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3)
    for c in (FERRO_DEGEN, CanonicalCoupling(1.0, 0.0, 0.0), triply):
        for t in (1e-12, 1e-15):
            res = optimal_field(c, 1.0 / t)
            assert res.phase == "high_t"
            assert res.h_op / low_t_asymptote(c, 1.0 / t).h_op == pytest.approx(1.0, abs=1e-6)


def test_boundary_temperatures_reference_values():
    assert boundary_temperature(ISO) == pytest.approx(0.8168, abs=1e-3)
    assert boundary_temperature(FIG3) == pytest.approx(0.6803, abs=1e-3)
    assert boundary_temperature(FERRO_DEGEN) == 0.0
    assert boundary_temperature(CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3)) == 0.0


def test_boundary_ising_corner():
    assert boundary_temperature(CanonicalCoupling(1.0, 0.0, 0.0)) == 0.0


def test_boundary_below_the_first_window():
    # T_c far below 1e-3 of the coupling scale is still found, and the phase
    # changes across it; only a degenerate ground level gives T_c = 0
    cases = [
        (CanonicalCoupling(-0.5, -0.25, -0.249), 2.24e-4, 2.37e-4),
        (CanonicalCoupling(1.0, 1e-6, 0.0), 1.19e-7, 1.26e-7),
        (CanonicalCoupling(-0.5, -0.25, -0.25 + 1e-12), 6.0e-14, 7.0e-14),
        (CanonicalCoupling(-0.75, -0.5, -0.5 + 1e-16), 5.4e-18, 5.5e-18),
        # the window's top follows the gap jt - kp = 2e-300: T_c ~ gap/ln(2 beta jt)
        (CanonicalCoupling(1.0, 1e-300, 0.0), 2e-300 / 700.0, 2e-300 / 690.0),
    ]
    for c, lo, hi in cases:
        t_c = boundary_temperature(c)
        assert lo <= t_c <= hi
        assert optimal_field(c, 1.0 / (0.5 * t_c)).phase == "low_t"
        assert optimal_field(c, 1.0 / (2.0 * t_c)).phase == "high_t"
    (point,) = phase_diagram([1e300], [1.0], "afm")  # (1, 1e-300, 1e-300), gap 4e-300
    assert 4e-300 / 700.0 <= point.t_c <= 4e-300 / 690.0


def mpmath_boundary(c):
    """T_c at 60 digits: bisection in ln beta of the sign of the h = 0 numerator
    A (x cosh x - sinh x + x sinh x) - (sinh(2x)/2 - x), x = beta jt, of J dN~/dJ."""
    with mpmath.workdps(60):
        jx, jy, jz = (mpmath.mpf(v) for v in (c.jx, c.jy, c.jz))
        jt, j1 = abs(jx + jy), abs(jx - jy)

        def positive(y):
            beta = mpmath.exp(y)
            x = beta * jt
            a = mpmath.exp(-2 * beta * jz) * mpmath.cosh(beta * j1)
            xc = x * mpmath.cosh(x) - mpmath.sinh(x)
            return a * (xc + x * mpmath.sinh(x)) - (mpmath.sinh(2 * x) / 2 - x) > 0

        lo, hi = mpmath.mpf(0), 300 * mpmath.log(10)
        assert positive(lo) and not positive(hi)
        while hi - lo > mpmath.mpf(10) ** -30:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if positive(mid) else (lo, mid)
        return float(mpmath.exp(-lo))


def test_boundary_matches_mpmath_near_degeneracy():
    # (-0.75, -0.5, -0.5 + gap): T_c falls with the gap, far below the scale
    refs = {1e-9: 8.2884861453488241e-11, 1e-12: 6.3900979424554857e-14,
            1e-14: 5.5442002995698326e-16}
    for gap, ref in refs.items():
        c = CanonicalCoupling(-0.75, -0.5, -0.5 + gap)
        t_c = mpmath_boundary(c)
        assert t_c == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert boundary_temperature(c) == pytest.approx(t_c, rel=1e-12, abs=0.0)


def mpmath_optimum(c, t):
    """(h_op, n_op, dn_op_dt) at 60 digits: bisection in h of the sign of the
    numerator (jt/J)(A xc - hx) + A x sinh x of J dN~/dJ, x = beta J (h = 0 when
    it is not positive at h = 0), then N~ and -beta^2 dN~/dbeta at that field.
    1 - N~ = (2A + e^-x + (1 - jt/J) sinh x)/(A + C) is a sum of positive terms,
    so N~ and its beta derivative keep their digits where N~ -> 1."""
    with mpmath.workdps(60):
        jx, jy, jz = (mpmath.mpf(v) for v in (c.jx, c.jy, c.jz))
        jt, j1 = abs(jx + jy), abs(jx - jy)
        beta = 1 / mpmath.mpf(t)
        a = mpmath.exp(-2 * beta * jz) * mpmath.cosh(beta * j1)
        a_b = -2 * jz * a + j1 * mpmath.exp(-2 * beta * jz) * mpmath.sinh(beta * j1)

        def positive(h):
            j = mpmath.sqrt(4 * h * h + jt * jt)
            x = beta * j
            xc = x * mpmath.cosh(x) - mpmath.sinh(x)
            return jt / j * (a * xc - (mpmath.sinh(2 * x) / 2 - x)) + a * x * mpmath.sinh(x) > 0

        lo = hi = mpmath.mpf(0)
        if positive(lo):
            hi = mpmath.mpf(1)
            while positive(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > mpmath.mpf(10) ** -40 * hi:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if positive(mid) else (lo, mid)
        h = (lo + hi) / 2
        j = mpmath.sqrt(4 * h * h + jt * jt)
        x, r = beta * j, jt / j
        p = 2 * a + mpmath.exp(-x) + (1 - r) * mpmath.sinh(x)
        q = a + mpmath.cosh(x)
        p_b = 2 * a_b - j * mpmath.exp(-x) + (1 - r) * j * mpmath.cosh(x)
        q_b = a_b + j * mpmath.sinh(x)
        return float(h), float(1 - p / q), float(-beta * beta * (p * q_b - p_b * q) / (q * q))


def test_optimum_matches_mpmath():
    """h_op, n_op and dn_op_dt against mpmath_optimum, on FIG3, ISO and the
    doubly and triply degenerate ferromagnets (all of norm 1), from T = 1e-6
    to 1e2 plus 1.001 T_c. h_op holds to Brent's tolerances; dn_op_dt inherits
    h_op's error through N_bJ, up to 6.5e-10 on the degenerate couplings at
    T = 1e-6. Not covered, both open: on degenerate couplings h_op is limited
    by rounding and by the field solve's absolute xtol below T/s ~ 1e-12, and
    d2n_op_dt2 loses digits at T/s = 1e-5 to 1e-6."""
    temps = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]
    for c in (FIG3, ISO, FERRO_DEGEN, CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3)):
        t_c = boundary_temperature(c)
        ts = temps + [1.001 * t_c] if t_c else temps
        for t, row in zip(ts, enhancement_curve(c, ts)):
            h_op, n_op, dn_op_dt = mpmath_optimum(c, t)
            assert (row.phase == "low_t") == (h_op == 0.0), (c.diagonal, t)
            assert row.h_op == pytest.approx(h_op, rel=1e-10, abs=1e-12), (c.diagonal, t)
            assert row.n_op == pytest.approx(n_op, rel=1e-14, abs=0.0), (c.diagonal, t)
            assert row.dn_op_dt == pytest.approx(dn_op_dt, rel=2e-9, abs=0.0), (c.diagonal, t)


def degenerate_ground_level(c):
    """The exact test on a canonical coupling: jz <= 0 and jz equals jx or jy."""
    return c.jz <= 0.0 and (c.jz == c.jx or c.jz == c.jy)


def test_one_degeneracy_rule():
    # the exact test, a zero gap jt - kp (CanonicalCoupling.gaps), T_c == 0 and
    # the existence of a low-temperature asymptote agree on every coupling here
    rng = np.random.default_rng(89)
    couplings = (
        [ISO, FIG3, FERRO_DEGEN, CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3),
         CanonicalCoupling(0.0, 0.0, 0.0), CanonicalCoupling(1.0, 1e-6, 0.0),
         CanonicalCoupling(-0.5, -0.25, -0.249), CanonicalCoupling(-0.5, -0.25, -0.25 + 1e-12),
         CanonicalCoupling(-0.75, -0.5, -0.49999999999825), CanonicalCoupling(-0.5, -0.5, -0.25),
         CanonicalCoupling(-0.75, -0.5, -0.5 + 1e-16), CanonicalCoupling(-0.8, -0.9, -0.3),
         CanonicalCoupling(-0.9, -0.7, -0.2), CanonicalCoupling(0.0, -0.5, 0.0)]
        + EXTREME_COUPLINGS + SWEEP_CLASSES + [random_canonical(rng) for _ in range(20)]
    )
    for c in couplings:
        degenerate = degenerate_ground_level(c)
        assert (c.gaps[1] == 0.0) == degenerate, c.diagonal
        assert (boundary_temperature(c) == 0.0) == degenerate, c.diagonal
        if not degenerate:
            with pytest.raises(AsymptoteDomainError, match="h_op = 0"):
                low_t_asymptote(c, 1e6)
        elif c.norm > 0.0:
            assert low_t_asymptote(c, 1e6).degeneracy in ("doubly", "triply")
    # canonical is exact: jz may not pass jy by any amount, so jt - kp < 0 never occurs
    with pytest.raises(ValueError, match="canonicalize"):
        CanonicalCoupling(-0.5, -0.25, -0.25 - 1e-13)


def test_rotated_degenerate_couplings_keep_zero_gap():
    # canonicalize's SVD returns equal singular values an ulp or so apart;
    # a rotated degenerate level must still have T_c = 0 and its asymptote
    rng = np.random.default_rng(97)

    def rotation():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        return q * np.linalg.det(q)

    diagonals = [(-0.5, -0.25, -0.25), (-1 / 3, -1 / 3, -1 / 3), (1.0, 0.0, 0.0), (-0.75, -0.5, -0.5)]
    matrices = [np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, -2.0]])]
    for d in diagonals:
        for _ in range(25):
            r = rotation()
            matrices += [r @ np.diag(d) @ r.T, r @ np.diag(d) @ rotation().T]
    for j in matrices:
        c = canonicalize(j)
        assert c.gaps[1] == 0.0, c.diagonal
        assert boundary_temperature(c) == 0.0
        assert low_t_asymptote(c, 1e6).degeneracy in ("doubly", "triply")


def first_crossing_boundary(c):
    """T_c by a scan: the first sign change of the h -> 0 stationarity on 40
    points per decade of beta s from 1e-3 to 1e16, refined by Brent's method."""
    s = c.unit[0]
    grid = np.concatenate((np.geomspace(1e-3, 1e3, 241), np.geomspace(1e3, 1e16, 521)[1:]))

    def g(b):
        return _stationarity_scaled(c, 0.0, b / s)

    prev, g_prev = grid[0], g(grid[0])
    assert g_prev > 0.0
    for b in grid[1:]:
        g_b = g(b)
        if g_prev > 0.0 >= g_b:
            return s / brentq(g, prev, b, xtol=1e-14, rtol=1e-12, maxiter=200)
        prev, g_prev = b, g_b
    raise AssertionError(f"no sign change for {c}")


@settings(max_examples=150)
@given(regime_couplings())
def test_boundary_stationarity_changes_sign_once(c):
    # the h -> 0 stationarity changes sign at most once over the solver's
    # window, so the one root boundary_temperature brackets is T_c
    # the old 105 points per decade down to T = 1e-20 of the norm, below
    # every T_c of the draws, and 5 per decade on to 1e-300 of it
    dense = np.geomspace(1e-3, 1e20, 2422)
    betas = np.concatenate((dense, np.geomspace(1e20, 1e300, 1401)[1:])) / c.norm
    positive = np.array([_stationarity_scaled(c, 0.0, b) > 0.0 for b in betas])
    changes = np.flatnonzero(positive[:-1] != positive[1:])
    t_c = boundary_temperature(c)
    assert (t_c == 0.0) == degenerate_ground_level(c)
    if t_c == 0.0:
        assert changes.size == 0
        return
    assert positive[0] and changes.size == 1
    # T_c lies in the sign-change cell, to the solver's tolerance
    k = changes[0]
    assert k < dense.size - 1
    assert (1.0 - 1e-12) / betas[k + 1] <= t_c <= (1.0 + 1e-12) / betas[k]
    if t_c >= 1e-6 * c.norm:
        assert t_c == pytest.approx(first_crossing_boundary(c), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "value, what, beta",
    [(1.0, "no boundary sign change", "1000"),
     (-1.0, "boundary scan starts past the sign change", "0.001")],
)
def test_boundary_failures_name_coupling_and_beta_window(monkeypatch, value, what, beta):
    monkeypatch.setattr(optimizer, "_stationarity_scaled", lambda c, h, b: value)
    with pytest.raises(NumericalFailure) as exc:
        boundary_temperature(FIG3)
    message = str(exc.value)
    assert what in message
    assert "(0.5, 0.33333333333333331, 0.16666666666666666)" in message
    assert f"beta s = {beta} " in message
    assert "with s = 1, on beta s in [0.001, 1000]" in message
    # a gap below 1e-305 s has no sign change in the window; its top, 1e308 / s
    # in beta, overflows, so the window is named in beta s
    monkeypatch.undo()
    with pytest.raises(NumericalFailure) as exc:
        boundary_temperature(CanonicalCoupling(-1e-10, -1e-300, -1e-300 + 1e-316))
    message = str(exc.value)
    assert "no boundary sign change up to beta s = 1e+308 " in message
    assert "(-1e-10, -1e-300, -9.9999999999999986e-301)" in message
    assert "with s = 1.1641532182693481e-10, on beta s in [0.001, 1e+308]" in message
    assert "inf" not in message


def test_boundary_scales_with_coupling():
    strong = CanonicalCoupling(100 / 3, 100 / 3, 100 / 3)
    assert boundary_temperature(strong) == pytest.approx(81.68, abs=0.1)


def test_solvers_are_scale_covariant(capsys):
    # N~ depends on J, h and beta only through beta*J and beta*h, so scaling the
    # coupling by s scales T_c and h_op by s and leaves n_op unchanged
    def scaled(c, s):
        return CanonicalCoupling(s * c.jx, s * c.jy, s * c.jz)

    rng = np.random.default_rng(83)
    cases = [ISO, FIG3, FERRO_DEGEN] + [random_canonical(rng) for _ in range(6)]
    for c in cases:
        t_c = boundary_temperature(c)
        t = max(1.2 * t_c, 10 ** rng.uniform(-0.3, 0.7))
        ref = optimal_field(c, 1.0 / t)
        assert ref.phase == "high_t"
        ref_row = enhancement_curve(c, [t])[0]
        for k in range(-9, 10):
            s = 10.0**k
            sc = scaled(c, s)
            assert boundary_temperature(sc) == pytest.approx(s * t_c, rel=1e-10, abs=0.0)
            res = optimal_field(sc, 1.0 / (s * t))
            assert res.h_op == pytest.approx(s * ref.h_op, rel=1e-10, abs=0.0)
            assert res.n_op == pytest.approx(ref.n_op, rel=1e-12, abs=0.0)
            # dN_op/dT scales as 1/s and d2N_op/dT2 as 1/s^2
            row = enhancement_curve(sc, [s * t])[0]
            assert row.dn_op_dt * s == pytest.approx(ref_row.dn_op_dt, rel=1e-6, abs=0.0)
            assert row.d2n_op_dt2 * s * s == pytest.approx(ref_row.d2n_op_dt2, rel=1e-4, abs=0.0)
    # the isotropic couplings on which the fixed beta window returned 0.0,
    # drifted, or failed to bracket
    for j in (1e-3, 1e6, 1e7):
        assert boundary_temperature(scaled(ISO, j)) == pytest.approx(
            j * boundary_temperature(ISO), rel=1e-10, abs=0.0
        )

    # a non-canonical diagonal is canonicalized at every scale
    def cli_n_op(s):
        t = f"{s:.17g}"
        argv = ["optimize", "--diag", f"{s:.17g},{s:.17g},{-5 * s:.17g}",
                "--t-min", t, "--t-max", t, "--t-points", "1", "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "warning" in payload
        return payload["rows"][0][payload["columns"].index("n_op")]

    assert cli_n_op(1e-13) == pytest.approx(cli_n_op(1.0), rel=1e-12, abs=0.0)


def test_numerical_failure_names_coupling_beta_and_bracket(monkeypatch):
    monkeypatch.setattr(optimizer, "_stationarity_scaled", lambda c, h, beta: 1.0)
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "no field bracket" in message
    assert "(0.5, 0.33333333333333331, 0.16666666666666666)" in message
    assert "beta = 0.25" in message
    assert "bracket h / s in [0, " in message

    monkeypatch.undo()
    monkeypatch.setattr(optimizer, "negativity_tilde", lambda c, h, beta: h * h)
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "is not a maximum" in message
    assert "(0.5, 0.33333333333333331, 0.16666666666666666)" in message
    assert "beta = 0.25" in message


def test_solvers_raise_when_brent_does_not_converge(monkeypatch):
    def no_convergence(f, a, b, fa, fb, xtol, rtol):
        raise ValueError("no convergence after 200 iterations")

    monkeypatch.setattr(optimizer, "brentq", no_convergence)
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "field root search failed (no convergence after 200 iterations)" in message
    assert ("(0.5, 0.33333333333333331, 0.16666666666666666) at beta = 0.25, "
            "bracket h / s in [0, ") in message
    with pytest.raises(NumericalFailure) as exc:
        boundary_temperature(FIG3)
    message = str(exc.value)
    assert "boundary root search failed (no convergence after 200 iterations)" in message
    assert "with s = 1, on beta s in [0.001, 1000]" in message


def nan_inside_the_bracket():
    """A stationarity stub: positive at the first point taken, negative at the second (the
    bracket ends of either solver), NaN from then on, inside the bracket."""
    values = iter([1.0, -1.0])
    return lambda c, h, beta: next(values, math.nan)


def test_solvers_report_a_nan_stationarity_as_numerical_failure(monkeypatch):
    # brentq's ValueError on the NaN reaches the caller as the solver's own failure
    monkeypatch.setattr(optimizer, "_stationarity_scaled", nan_inside_the_bracket())
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "field root search failed (The function value at x=" in message
    assert "is NaN" in message
    assert ("(0.5, 0.33333333333333331, 0.16666666666666666) at beta = 0.25, "
            "bracket h / s in [0, ") in message
    monkeypatch.setattr(optimizer, "_stationarity_scaled", nan_inside_the_bracket())
    with pytest.raises(NumericalFailure) as exc:
        boundary_temperature(FIG3)
    message = str(exc.value)
    assert "boundary root search failed (The function value at x=" in message
    assert "with s = 1, on beta s in [0.001, 1000]" in message


def test_a_nan_or_inf_bracket_end_is_no_bracket(monkeypatch):
    # the callers check both end values before Brent starts, NaN and inf included
    for top in (math.nan, math.inf):
        values = iter([1.0, top])
        monkeypatch.setattr(optimizer, "_stationarity_scaled", lambda c, h, beta: next(values))
        with pytest.raises(NumericalFailure, match=f"no field bracket .*{top!r} at the top"):
            optimal_field(FIG3, 0.25)
    values = iter([math.nan, -1.0])
    monkeypatch.setattr(optimizer, "_stationarity_scaled", lambda c, h, beta: next(values))
    with pytest.raises(NumericalFailure, match=r"boundary scan starts past .*\(nan\)"):
        boundary_temperature(FIG3)


def test_solvers_never_evaluate_a_point_twice(monkeypatch):
    # each bracket end is taken once, by the caller, and passed to brentq
    seen = []

    def recorded(c, h, beta):
        seen.append((h, beta))
        return _stationarity_scaled(c, h, beta)

    monkeypatch.setattr(optimizer, "_stationarity_scaled", recorded)
    for c in (ISO, FIG3, CanonicalCoupling(-0.5, -0.3, -0.2), CanonicalCoupling(3.0, 1.0, 0.3)):
        seen.clear()
        t_c = boundary_temperature(c)
        for t in (1.01 * t_c, 2.0 * t_c, 10.0 * c.norm, 1e6 * c.norm):
            assert optimal_field(c, 1.0 / t).phase == "high_t"
        assert len(seen) == len(set(seen)), c


def test_optimal_field_raises_when_beta_s_overflows():
    # s = 4, so beta s is inf: the T -> 0 limit is not taken; at s = 1 the same beta solves
    with pytest.raises(NumericalFailure, match=r"beta s overflows .* at beta = 1e\+308"):
        optimal_field(CanonicalCoupling(3.0, 1.0, 0.3), 1e308)
    assert optimal_field(CanonicalCoupling(0.75, 0.25, 0.075), 1e308) == optimizer.OptimizationResult(
        0.0, 1.0, "low_t"
    )
    # beta J overflows in units of s too; on the raw coupling this was a NaN stationarity
    with pytest.raises(NumericalFailure, match="beta s overflows"):
        optimal_field(CanonicalCoupling(1e308, 1e-300, 1e-320), 1e300)
    # beta s is finite but beta jt = 2.1e308 is not: the frame gate rejects it before any NaN
    with pytest.raises(NumericalFailure, match=r"beta \|jx \+ jy\| overflows .* at beta = 1\.5e\+308"):
        optimal_field(CanonicalCoupling(0.7, 0.7, 0.0), 1.5e308)
    assert optimal_field(CanonicalCoupling(0.75, 0.25, 0.075), 1.7e308) == optimizer.OptimizationResult(
        0.0, 1.0, "low_t"
    )


def test_phase_diagram_grid_and_symmetries():
    points = phase_diagram([1.0, 5.0], [1.0, 5.0], "afm")
    by_ratio = {(p.jx_over_abs_jz, p.jy_over_abs_jz): p.t_c for p in points}
    assert by_ratio[(1.0, 1.0)] == pytest.approx(0.8168, abs=2e-3)
    assert by_ratio[(5.0, 5.0)] == pytest.approx(0.6208, abs=2e-3)
    assert by_ratio[(1.0, 5.0)] == pytest.approx(by_ratio[(5.0, 1.0)], abs=1e-9)
    # antiferromagnetic T_c peaks at the isotropic point
    assert all(by_ratio[(1.0, 1.0)] >= tc - 1e-9 for tc in by_ratio.values())
    # and dominates the mirrored ferromagnetic points
    ferro = {(p.jx_over_abs_jz, p.jy_over_abs_jz): p.t_c for p in phase_diagram([1.0, 5.0], [1.0, 5.0], "fm")}
    assert all(by_ratio[key] >= ferro[key] for key in ferro)
    with pytest.raises(ValueError):
        phase_diagram([0.5], [1.0], "afm")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            phase_diagram([bad], [1.0], "afm")
    with pytest.raises(ValueError):
        phase_diagram([1.0], [1.0], "xyz")


def test_low_t_agreement_with_numeric_optimizer():
    for c in (CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3), FERRO_DEGEN):
        beta = 200.0
        asym = low_t_asymptote(c, beta)
        res = optimal_field(c, beta)
        assert abs(res.h_op - asym.h_op) / res.h_op < 0.02
        assert abs(res.n_op - asym.n_op) / res.n_op < 0.02


def test_enhancement_curve_below_boundary():
    rows = enhancement_curve(FIG3, [0.3, 0.5, 0.65])
    for row in rows:
        assert row.phase == "low_t"
        assert row.enhancement == 0.0
        assert row.h_op == 0.0
        assert row.purity_op == pytest.approx(row.purity_zero, abs=1e-12)


def test_enhancement_curve_above_boundary():
    rows = enhancement_curve(FIG3, [1.0, 1.185, 1.5])
    for row in rows:
        assert row.phase == "high_t"
        assert row.enhancement > 0.0
        assert row.n_op >= row.n_zero_field
        assert row.purity_op > row.purity_zero  # the field purifies the state
        assert math.isfinite(row.dn_op_dt) and math.isfinite(row.d2n_op_dt2)
        assert row.dn_op_dt < 0.0  # optimized negativity decays with temperature


def central_difference_derivatives(c, t):
    """dN_op/dT and d2N_op/dT2 by central differences with step dt = 1e-4 * T.

    Returns both with n_op and dt: rounding in n_op alone puts about
    eps * n_op / dt into the first and eps * n_op / dt^2 into the second.
    """
    dt = 1e-4 * t
    n = optimal_field(c, 1.0 / t).n_op
    n_plus = optimal_field(c, 1.0 / (t + dt)).n_op
    n_minus = optimal_field(c, 1.0 / (t - dt)).n_op
    return (n_plus - n_minus) / (2.0 * dt), (n_plus - 2.0 * n + n_minus) / (dt * dt), n, dt


def ratio_diagonal(x, y, sign):
    """The one-sign diagonal (x, y, 1)/(x + y + 1), times sign; spectral norm 1."""
    norm = x + y + 1.0
    return CanonicalCoupling(sign * x / norm, sign * y / norm, sign / norm)


# One coupling from each class of the benchmark's sweep: AFM, FM, degenerate
# FM (jy = jz, T_c = 0) and jx ~ jy.
SWEEP_CLASSES = [
    ratio_diagonal(4.0, 2.0, 1.0),
    ratio_diagonal(4.0, 2.0, -1.0),
    ratio_diagonal(4.0, 1.0, -1.0),
    ratio_diagonal(3.0 * (1.0 + 1e-6), 3.0, 1.0),
]


@pytest.mark.parametrize(
    "c", [FIG3, ISO] + SWEEP_CLASSES, ids=["fig3", "iso", "afm", "fm", "fm_degenerate", "jx_jy"]
)
def test_derivative_columns_match_finite_difference_oracle(c):
    # within the stencil's truncation and rounding; rows whose stencil
    # straddles T_c, where d2N_op/dT2 jumps, are skipped
    eps = np.finfo(float).eps
    t_c = boundary_temperature(c)
    temps = [t for t in np.geomspace(0.01, 10.0, 200) if abs(t - t_c) > 2e-3 * t_c]
    for row in enhancement_curve(c, temps):
        d1, d2, n, dt = central_difference_derivatives(c, row.t)
        assert abs(row.dn_op_dt - d1) <= 1e-6 * abs(d1) + 4.0 * eps * n / dt
        assert abs(row.d2n_op_dt2 - d2) <= 1e-4 * abs(d2) + 16.0 * eps * n / dt**2


def per_row_gibbs_curve(c, temps):
    """enhancement_curve with the zero-field spectrum taken in every row: two Hamiltonians
    built and two gibbs_state eigensolves per row, the field added through build_hamiltonian."""
    s, unit_c = c.unit
    rows = []
    for t in map(float, temps):
        beta = _beta_from_t(t)
        res = optimal_field(c, beta)
        u, bs = res.h_op / s, beta * s
        n_zero = max(negativity_tilde(unit_c, 0.0, bs), 0.0)
        rho_op, _ = gibbs_state(build_hamiltonian(unit_c.diagonal, (0, 0, u), (0, 0, -u)), bs)
        rho_zero, _ = gibbs_state(build_hamiltonian(unit_c.diagonal), bs)
        d1 = d2 = 0.0
        if res.n_op > 0.0:
            n_b, n_bb, jn_bj, j2n_jj = _negativity_derivatives(unit_c, u, bs)
            if res.phase == "high_t":
                n_bb -= jn_bj * jn_bj / j2n_jj
            d1 = -beta * (bs * n_b) + 0.0
            d2 = beta * (beta * (bs * (bs * n_bb + 2.0 * n_b))) + 0.0
        rows.append(EnhancementPoint(
            t, res.h_op, res.n_op, n_zero, res.n_op - n_zero, purity(rho_op), purity(rho_zero),
            d1, d2, res.phase,
        ))
    return rows


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("c", SWEEP_CLASSES, ids=["afm", "fm", "fm_degenerate", "jx_jy"])
def test_sweep_rows_match_the_per_row_gibbs_oracle(c, scale):
    # H0 + u (s1^z - s2^z) rounds the field entries differently from build_hamiltonian's
    # 15-term sum, which moves purity_op by a few eps; every other column keeps its bits
    c = CanonicalCoupling(c.jx * scale, c.jy * scale, c.jz * scale)
    temps = scale * np.geomspace(0.01, 10.0, 60)
    for got, want in zip(enhancement_curve(c, temps), per_row_gibbs_curve(c, temps), strict=True):
        assert abs(got.purity_op - want.purity_op) <= 1e-14, got.t
        assert dataclasses.replace(got, purity_op=want.purity_op) == want


def test_a_sweep_makes_one_eigensolve_per_row_and_one_at_zero_field(monkeypatch):
    calls = []
    eigh = optimizer._eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "entopt" and getattr(module, "_eigh", None) is eigh:
            monkeypatch.setattr(module, "_eigh", counted)
    for n in (0, 1, 7, 40):
        calls.clear()
        assert len(enhancement_curve(FIG3, np.geomspace(0.05, 5.0, n))) == n
        assert len(calls) == n + 1


def test_derivative_columns_print_zero_not_negative_zero(capsys):
    # at T = 1e-3 of the coupling scale N_op is 1 to within underflow
    for c in (FIG3, ISO):
        argv = ["optimize", "--diag", f"{c.jx!r},{c.jy!r},{c.jz!r}",
                "--t-min", "1e-3", "--t-max", "1e-3", "--t-points", "1"]
        assert cli.main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()[1:3]
        values = dict(zip(header.split(","), row.split(",")))
        assert values["phase"] == "low_t"
        assert values["dn_op_dt"] == "0"
        assert values["d2n_op_dt2"] == "0"


# The grid's couplings: isotropic AFM, an FM, Fig. 3, the Ising corner and XX.
EXTREME_COUPLINGS = [
    ISO,
    CanonicalCoupling(-0.5, -0.3, -0.2),
    FIG3,
    CanonicalCoupling(1.0, 0.0, 0.0),
    CanonicalCoupling(0.5, 0.5, 0.0),
]


def test_enhancement_curve_finite_down_to_t_1e_300():
    # every fourth decade of T/s from 1 to 1e-300; the scaled closed form
    # keeps every exponent non-positive, so nothing overflows
    temps = [10.0**-k for k in range(0, 301, 4)]
    for c in EXTREME_COUPLINGS:
        for row in enhancement_curve(c, temps):
            values = dataclasses.astuple(row)[:-1]
            assert all(math.isfinite(v) for v in values), row


def test_optimize_isotropic_at_t_1e_80(capsys):
    argv = ["optimize", "--diag=0.333333333333,0.333333333333,0.333333333333",
            "--t-min", "1e-80", "--t-max", "1e-80", "--t-points", "1"]
    assert cli.main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()[1:3]
    values = dict(zip(header.split(","), row.split(",")))
    assert values["phase"] == "low_t"
    assert values["n_op"] == "1"


@pytest.mark.parametrize("c", [FIG3, ISO], ids=["fig3", "iso"])
def test_derivative_columns_finite_at_huge_fields(c):
    # h_op ~ T log T exceeds 1e154 here, so 4 h^2 would overflow if formed
    for row in enhancement_curve(c, np.geomspace(1e148, 1e160, 13)):
        assert row.phase == "high_t"
        assert math.isfinite(row.dn_op_dt) and math.isfinite(row.d2n_op_dt2)
        assert row.dn_op_dt <= 0.0


def test_d2n_op_dt2_jump_matches_one_sided_differences():
    # one-sided second differences across T_c have an O(delta) bias, which
    # Richardson extrapolation from delta and delta / 2 removes
    def jump(c, t_c, delta):
        n = [optimal_field(c, 1.0 / (t_c + k * delta)).n_op for k in range(-2, 3)]
        return (n[4] - 2.0 * n[3] + n[2]) / delta**2 - (n[2] - 2.0 * n[1] + n[0]) / delta**2

    for c in (FIG3, ISO):
        t_c = boundary_temperature(c)
        ref = 2.0 * jump(c, t_c, 5e-4) - jump(c, t_c, 1e-3)
        assert d2n_op_dt2_jump(c, t_c) == pytest.approx(ref, rel=2e-3)


def test_unit_is_capped_at_the_largest_power_of_two():
    # round(log2(1.5e308)) is 1024, and 2.0 ** 1024 overflows
    assert CanonicalCoupling(1.5e308, 0.0, 0.0).unit[0] == 2.0**1023


def test_boundary_temperature_scales_by_powers_of_two_exactly_near_the_float_maximum():
    # the window top 1e3 s / gap overflowed for s >= 2^1014, which moved the
    # window and T_c's last digits; 1e3 / (gap / s) is the same for both
    c = CanonicalCoupling(1e308, 1e300, 1e300)
    k = 1000
    small = CanonicalCoupling(*(math.ldexp(v, -k) for v in c.diagonal))
    assert boundary_temperature(c) == math.ldexp(boundary_temperature(small), k)
    # gaps (2^-974 s, 0) raw and in units of s = 2^100: a degenerate unit
    # coupling, whose window top is 1e308, as that of the raw gap is
    c = CanonicalCoupling(-(2.0**100), -5.0 * 2.0**-975, -4.0 * 2.0**-975)
    unit = CanonicalCoupling(*(math.ldexp(v, -100) for v in c.diagonal))
    assert c.gaps[1] > 0.0 and unit.gaps[1] == 0.0
    with pytest.raises(NumericalFailure, match=r"on beta s in \[0\.001, 1e\+308\]"):
        boundary_temperature(c)


def test_d2n_op_dt2_jump_scales_by_powers_of_two_exactly():
    # on the raw coupling, products of its levels with beta J overflow to a NaN
    # jump; in units of s it is the jump of the coupling scaled by 2^-k, over 4^k
    c = CanonicalCoupling(1e305, 1e300, 1e300)
    k = 1000
    small = CanonicalCoupling(*(math.ldexp(v, -k) for v in c.diagonal))
    t_c = boundary_temperature(c)
    assert boundary_temperature(small) == math.ldexp(t_c, -k)
    jump_small = d2n_op_dt2_jump(small, math.ldexp(t_c, -k))
    assert 0.0 < jump_small < math.inf
    assert d2n_op_dt2_jump(c, t_c) == math.ldexp(jump_small, -2 * k)


def test_optimal_field_and_sweep_rows_scale_by_powers_of_two_exactly_at_the_float_edges():
    # on the raw coupling, products of its levels with beta J overflowed: the
    # stationarity was NaN (exit 3) and so was every d2n_op_dt2 of these rows;
    # in units of s each result is that of the coupling scaled by 2^-k
    k = 1000
    c = CanonicalCoupling(1e300, 1e299, 1e299)
    small = CanonicalCoupling(*(math.ldexp(v, -k) for v in c.diagonal))
    got, want = optimal_field(c, 1e-307), optimal_field(small, math.ldexp(1e-307, k))
    assert got.h_op == math.ldexp(want.h_op, k) == 1.1492837515265728e308
    assert (got.n_op, got.phase) == (want.n_op, want.phase)

    c = CanonicalCoupling(1e305, 1e300, 1e300)  # T_c = 2.98e299
    small = CanonicalCoupling(*(math.ldexp(v, -k) for v in c.diagonal))
    temps = [1e299, 1e304, 1e306]
    rows = enhancement_curve(c, temps)
    for got, want in zip(rows, enhancement_curve(small, [math.ldexp(t, -k) for t in temps])):
        assert got.h_op == math.ldexp(want.h_op, k)
        for name in ("n_op", "n_zero_field", "purity_op", "purity_zero", "phase"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.dn_op_dt == math.ldexp(want.dn_op_dt, -k)
        assert got.d2n_op_dt2 == math.ldexp(want.d2n_op_dt2, -2 * k)  # 0.0: ~1e-600 underflows
    assert [r.phase for r in rows] == ["low_t", "high_t", "high_t"]
    assert all(-math.inf < r.dn_op_dt < 0.0 for r in rows[1:])


def test_maximum_check_rejects_a_root_one_percent_off():
    # a slack of 1e-10 max(1, |n_op|) swamped the test once N_op < 1e-6 and
    # accepted 1.01 h_op from T = 1e3 on; 1e-10 |n_op| + 64 eps catches it up to 1e6
    for t in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        beta = 1.0 / t
        res = optimal_field(FIG3, beta)  # s = 1: h is in units of s
        assert res.phase == "high_t"
        for h, is_max in ((res.h_op, True), (1.01 * res.h_op, False)):
            n = negativity_tilde(FIG3, h, beta)
            assert optimizer._is_maximum(FIG3, h, beta, n) is is_max, (t, h)


def test_d2n_op_dt2_jump_raises_when_unresolved():
    # at a relative level gap of 1e-9 J N_bJ cancels to 0 in floats, while an
    # 80-digit mpmath reference gives jump * T_c^2 = 6.5e-8
    c = CanonicalCoupling(1.0, 1e-9, 5e-10)
    with pytest.raises(NumericalFailure, match=r"jump unresolved .* at t_c = 1\.278"):
        d2n_op_dt2_jump(c, boundary_temperature(c))


def test_no_singularity_at_enhancement_maximum():
    # the optimized negativity's second derivative jumps at T_c but stays
    # continuous (to stencil truncation) where the enhancement peaks
    delta = 1e-3

    def one_sided_d2_jump(t0):
        n = [optimal_field(FIG3, 1.0 / (t0 + k * delta)).n_op for k in range(-2, 3)]
        d2_minus = (n[2] - 2 * n[1] + n[0]) / delta**2
        d2_plus = (n[4] - 2 * n[3] + n[2]) / delta**2
        return abs(d2_plus - d2_minus)

    t_c = boundary_temperature(FIG3)
    assert one_sided_d2_jump(1.1854) <= 0.01 * one_sided_d2_jump(t_c)


def test_verify_hypothesis_quick():
    rng = np.random.default_rng(71)
    j = rng.normal(size=(3, 3))
    report = verify_hypothesis1(j, 1.0, restarts=8, seed=5)
    assert report.gap <= 1e-6
    assert report.unconstrained_best >= report.constrained_best - 1e-9
    assert report.restarts == 8
    assert report.best_params.shape == (6,)
    assert report.passed


def test_verify_hypothesis_search_finds_optimum_unseeded(monkeypatch):
    # with the seeded start moved to zero field, the restarts alone must still
    # reach the opposed-z optimum on three of criterion 9's configurations
    # whose optimal field is far from zero
    def zero_field_seed(c, beta):
        return dataclasses.replace(true_optimal_field(c, beta), h_op=0.0)

    true_optimal_field = optimizer.optimal_field
    monkeypatch.setattr(optimizer, "optimal_field", zero_field_seed)
    rng = np.random.default_rng(99)
    couplings = [rng.normal(size=(3, 3)) for _ in range(10)]
    configs = [(j, beta, rng.integers(1 << 31)) for j in couplings for beta in (0.3, 1.0, 3.0)]
    for j, beta, seed in (configs[i] for i in (0, 6, 28)):
        report = verify_hypothesis1(j, beta, restarts=64, seed=seed)
        assert report.unconstrained_best >= report.constrained_best - 1e-9


def test_verify_hypothesis_raises_when_best_fields_overflow_in_input_units(monkeypatch):
    # s = 2^1023 on this coupling, so a search that ends at fields 4 in units of s ends past
    # the float maximum in input units
    fields = np.full(6, 4.0)
    monkeypatch.setattr(optimizer, "minimize", lambda fun, x0: SimpleNamespace(
        x=fields, fun=fun(fields), success=True))
    with pytest.raises(NumericalFailure, match="best fields overflow in input units") as exc:
        verify_hypothesis1(np.diag([1e308, 5e307, 1e307]), 1e-308, restarts=1)
    assert "for coupling (1e+308, 5.0000000000000001e+307, 1.0000000000000001e+307)" in str(exc.value)


def test_verify_hypothesis_deterministic():
    rng = np.random.default_rng(73)
    j = rng.normal(size=(3, 3))
    a = verify_hypothesis1(j, 0.7, restarts=4, seed=11)
    b = verify_hypothesis1(j, 0.7, restarts=4, seed=11)
    assert a.unconstrained_best == b.unconstrained_best
    assert np.array_equal(a.best_params, b.best_params)


def test_verify_hypothesis_zero_coupling():
    # s = 1 at norm 0, so the zero coupling takes the search path like any other
    for beta in (1e-300, 1.0, 1e300):
        report = verify_hypothesis1(np.zeros((3, 3)), beta, restarts=2, seed=0)
        assert (report.constrained_best, report.unconstrained_best, report.gap) == (0.0, 0.0, 0.0)
        assert np.array_equal(report.best_params, np.zeros(6))
        assert (report.failed_restarts, report.passed) == (0, True)
    with pytest.raises(ValueError, match="restarts"):
        verify_hypothesis1(np.zeros((3, 3)), 1.0, restarts=0)
    # beta is checked before the search starts
    for beta in (-1.0, np.nan):
        with pytest.raises(ValueError, match="inverse temperature"):
            verify_hypothesis1(np.zeros((3, 3)), beta, restarts=2)


def test_search_objective_matches_reference_route():
    rng = np.random.default_rng(79)
    for _ in range(100):
        j = rng.normal(size=(3, 3))
        fields = rng.normal(size=6)
        beta = 10 ** rng.uniform(-1, 1)
        fast = -_make_search_objective(j, beta)(fields)
        rho, _ = gibbs_state(build_hamiltonian(j, fields[:3], fields[3:]), beta)
        assert fast == pytest.approx(negativity(rho), abs=1e-12)


def test_optimal_field_rejects_bad_beta():
    with pytest.raises(ValueError):
        optimal_field(ISO, 0.0)
    with pytest.raises(ValueError):
        optimal_field(ISO, math.inf)
    with pytest.raises(ValueError):
        enhancement_curve(ISO, [0.0])
