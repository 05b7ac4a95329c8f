import cmath
import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from entopt.asymptotics import (
    AsymptoteDomainError,
    high_t_hop_exact,
    high_t_leading,
    lambert_w_minus1,
    low_t_asymptote,
    matrix_element_pp_mm,
)
from entopt.optimizer import optimal_field
from entopt.spin_model import CanonicalCoupling, build_hamiltonian


def bisect_w_minus1(x, lo=-50.0, hi=-1.0, iters=200):
    """Independent bisection oracle for w e^w = x on the w <= -1 branch."""
    f = lambda w: w * math.exp(w) - x
    a, b = lo, hi
    fa = f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if f(mid) == 0.0:
            return mid
        if (f(mid) > 0) == (fa > 0):
            a = mid
            fa = f(a)
        else:
            b = mid
    return 0.5 * (a + b)


def test_lambert_branch_point():
    assert lambert_w_minus1(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_residuals_on_log_grid():
    for x in -np.geomspace(1e-12, 1.0 / math.e * 0.9999, 40):
        w = lambert_w_minus1(float(x))
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_against_bisection_oracle():
    for x in (-0.1, -0.2, -0.3, -0.05, -1e-4):
        assert lambert_w_minus1(x) == pytest.approx(bisect_w_minus1(x), abs=1e-10)


def test_lambert_against_scipy():
    for x in -np.geomspace(1e-10, 0.99 / math.e, 25):
        ours = lambert_w_minus1(float(x))
        ref = float(np.real(scipy_lambertw(float(x), k=-1)))
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_lambert_domain_errors():
    for x in (-1.0, 0.0, 0.5, -0.5):
        with pytest.raises(AsymptoteDomainError):
            lambert_w_minus1(x)


def test_high_t_fixed_point_identity():
    for beta in (1e-3, 1e-2, 0.1):
        asym = high_t_hop_exact(1 / 3, 1 / 3, beta)
        hp = asym.h_prime_op
        lhs = math.exp(2.0 * hp)
        rhs = 8.0 * hp * hp / (beta * abs(2 / 3))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert hp > 1.0
        assert asym.h_op == pytest.approx(hp / beta, rel=1e-15)


def test_high_t_error_paths():
    with pytest.raises(AsymptoteDomainError):
        high_t_hop_exact(1.0, -1.0, 0.01)  # |Jx + Jy| = 0
    with pytest.raises(AsymptoteDomainError, match="invalid at this temperature"):
        high_t_hop_exact(1 / 3, 1 / 3, 5.0)  # W argument below the branch point


def test_high_t_leading_domain():
    with pytest.raises(AsymptoteDomainError):
        high_t_leading(1 / 3, 1 / 3, 1.0)
    lead = high_t_leading(1 / 3, 1 / 3, 0.5)
    assert math.isfinite(lead.h_op) and math.isfinite(lead.n_op)
    assert lead.h_op == pytest.approx(math.log(2.0), rel=1e-15)


def test_convergence_ordering_of_asymptotes():
    c = CanonicalCoupling(1 / 3, 1 / 3, 1 / 3)
    for t in (10.0, 30.0, 100.0):
        beta = 1.0 / t
        exact = optimal_field(c, beta)
        asym = high_t_hop_exact(c.jx, c.jy, beta)
        lead = high_t_leading(c.jx, c.jy, beta)
        assert abs(asym.h_op / exact.h_op - 1) < abs(lead.h_op / exact.h_op - 1)
        assert abs(asym.n_op / exact.n_op - 1) < abs(lead.n_op / exact.n_op - 1)


def test_low_t_triply_degenerate_formula():
    c = CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3)
    beta = 200.0
    jt = 2 / 3
    asym = low_t_asymptote(c, beta)
    assert asym.degeneracy == "triply"
    assert asym.n_op == pytest.approx(1 - (1 + math.log(4 * beta * jt)) / (beta * jt), rel=1e-14)
    assert asym.h_op == pytest.approx(math.sqrt(jt / (2 * beta) * math.log(4 * beta * jt)), rel=1e-14)


def test_low_t_doubly_degenerate_formula():
    c = CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)
    beta = 200.0
    jt = 3 / 4
    asym = low_t_asymptote(c, beta)
    assert asym.degeneracy == "doubly"
    assert asym.n_op == pytest.approx(1 - (1 + math.log(2 * beta * jt)) / (beta * jt), rel=1e-14)


def test_low_t_asymptote_is_covariant_under_powers_of_two_exactly():
    # (c, beta) -> (2^k c, 2^-k beta) keeps beta c, so h_op scales by 2^k and n_op stays,
    # also where beta alone, or jt / beta, is near the float edges
    for c in (CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3), CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)):
        ref = low_t_asymptote(c, 200.0)
        for k in range(-1000, 1001):
            ck = CanonicalCoupling(math.ldexp(c.jx, k), math.ldexp(c.jy, k), math.ldexp(c.jz, k))
            got = low_t_asymptote(ck, math.ldexp(200.0, -k))
            assert (got.h_op, got.n_op, got.degeneracy) == (math.ldexp(ref.h_op, k), ref.n_op,
                                                            ref.degeneracy), k
    # 4 beta = 4e308 overflows in input units; beta |Jx+Jy| = 2e8 does not
    got = low_t_asymptote(CanonicalCoupling(-1e-300, -1e-300, -1e-300), 1e308)
    assert got.n_op == pytest.approx(1.0 - (1.0 + math.log(8e8)) / 2e8, rel=1e-14)
    assert got.h_op == pytest.approx(math.sqrt(2e-300 / 2e308 * math.log(8e8)), rel=1e-14)


@pytest.mark.parametrize("c,h_ref", [
    # h_op = sqrt(|Jx+Jy| / (2 beta) log(k beta |Jx+Jy|)) from 40-digit mpmath
    (CanonicalCoupling(-1e300, -1e300, -1e300), 2.6755949251892260898e146),
    (CanonicalCoupling(-1e300, -5e299, -5e299), 2.3155452777642175313e146),
], ids=["triply", "doubly"])
def test_low_t_asymptote_where_beta_s_overflows(c, h_ref):
    # beta s ~ 1e310 overflows; h_op ~ 1e146 does not, and n_op is 1 to rounding
    got = low_t_asymptote(c, 1e10)
    assert got.h_op == pytest.approx(h_ref, rel=1e-15)
    assert got.n_op == 1.0


def test_low_t_error_paths():
    with pytest.raises(AsymptoteDomainError, match="h_op = 0"):
        low_t_asymptote(CanonicalCoupling(1 / 3, 1 / 3, 1 / 3), 200.0)
    with pytest.raises(AsymptoteDomainError, match="h_op = 0"):
        low_t_asymptote(CanonicalCoupling(-1 / 2, -1 / 2, -1 / 4), 200.0)
    with pytest.raises(AsymptoteDomainError):
        low_t_asymptote(CanonicalCoupling(-1 / 3, -1 / 3, -1 / 3), 0.5)


def test_matrix_element_special_angles():
    c = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
    opposed = matrix_element_pp_mm(c, 0.0, 0.0, math.pi, 0.0)
    assert opposed == pytest.approx(-(c.jx + c.jy), abs=1e-15)
    aligned = matrix_element_pp_mm(c, 0.0, 0.0, 0.0, 0.0)
    assert aligned == pytest.approx(c.jx - c.jy, abs=1e-15)


def product_eigenstates(theta, phi):
    plus = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
    minus = np.array([-math.sin(theta / 2), cmath.exp(1j * phi) * math.cos(theta / 2)])
    return plus, minus


def test_matrix_element_direct_construction_oracle():
    rng = np.random.default_rng(59)
    c = CanonicalCoupling(-0.8, -0.9, -0.3)
    ham = build_hamiltonian(np.diag(c.diagonal))
    for _ in range(200):
        t1, t2 = rng.uniform(0, math.pi, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        plus1, minus1 = product_eigenstates(t1, p1)
        plus2, minus2 = product_eigenstates(t2, p2)
        pp = np.kron(plus1, plus2)
        mm = np.kron(minus1, minus2)
        direct = pp.conj() @ ham @ mm
        formula = matrix_element_pp_mm(c, t1, p1, t2, p2)
        assert abs(direct - formula) <= 1e-12


def test_matrix_element_bound():
    rng = np.random.default_rng(61)
    for c in (CanonicalCoupling(1 / 2, 1 / 3, 1 / 6), CanonicalCoupling(-0.9, -0.7, -0.2)):
        bound = abs(c.jx + c.jy)
        for _ in range(10_000):
            t1, t2 = rng.uniform(0, math.pi, 2)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            assert abs(matrix_element_pp_mm(c, t1, p1, t2, p2)) <= bound + 1e-12
