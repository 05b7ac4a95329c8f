import math

import pytest
from conftest import regime_couplings
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import entopt.optimizer as optimizer
from entopt.optimizer import boundary_temperature, optimal_field

port = optimizer.brentq


def scipy_reference(f, a, b, xtol, rtol, maxiter):
    """scipy's brentq as (root, iterations), root None when it does not converge."""
    root, info = scipy_brentq(
        f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, full_output=True, disp=False
    )
    return (root if info.converged else None), info.iterations


def checked_against_scipy(calls):
    """The port, asserting on every call that scipy returns the same root and iteration count."""

    def brentq(f, a, b, xtol, rtol, maxiter):
        result = port(f, a, b, xtol, rtol, maxiter)
        assert result == scipy_reference(f, a, b, xtol, rtol, maxiter), (a, b)
        calls.append(result[1])
        return result

    return brentq


@settings(max_examples=300)
@given(regime_couplings(), st.lists(st.floats(-3.0, 170.0), min_size=3, max_size=3))
def test_port_matches_scipy_on_solver_brackets(c, log_t):
    # the T_c solve and field solves just above T_c and at T/s from 1e-3 to
    # 1e170, on the brackets the solvers build themselves
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "brentq", checked_against_scipy(calls))
        t_c = boundary_temperature(c)
        temps = [1.01 * t_c] + [c.norm * 10.0**e for e in log_t]
        for t in temps:
            if t > t_c:
                optimal_field(c, 1.0 / t)
    assert len(calls) == (t_c > 0.0) + sum(t > t_c for t in temps)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        # a step: every interpolation overshoots and Brent bisects
        (lambda x: 1.0 if x < 0.3 else -1.0, 0.0, 1.0),
        # values near 1e-300 make the extrapolation denominator dblk dpre
        # (fblk - fpre) underflow to 0, where C's x/0 leads to a bisection
        (lambda x: 1e-300 * (0.2 - x**3), 0.0, 1.0),
        (lambda x: 1e-310 * (math.exp(-x) - 0.5), 0.0, 5.0),
    ],
    ids=["cos", "step", "zero_denominator", "zero_denominator_subnormal"],
)
def test_port_matches_scipy_on_edge_cases(f, a, b):
    for maxiter in (200, 3):
        assert port(f, a, b, 1e-12, 1e-11, maxiter) == scipy_reference(f, a, b, 1e-12, 1e-11, maxiter)


def test_port_returns_a_root_at_an_end_at_once():
    # scipy returns the same roots, with an iteration count it leaves unset
    assert port(lambda x: x - 0.5, 0.5, 1.0, 1e-12, 1e-11, 200) == (0.5, 0)
    assert port(lambda x: x - 1.0, 0.5, 1.0, 1e-12, 1e-11, 200) == (1.0, 0)
    assert scipy_brentq(lambda x: x - 0.5, 0.5, 1.0) == 0.5
    assert scipy_brentq(lambda x: x - 1.0, 0.5, 1.0) == 1.0


def test_port_returns_none_when_maxiter_runs_out():
    assert port(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12, 1e-11, 2) == (None, 2)


def test_port_raises_on_nan_and_on_an_unbracketed_root():
    # the first secant step from f(0) = 1, f(1) = -1 lands on x = 0.5
    def f(x):
        return math.nan if x == 0.5 else 1.0 - 2.0 * x

    for solver in (port, scipy_reference):
        with pytest.raises(ValueError, match="NaN"):
            solver(f, 0.0, 1.0, 1e-12, 1e-11, 200)
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: 1.0 + x, 0.0, 1.0, 1e-12, 1e-11, 200)
