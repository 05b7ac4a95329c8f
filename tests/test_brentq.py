import math

import pytest
from conftest import regime_couplings
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import entopt.optimizer as optimizer
from entopt.optimizer import boundary_temperature, optimal_field

port = optimizer.brentq


def counted(f):
    """f, and a list that gets one entry per evaluation."""
    evals = []

    def g(x):
        evals.append(x)
        return f(x)

    return g, evals


def assert_matches_scipy(f, a, b, xtol, rtol):
    """The port from f(a) and f(b) gives scipy's root, with scipy's evaluations but the two ends."""
    g, evals = counted(f)
    root = port(g, a, b, f(a), f(b), xtol, rtol)
    want, info = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200, full_output=True)
    assert info.converged
    assert root == want, (a, b)
    assert len(evals) == info.function_calls - 2, (a, b)
    return root


@settings(max_examples=300)
@given(regime_couplings(), st.lists(st.floats(-3.0, 170.0), min_size=3, max_size=3))
def test_port_matches_scipy_on_solver_brackets(c, log_t):
    # the T_c solve and field solves just above T_c and at T/s from 1e-3 to
    # 1e170, on the brackets and end values the solvers build themselves
    calls = []

    def checked(f, a, b, fa, fb, xtol, rtol):
        assert (fa, fb) == (f(a), f(b))
        calls.append(None)
        return assert_matches_scipy(f, a, b, xtol, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "brentq", checked)
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
    assert_matches_scipy(f, a, b, 1e-12, 1e-11)


def test_port_returns_b_when_fb_is_zero():
    # scipy returns the same root after its two end evaluations
    g, evals = counted(lambda x: 1.0 - x)
    assert port(g, 0.5, 1.0, 0.5, 0.0, 1e-12, 1e-11) == 1.0
    assert evals == []
    assert scipy_brentq(lambda x: 1.0 - x, 0.5, 1.0) == 1.0


def test_port_raises_when_200_iterations_do_not_converge():
    # with xtol = rtol = 0 a step is never resolved: the bracket shrinks to
    # adjacent floats, and no value is 0
    g, evals = counted(lambda x: 1.0 if x < 0.3 else -1.0)
    with pytest.raises(ValueError, match="no convergence after 200 iterations"):
        port(g, 0.0, 1.0, 1.0, -1.0, 0.0, 0.0)
    assert len(evals) == 200


def test_port_raises_on_nan():
    # the first secant step from f(0) = 1, f(1) = -1 lands on x = 0.5
    def f(x):
        return math.nan if x == 0.5 else 1.0 - 2.0 * x

    with pytest.raises(ValueError, match="NaN"):
        port(f, 0.0, 1.0, 1.0, -1.0, 1e-12, 1e-11)
    with pytest.raises(ValueError, match="NaN"):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-12, rtol=1e-11)
