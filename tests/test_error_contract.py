"""The error contract: a public callable returns finite values, or raises ValueError for
input it rejects or NumericalFailure for a result that floats lose, on any input."""

import dataclasses
import math

import numpy as np
import pytest

import entopt
from entopt import CanonicalCoupling, NumericalFailure, linalg

# Zero, signs, the infinities, NaN, the least subnormal and the edges of the float range
EXTREMES = (0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308)
FIG3 = CanonicalCoupling(0.5, 1 / 3, 1 / 6)
COUPLINGS = (
    FIG3,
    CanonicalCoupling(1 / 3, 1 / 3, 1 / 3),
    CanonicalCoupling(-0.5, -0.25, -0.25),  # degenerate ground level
    CanonicalCoupling(-1.0, -1.0, -1.0),
    CanonicalCoupling(0.0, 0.0, 0.0),
    CanonicalCoupling(1e308, 1e-300, 1e-320),
    CanonicalCoupling(5e-324, 5e-324, 0.0),
    CanonicalCoupling(-5e307, -5e307, -5e307),
)


def _extreme_arrays(base):
    """base itself, base times each extreme value, and base with each extreme in one entry."""
    out = [base]
    with np.errstate(all="ignore"):  # 0 * inf builds the NaN entries on purpose
        for v in EXTREMES:
            out.append(base * v)
            m = base.copy()
            m.flat[1] = v
            out.append(m)
    return out


_RHO, _ = entopt.gibbs_state(entopt.build_hamiltonian(FIG3.diagonal, (0, 0, 1), (0, 0, -1)), 1.0)
SCALARS = (1.0,) + EXTREMES  # the first candidate of every argument is valid
STATES = _extreme_arrays(_RHO) + [np.eye(2), np.eye(3)]
FIELDS = _extreme_arrays(np.array([0.1, 0.2, 0.3]))
MATRICES = _extreme_arrays(np.array([[0.4, 0.1, 0.0], [-0.1, 0.3, 0.05], [0.0, 0.05, 0.2]]))
PARAMS = [entopt.closed_form_params(c, h, b) for c in COUPLINGS for h in (0.0, 1.0) for b in (1e-3, 1.0)]


def _params(c, h, beta):
    return entopt.pt_spectrum(entopt.closed_form_params(c, h, beta))


# Each public callable with the candidates of each of its arguments
CALLS = [
    (CanonicalCoupling, [SCALARS] * 3),
    (entopt.is_canonical_diagonal, [SCALARS] * 3),
    (entopt.canonicalize, [MATRICES]),
    (entopt.build_hamiltonian, [MATRICES, FIELDS, FIELDS]),
    (entopt.hermitian_eigen, [STATES]),
    (entopt.gibbs_state, [STATES, SCALARS]),
    (entopt.purity, [STATES]),
    (entopt.partial_transpose, [STATES]),
    (entopt.negativity, [STATES]),
    (entopt.concurrence, [STATES]),
    (entopt.pi_measure, [STATES]),
    (entopt.min_pt_eigenvalue, [STATES]),
    (entopt.necessary_condition, [STATES]),
    (entopt.entanglement_report, [STATES]),
    (entopt.closed_form_params, [COUPLINGS, SCALARS, SCALARS]),
    (_params, [COUPLINGS, SCALARS, SCALARS]),
    (entopt.pt_spectrum, [PARAMS]),
    (entopt.negativity_tilde, [COUPLINGS, SCALARS, SCALARS]),
    (entopt.optimal_field, [COUPLINGS, SCALARS]),
    (entopt.boundary_temperature, [COUPLINGS]),
    # d2n_op_dt2 is inf where its exact value overflows, at T far below these couplings' scale
    (lambda c, t: entopt.enhancement_curve(c, [t]), [COUPLINGS, SCALARS]),
    (lambda x, y: entopt.phase_diagram([x], [y], "fm"), [SCALARS, SCALARS]),
    (entopt.high_t_hop_exact, [SCALARS] * 3),
    (entopt.high_t_leading, [SCALARS] * 3),
    (entopt.low_t_asymptote, [COUPLINGS, SCALARS]),
    (entopt.lambert_w_minus1, [SCALARS]),
    (entopt.matrix_element_pp_mm, [COUPLINGS] + [SCALARS] * 4),
]


def _finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, (str, bool, CanonicalCoupling)):
        return True
    return bool(np.isfinite(value).all())


def _call(fn, args):
    try:
        result = fn(*args)
    except (ValueError, NumericalFailure):
        return
    assert _finite(result), (fn, args, result)


def _draws(spaces, rng, n):
    """Every candidate of each argument with the others at their first, then n random mixes."""
    firsts = [space[0] for space in spaces]
    for i, space in enumerate(spaces):
        for candidate in space[1:]:
            yield firsts[:i] + [candidate] + firsts[i + 1:]
    for _ in range(n):
        yield [space[rng.integers(len(space))] for space in spaces]


def test_public_callables_return_finite_values_or_raise_the_two_errors():
    rng = np.random.default_rng(0)
    for fn, spaces in CALLS:
        for args in _draws(spaces, rng, 40):
            _call(fn, args)
    # the search is the one slow callable: its beta and coupling only
    search = lambda j, beta: entopt.verify_hypothesis1(j, beta, restarts=1)  # noqa: E731
    for args in _draws([MATRICES[::4], SCALARS], rng, 0):
        _call(search, args)


def test_a_lapack_failure_is_a_numerical_failure(monkeypatch):
    # numpy's gufuncs return NaN when LAPACK fails; stand in for zheevd and dgesdd failing
    monkeypatch.setattr(linalg, "eigh_lo", lambda m, signature: (np.full(4, np.nan), m))
    monkeypatch.setattr(linalg, "svd_f", lambda j, signature: (j, np.full(3, np.nan), j))
    with pytest.raises(NumericalFailure, match="zheevd did not converge"):
        entopt.hermitian_eigen(_RHO)
    with pytest.raises(NumericalFailure, match="zheevd did not converge"):
        entopt.gibbs_state(entopt.build_hamiltonian(FIG3.diagonal), 1.0)
    with pytest.raises(NumericalFailure, match="dgesdd did not converge"):
        entopt.canonicalize(np.eye(3))
