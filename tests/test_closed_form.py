import math

import numpy as np
import pytest
from conftest import random_canonical

from entopt.closed_form import closed_form_params, negativity_tilde, pt_spectrum
from entopt.measures import partial_transpose
from entopt.spin_model import CanonicalCoupling, build_hamiltonian
from entopt.thermal import gibbs_state


def raw_values(p):
    """(a1, a2, b1, b2, b3, z) without the exp(-log_scale) factor; may overflow at large beta."""
    f = math.exp(p.log_scale)
    return (p.a1 * f, p.a2 * f, p.b1 * f, p.b2 * f, p.b3 * f, p.z * f)


def pt_block_matrix(p):
    """The closed-form rho^T1 matrix (normalized by Z) in the computational basis."""
    m = np.array(
        [
            [p.a1, 0.0, 0.0, p.a2],
            [0.0, p.b1 - p.b2, p.b3, 0.0],
            [0.0, p.b3, p.b1 + p.b2, 0.0],
            [p.a2, 0.0, 0.0, p.a1],
        ]
    )
    return m / p.z


def brute_force_pt_spectrum(c, h, beta):
    ham = build_hamiltonian(np.diag(c.diagonal), (0, 0, h), (0, 0, -h))
    rho, _ = gibbs_state(ham, beta)
    return np.sort(np.linalg.eigvalsh(partial_transpose(rho)))


def test_params_isotropic_plugin():
    p = closed_form_params(CanonicalCoupling(1 / 3, 1 / 3, 1 / 3), 0.0, 1.0)
    assert p.j1 == pytest.approx(0.0, abs=1e-15)
    assert p.j2 == pytest.approx(2 / 3, abs=1e-15)


def test_params_infinite_temperature_limit():
    p = closed_form_params(CanonicalCoupling(1 / 2, 1 / 3, 1 / 6), 1.0, 1e-12)
    a1, a2, b1, b2, b3, z = raw_values(p)
    assert a1 == pytest.approx(1.0, abs=1e-9)
    assert b1 == pytest.approx(1.0, abs=1e-9)
    assert abs(a2) <= 1e-9 and abs(b2) <= 1e-9 and abs(b3) <= 1e-9
    assert z == pytest.approx(4.0, abs=1e-9)


def test_params_match_partition_function_formula():
    c = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
    beta, h = 1.3, 0.7
    p = closed_form_params(c, h, beta)
    _, _, _, _, _, z = raw_values(p)
    j1 = abs(c.jx - c.jy)
    j2 = math.sqrt(4 * h * h + (c.jx + c.jy) ** 2)
    expected = 2 * math.exp(-beta * c.jz) * math.cosh(beta * j1) + 2 * math.exp(
        beta * c.jz
    ) * math.cosh(beta * j2)
    assert z == pytest.approx(expected, rel=1e-13)
    assert p.j2 >= abs(c.jx + c.jy)


def test_block_matrix_eigensolve_cross_check():
    c = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
    p = closed_form_params(c, 1.0, 1.0)
    direct = np.sort(np.linalg.eigvalsh(pt_block_matrix(p)))
    assert np.allclose(direct, np.sort(pt_spectrum(p)), atol=1e-13)
    # and the matrix itself equals the brute-force partial transpose
    ham = build_hamiltonian(np.diag(c.diagonal), (0, 0, 1.0), (0, 0, -1.0))
    rho, _ = gibbs_state(ham, 1.0)
    assert np.max(np.abs(pt_block_matrix(p) - partial_transpose(rho))) <= 1e-12


def test_spectrum_infinite_temperature():
    p = closed_form_params(CanonicalCoupling(1 / 2, 1 / 3, 1 / 6), 2.0, 1e-12)
    assert np.allclose(pt_spectrum(p), 0.25, atol=1e-9)


def test_spectrum_singlet_ground_state():
    p = closed_form_params(CanonicalCoupling(1 / 3, 1 / 3, 1 / 3), 0.0, 10.0)
    spec = pt_spectrum(p)
    assert spec.min() == pytest.approx(-0.5, abs=1e-3)
    assert negativity_tilde(CanonicalCoupling(1 / 3, 1 / 3, 1 / 3), 0.0, 10.0) == pytest.approx(
        1.0, abs=1e-3
    )


def test_spectrum_properties_bulk():
    rng = np.random.default_rng(43)
    for _ in range(300):
        c = random_canonical(rng)
        h = rng.uniform(0, 10)
        beta = 10 ** rng.uniform(-2, 2)
        p = closed_form_params(c, h, beta)
        spec = pt_spectrum(p)
        assert spec.sum() == pytest.approx(1.0, rel=1e-12)
        # only the first listed eigenvalue may be negative
        assert np.all(spec[1:] > 0.0)
        assert p.b1 - math.hypot(p.b2, p.b3) > 0.0
        assert p.a1 + abs(p.a2) > 0.0
        # multiset equality with the brute-force route
        assert np.max(np.abs(np.sort(spec) - brute_force_pt_spectrum(c, h, beta))) <= 1e-10


def test_sinh_guard_at_ising_corner():
    # jx + jy -> 0 only with the all-zero coupling; h = 0 then drives J2 -> 0
    c = CanonicalCoupling(0.0, 0.0, 0.0)
    p = closed_form_params(c, 0.0, 1.0)
    assert np.allclose(pt_spectrum(p), 0.25, atol=1e-12)


def test_negativity_tilde_signs():
    c = CanonicalCoupling(1 / 3, 1 / 3, 1 / 3)
    # deep in the low-temperature regime the singlet is almost pure
    assert negativity_tilde(c, 0.0, 50.0) == pytest.approx(1.0, abs=1e-12)
    # infinite temperature with unscaled field: no entanglement
    assert negativity_tilde(c, 5.0, 1e-6) < 0.0


def test_appendix_positivity_and_monotonicity():
    rng = np.random.default_rng(47)
    for _ in range(50):
        c = random_canonical(rng)
        beta = 10 ** rng.uniform(-1, 0.7)
        hs = np.linspace(0.0, 5.0, 41)
        values = []
        for h in hs:
            a1, a2, b1, b2, b3, _ = raw_values(closed_form_params(c, h, beta))
            assert b1 - math.hypot(b2, b3) > 0.0
            values.append(b1 * b1 - b2 * b2 - b3 * b3)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1])))


def test_positive_negativity_reachable_at_any_temperature():
    rng = np.random.default_rng(53)
    for beta in (0.01, 0.1, 1.0, 10.0, 100.0):
        for _ in range(5):
            c = random_canonical(rng)
            t = 1.0 / beta
            h_cap = 10.0 * max(1.0, t * math.log(max(t, 2.0)))
            hs = np.linspace(0.0, h_cap, 400)
            assert any(negativity_tilde(c, h, beta) > 0.0 for h in hs)
