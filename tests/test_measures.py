import numpy as np
import pytest
from conftest import random_canonical, random_density_matrix, random_hermitian

from entopt.asymptotics import high_t_hop_exact
from entopt.closed_form import negativity_tilde
from entopt.optimizer import optimal_field
from entopt.linalg import hermitian_eigen
from entopt.measures import (
    _negativity,
    _pi,
    _pt_spectrum,
    concurrence,
    entanglement_report,
    min_pt_eigenvalue,
    necessary_condition,
    negativity,
    partial_transpose,
    pi_measure,
)
from entopt.spin_model import SIGMA_Y, CanonicalCoupling, build_hamiltonian
from entopt.thermal import gibbs_state, purity

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)

BELL_SINGLET = np.zeros((4, 4))
BELL_SINGLET[1, 1] = BELL_SINGLET[2, 2] = 0.5
BELL_SINGLET[1, 2] = BELL_SINGLET[2, 1] = -0.5


def opposed_field_state(c, h, beta):
    ham = build_hamiltonian(np.diag(c.diagonal), (0, 0, h), (0, 0, -h))
    rho, _ = gibbs_state(ham, beta)
    return rho


def test_partial_transpose_identity_and_product():
    assert np.allclose(partial_transpose(np.eye(4) / 4), np.eye(4) / 4)
    rng = np.random.default_rng(3)
    r1 = random_density_matrix(rng, 2)
    r2 = random_density_matrix(rng, 2)
    prod = np.kron(r1, r2)
    assert np.allclose(partial_transpose(prod), np.kron(r1.T, r2), atol=1e-14)
    assert np.linalg.eigvalsh(partial_transpose(prod))[0] >= -1e-14


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng)
    pt = partial_transpose(rho)
    assert np.allclose(partial_transpose(pt), rho, atol=1e-15)
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14


@pytest.mark.parametrize("measure", [
    partial_transpose, negativity, concurrence, pi_measure, min_pt_eigenvalue,
    necessary_condition, entanglement_report, hermitian_eigen, purity,
    pytest.param(lambda m: gibbs_state(m, 1.0), id="gibbs_state"),
])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_measures_reject_states_that_are_not_4x4(measure, n):
    with pytest.raises(ValueError) as info:
        measure(np.eye(n) / n)
    assert str(info.value) == f"expected a two-qubit (4x4) matrix, got shape {(n, n)}"


def test_bell_state_measures():
    assert min_pt_eigenvalue(BELL_SINGLET) == pytest.approx(-0.5, abs=1e-14)
    assert negativity(BELL_SINGLET) == pytest.approx(1.0, abs=1e-14)
    assert concurrence(BELL_SINGLET) == pytest.approx(1.0, abs=1e-12)
    assert pi_measure(BELL_SINGLET) == pytest.approx(1.0, abs=1e-12)


def test_product_state_measures():
    rng = np.random.default_rng(7)
    rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert negativity(rho) == 0.0
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    assert pi_measure(rho) == 0.0


def test_negativity_matches_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = random_canonical(rng)
        h = rng.uniform(0, 3)
        beta = 10 ** rng.uniform(-1, 1)
        rho = opposed_field_state(c, h, beta)
        n_tilde = negativity_tilde(c, h, beta)
        assert negativity(rho) == pytest.approx(max(n_tilde, 0.0), abs=1e-10)


def test_negativity_equals_concurrence_for_opposed_fields():
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = random_canonical(rng)
        h = rng.uniform(0, 3)
        beta = 10 ** rng.uniform(-1, 1)
        rho = opposed_field_state(c, h, beta)
        assert abs(negativity(rho) - concurrence(rho)) <= 1e-9


def test_pi_measure_bounds_and_zero_set():
    rng = np.random.default_rng(17)
    for _ in range(300):
        c = random_canonical(rng)
        rho = opposed_field_state(c, rng.uniform(0, 3), 10 ** rng.uniform(-1, 1))
        n = negativity(rho)
        p = pi_measure(rho)
        assert 0.0 <= p <= 1.0 + 1e-12
        assert (p == 0.0) == (n == 0.0)


def test_necessary_condition_examples():
    assert necessary_condition(np.eye(4) / 4) is False
    assert necessary_condition(np.diag([1.0, 0.0, 0.0, 0.0])) is True


def test_necessary_condition_implied_by_entanglement():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(10_000):
        h = random_hermitian(rng, scale=rng.uniform(0.2, 2.0))
        rho, _ = gibbs_state(h, 10 ** rng.uniform(-1, 1))
        if negativity(rho) > 0.0:
            checked += 1
            assert necessary_condition(rho)
    assert checked > 100  # the scan must actually exercise entangled states


def test_peres_horodecki_equivalences():
    rng = np.random.default_rng(23)
    for _ in range(500):
        rho = random_density_matrix(rng)
        pt = partial_transpose(rho)
        lam = float(np.linalg.eigvalsh(pt)[0])
        det = float(np.real(np.linalg.det(pt)))
        n = negativity(rho)
        if n > 0.0:
            assert lam < 0.0 and det < 0.0
        if lam < -1e-10:
            assert n > 0.0 and det < 0.0
        # pi = 2 |det rho^T1|^(1/4) on entangled states, compared in det space
        expected = abs(det) if n > 0.0 else 0.0
        assert (pi_measure(rho) / 2.0) ** 4 == pytest.approx(expected, abs=1e-15)


def test_at_most_one_negative_pt_eigenvalue():
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        values = np.linalg.eigvalsh(partial_transpose(rho))
        assert np.sum(values < -1e-12) <= 1


def test_perturbative_negativity_consistency():
    # exact negativity against the first-order high-temperature expansion,
    # balanced opposed z fields, dimensionless field near its optimum
    beta = 1e-3
    jx, jy, jz = 1 / 2, 1 / 3, 1 / 6
    jt = abs(jx + jy)
    hp_op = high_t_hop_exact(jx, jy, beta).h_prime_op
    for hp in (hp_op - 0.3, hp_op, hp_op + 0.3):
        h = hp / beta
        ham = build_hamiltonian(np.diag([jx, jy, jz]), (0, 0, h), (0, 0, -h))
        rho, _ = gibbs_state(ham, beta)
        approx = beta * jt / (2 * hp) - 2 * np.exp(-2 * hp)
        assert abs(negativity(rho) - approx) <= 10 * beta**2


def test_negativity_matches_the_closed_form_optimum_up_to_t_1e12():
    # the PSD floor is relative to the state's own scale: an absolute -1e-12
    # returned 0 here from T = 1e11 on, where N_op ~ 2.4e-13
    c = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)  # s = 1
    for t in 10.0 ** np.arange(0, 13):
        res = optimal_field(c, 1.0 / t)
        rho = opposed_field_state(c, res.h_op, 1.0 / t)
        assert negativity(rho) == pytest.approx(res.n_op, rel=1e-2, abs=0.0), t
        assert entanglement_report(rho).negativity == negativity(rho)


def random_qubit_states(rng, n):
    """n exactly Hermitian 2x2 states, about a third of them pure."""
    psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    pure = np.einsum("ni,nj->nij", psi, psi.conj()) / np.sum(np.abs(psi) ** 2, axis=1)[:, None, None]
    w = rng.uniform(0.0, 1.0, size=(n, 1, 1))
    a = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    other = np.einsum("ni,nj->nij", a, a.conj()) / np.sum(np.abs(a) ** 2, axis=1)[:, None, None]
    mixed = w * pure + (1.0 - w) * other
    return np.where((rng.uniform(size=n) < 1.0 / 3.0)[:, None, None], pure, mixed)


def test_negativity_is_zero_on_separable_states():
    # mixtures of one or two product states, with pure factors among them, so
    # ranks 1 to 4: rounding never takes lambda_min below -16 eps lambda_max
    rng = np.random.default_rng(47)
    n = 10_000
    first = [np.einsum("nij,nkl->nikjl", random_qubit_states(rng, n), random_qubit_states(rng, n))
             .reshape(n, 4, 4) for _ in range(2)]
    p = rng.uniform(0.0, 1.0, size=(n, 1, 1)) * (np.arange(n) % 2 == 0)[:, None, None]
    states = p * first[0] + (1.0 - p) * first[1]
    ranks = set()
    for rho in states:
        values = _pt_spectrum(rho)
        assert _negativity(values) == 0.0 and _pi(values) == 0.0
        ranks.add(int(np.sum(np.linalg.eigvalsh(rho) > 1e-12)))
    assert negativity(states[0]) == 0.0
    assert ranks == {1, 2, 3, 4}


def test_entanglement_report_consistency():
    rng = np.random.default_rng(31)
    c = random_canonical(rng)
    rho = opposed_field_state(c, 1.0, 2.0)
    rep = entanglement_report(rho)
    assert rep.negativity == negativity(rho)
    assert rep.negativity == pytest.approx(max(-2 * rep.min_pt_eigenvalue, 0.0), abs=1e-15)
    assert rep.concurrence == concurrence(rho)
    assert rep.pi == pi_measure(rho)


def reference_concurrence(rho) -> float:
    """concurrence with the spin flip as two matmuls by sigma_y x sigma_y, and the
    singular values from np.linalg.svd: the bit-for-bit oracle."""
    values, vectors = hermitian_eigen(rho)
    s = np.sqrt(np.maximum(values, 0.0))
    sqrt_rho = (vectors * s) @ vectors.conj().T
    m = _SYSY @ sqrt_rho.conj() @ _SYSY @ sqrt_rho
    r0, r1, r2, r3 = np.linalg.svd(m, compute_uv=False).tolist()
    return max(0.0, r0 - r1 - r2 - r3)


def seeded_states(rng, n):
    """n states: Gibbs states of random H over beta 1e-2 to 1e3, and states of
    rank 1 to 3."""
    states = []
    for i in range(n):
        if i % 4:
            h = random_hermitian(rng, scale=rng.uniform(0.2, 2.0))
            states.append(gibbs_state(h, 10 ** rng.uniform(-2.0, 3.0))[0])
        else:
            a = rng.normal(size=(4, i % 3 + 1)) + 1j * rng.normal(size=(4, i % 3 + 1))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho).real
            states.append((rho + rho.conj().T) / 2.0)
    return states


def test_concurrence_matches_matmul_spin_flip_bit_for_bit():
    rng = np.random.default_rng(37)
    for rho in seeded_states(rng, 1200):
        assert concurrence(rho) == reference_concurrence(rho)


def test_pi_matches_numpy_product_bit_for_bit():
    rng = np.random.default_rng(41)
    checked = 0
    for rho in seeded_states(rng, 1500):
        values = _pt_spectrum(rho)
        npt = values[0] < -16.0 * np.finfo(float).eps * values[3]
        expected = 2.0 * abs(float(np.prod(values))) ** 0.25 if npt else 0.0
        assert _pi(values) == expected
        checked += expected > 0.0
    assert checked > 1000


def test_concurrence_of_pure_states():
    # rank 1: rho has three zero eigenvalues and m three zero singular values
    def pure(psi):
        psi = np.asarray(psi, dtype=complex)
        return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real

    r = np.sqrt(0.5)
    for bell in ([r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]):
        assert concurrence(pure(bell)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(43)
    for _ in range(50):
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
        assert concurrence(pure(np.kron(a, b))) == pytest.approx(0.0, abs=1e-12)
    for theta in np.linspace(0.0, np.pi, 37):
        rho = pure([np.cos(theta), 0, 0, np.sin(theta)])
        assert concurrence(rho) == pytest.approx(abs(np.sin(2 * theta)), abs=1e-12)
