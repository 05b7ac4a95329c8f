import numpy as np
import pytest
from conftest import random_canonical
from hypothesis import given, settings
from hypothesis import strategies as st

from entopt.linalg import hermitian_eigen
from entopt.spin_model import (
    CanonicalCoupling,
    build_hamiltonian,
    canonicalize,
    is_canonical_diagonal,
)

DM_EXAMPLE = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, -2.0]])

# Eigenstates of every diagonal XYZ interaction, rows in bell_energies order.
BELL_STATES = np.array(
    [
        [0.0, 1.0, -1.0, 0.0],  # singlet (|01> - |10>)/sqrt(2)
        [0.0, 1.0, 1.0, 0.0],  # (|01> + |10>)/sqrt(2)
        [1.0, 0.0, 0.0, 1.0],  # (|00> + |11>)/sqrt(2)
        [1.0, 0.0, 0.0, -1.0],  # (|00> - |11>)/sqrt(2)
    ]
) / np.sqrt(2.0)


def bell_energies(jx, jy, jz):
    return np.array([-jx - jy - jz, jx + jy - jz, jx - jy + jz, -jx + jy + jz])


def spectrum(j, h1=(0, 0, 0), h2=(0, 0, 0)):
    values, _ = hermitian_eigen(build_hamiltonian(j, h1, h2))
    return values


def test_build_zero():
    assert np.allclose(build_hamiltonian(np.zeros((3, 3))), 0.0)
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        build_hamiltonian([1.0, np.nan, 0.0])


def test_build_isotropic_spectrum():
    # singlet at -3J, triplet at +J
    j = 0.7
    assert np.allclose(spectrum(np.diag([j, j, j])), [-3 * j, j, j, j], atol=1e-12)


def test_build_matrix_assembly_oracle():
    # entrywise assembly from explicit kron sums
    rng = np.random.default_rng(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2)
    paulis = [sx, sy, sz]
    for _ in range(20):
        j = rng.normal(size=(3, 3))
        h1 = rng.normal(size=3)
        h2 = rng.normal(size=3)
        expected = sum(j[a, b] * np.kron(paulis[a], paulis[b]) for a in range(3) for b in range(3))
        expected += sum(h1[a] * np.kron(paulis[a], i2) + h2[a] * np.kron(i2, paulis[a]) for a in range(3))
        assert np.allclose(build_hamiltonian(j, h1, h2), expected, atol=1e-14)


def test_build_opposed_fields_block_pattern():
    # partial transpose of the Gibbs state is block diagonal: corners + middle
    from entopt.measures import partial_transpose
    from entopt.thermal import gibbs_state

    h = build_hamiltonian(np.diag([1 / 2, 1 / 3, 1 / 6]), (0, 0, 1.0), (0, 0, -1.0))
    rho, _ = gibbs_state(h, 1.0)
    pt = partial_transpose(rho)
    zero_mask = np.array(
        [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ],
        dtype=bool,
    )
    assert np.max(np.abs(pt[zero_mask])) <= 1e-12


def test_canonicalize_dm_worked_example():
    c = canonicalize(DM_EXAMPLE)
    got = np.sort(c.diagonal)
    assert np.allclose(got, np.sort([-np.sqrt(2), -np.sqrt(2), -2.0]), atol=1e-10)
    assert abs(np.linalg.det(c.r1) - 1.0) <= 1e-12
    assert abs(np.linalg.det(c.r2) - 1.0) <= 1e-12
    assert np.max(np.abs(c.r1 @ DM_EXAMPLE @ c.r2.T - np.diag(c.diagonal))) <= 1e-10
    assert c.sign_class == "fm"


def test_canonicalize_diagonal_passthrough():
    c = canonicalize(np.diag([1 / 2, 1 / 3, 1 / 6]))
    assert np.allclose(c.diagonal, [1 / 2, 1 / 3, 1 / 6], atol=1e-14)
    assert np.allclose(c.r1, np.eye(3)) and np.allclose(c.r2, np.eye(3))


def test_canonicalize_spectrum_preserved_bulk():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        j = rng.normal(size=(3, 3)) * rng.uniform(0.1, 3.0)
        c = canonicalize(j)
        assert is_canonical_diagonal(c.jx, c.jy, c.jz)
        assert np.max(np.abs(spectrum(j) - spectrum(np.diag(c.diagonal)))) <= 1e-9
        assert np.max(np.abs(c.r1 @ j @ c.r2.T - np.diag(c.diagonal))) <= 1e-10
        assert abs(np.linalg.det(c.r1) - 1.0) <= 1e-12
        assert abs(np.linalg.det(c.r2) - 1.0) <= 1e-12
        detj = np.linalg.det(j)
        if detj > 1e-12:
            assert min(c.jx, c.jy, c.jz) >= 0.0
        elif detj < -1e-12:
            assert max(c.jx, c.jy, c.jz) <= 0.0
        if abs(detj) > 1e-12:
            assert np.sign(c.jx * c.jy * c.jz) == np.sign(detj)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(200):
        c = canonicalize(rng.normal(size=(3, 3)))
        again = canonicalize(np.diag(c.diagonal))
        assert np.allclose(np.sort(np.abs(again.diagonal)), np.sort(np.abs(c.diagonal)), atol=1e-12)
        assert again.sign_class == c.sign_class
        if len(set(np.round(np.abs(c.diagonal), 9))) == 3:
            assert np.allclose(again.diagonal, c.diagonal, atol=1e-10)


def test_canonical_invariants():
    rng = np.random.default_rng(27)
    for _ in range(200):
        j = rng.normal(size=(3, 3))
        # rank 2 up to rounding: det J and the smallest singular value are noise
        singular = np.array([j[0], j[1], j[0] - 2.0 * j[1]]) * 1e4
        for c in (canonicalize(j), canonicalize(singular)):
            assert is_canonical_diagonal(c.jx, c.jy, c.jz)
            assert abs(c.jz) <= min(abs(c.jx), abs(c.jy))
            assert c.jx >= c.jy


@st.composite
def rotated_couplings(draw):
    """(J, d): J = q1 diag(d) q2 for random rotations q1, q2, at scales 1e-8 to 1e8.

    The diagonal d is canonical: generic, rank 1 (a degenerate ground level),
    rank 2, a ferromagnet with its two smallest magnitudes equal (degenerate
    too), or one whose two smallest magnitudes differ by a relative 1e-16 to
    1e-6.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    a, b, c = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)), reverse=True)
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["generic", "rank1", "rank2", "degenerate", "near_degenerate"]))
    if kind == "generic":
        d = (sign * a, sign * b, sign * c)
    elif kind == "rank1":
        d = (sign * a, 0.0, 0.0)
    elif kind == "rank2":
        d = (sign * a, sign * b, 0.0)
    elif kind == "degenerate":
        d = draw(st.sampled_from([(-a, -b, -b), (-a, -a, -a)]))
    else:
        d = (-a, -b, -b * (1.0 - 10.0 ** draw(st.floats(-16.0, -6.0))))

    def rotation():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        return q * np.linalg.det(q)

    return rotation() @ np.diag(d) @ rotation() * scale, d


@settings(max_examples=400)
@given(rotated_couplings(), st.floats(1e-30, 1e30))
def test_canonicalize_invariants_at_edges(case, divisor):
    j, d = case
    c = canonicalize(j)
    assert c.gaps[1] >= 0.0 and c.gaps[2] >= 0.0
    # d is canonical; a degenerate ground level (jz <= 0, jz = jx or jy) keeps
    # its zero gap, and only a level split by rounding's size can gain one
    if d[2] <= 0.0 and d[2] in d[:2]:
        assert c.gaps[1] == 0.0
    elif c.gaps[1] == 0.0:
        assert abs(d[1] - d[2]) <= 1e-13 * abs(d[0])
    assert abs(np.linalg.det(c.r1) - 1.0) <= 1e-12
    assert abs(np.linalg.det(c.r2) - 1.0) <= 1e-12
    assert np.max(np.abs(c.r1 @ j @ c.r2.T - np.diag(c.diagonal))) <= 1e-12 * c.norm
    # division by a positive float rounds monotonically, so the order of
    # jx, jy, jz and 0 survives: the solvers and the searches rely on it
    for q in (divisor, c.norm):
        CanonicalCoupling(c.jx / q, c.jy / q, c.jz / q)


def test_from_diagonal_validation():
    CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)
    with pytest.raises(ValueError, match="canonical"):
        CanonicalCoupling(1 / 6, 1 / 3, 1 / 2)  # |jz| not minimal
    with pytest.raises(ValueError, match="finite"):
        CanonicalCoupling(np.inf, np.inf, np.inf)
    # the test is exact, so tiny couplings are checked too
    with pytest.raises(ValueError, match="canonical"):
        CanonicalCoupling(1e-13, 1e-13, -5e-13)


def test_fields_are_python_floats():
    c = CanonicalCoupling(*np.array([0.5, 0.25, 0.125]))
    assert all(type(v) is float for v in (c.jx, c.jy, c.jz))


def test_interaction_eigensystem_isotropic():
    # antiferromagnet: the singlet alone at -1; ferromagnet: the triplet at -1/3
    afm = np.diag([1 / 3, 1 / 3, 1 / 3])
    singlet = BELL_STATES[0]
    assert np.allclose(build_hamiltonian(afm) @ singlet, -1.0 * singlet, atol=1e-12)
    assert np.allclose(spectrum(afm), [-1.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert np.allclose(spectrum(-afm), [-1 / 3, -1 / 3, -1 / 3, 1.0], atol=1e-12)


def test_interaction_eigensystem_vs_eigensolver():
    c = CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)
    energies = bell_energies(*c.diagonal)
    assert np.sum(energies <= energies.min() + 1e-12) == 2  # doubly degenerate ground
    assert np.allclose(np.sort(energies), spectrum(np.diag(c.diagonal)), atol=1e-12)
    h = build_hamiltonian(np.diag(c.diagonal))
    for energy, state in zip(energies, BELL_STATES):
        assert np.allclose(h @ state, energy * state, atol=1e-12)


def test_norm_is_interaction_spectral_norm():
    assert CanonicalCoupling(1 / 3, 1 / 3, 1 / 3).norm == pytest.approx(1.0, abs=1e-12)
    assert CanonicalCoupling(1 / 2, 1 / 3, 1 / 6).norm == pytest.approx(1.0, abs=1e-12)
    assert CanonicalCoupling(0.0, 0.0, 0.0).norm == 0.0
    rng = np.random.default_rng(29)
    for _ in range(200):
        c = canonicalize(rng.normal(size=(3, 3)) * 10 ** rng.uniform(-6, 6))
        assert c.norm == pytest.approx(np.max(np.abs(spectrum(np.diag(c.diagonal)))), rel=1e-12)
