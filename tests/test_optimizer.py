import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import random_canonical

from entopt.asymptotics import high_t_hop_exact, low_t_asymptote
from entopt.closed_form import negativity_tilde
import entopt.cli as cli
import entopt.optimizer as optimizer
from entopt.optimizer import (
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
from entopt.spin_model import CanonicalCoupling, build_hamiltonian
from entopt.thermal import gibbs_state

ISO = CanonicalCoupling(1 / 3, 1 / 3, 1 / 3)
FIG3 = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
FERRO_DEGEN = CanonicalCoupling(-1 / 2, -1 / 4, -1 / 4)


def dn_dh_over_h(c, h, beta):
    """The stationarity expression at its true scale.

    Equals (1/h) dN~/dh times the positive factor J2^3 Z^2 / (16 cosh(beta J1)),
    with the trivial h = 0 root removed. Overflows to +-inf (sign intact) once
    beta*J2 is large enough that the true value exceeds the float range.
    """
    value, m = _stationarity_scaled(c, h, beta)
    if m > 709.0:
        return math.copysign(math.inf, value) if value != 0.0 else 0.0
    return value * math.exp(m)


def stationarity_from_finite_differences(c, h, beta):
    """(1/h) dN~/dh rescaled to the bracketed stationarity expression.

    The positive conversion factor J2^3 Z^2 / (16 e^(beta Jz) cosh(beta J1)
    e^(-beta Jz)) is derived independently from the closed form.
    """
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
    j1 = abs(c.jx - c.jy)
    j2 = math.hypot(2.0 * h, c.jx + c.jy)
    a_raw = math.exp(-beta * c.jz) * math.cosh(beta * j1)
    z_raw = 2.0 * a_raw + 2.0 * math.exp(beta * c.jz) * math.cosh(beta * j2)
    return slope * j2**3 * z_raw**2 / (16.0 * math.exp(beta * c.jz) * a_raw)


def test_stationarity_matches_derivative_oracle():
    rng = np.random.default_rng(67)
    for _ in range(40):
        c = random_canonical(rng)
        h = rng.uniform(0.1, 3.0)
        beta = rng.uniform(0.3, 3.0)
        got = dn_dh_over_h(c, h, beta)
        ref = stationarity_from_finite_differences(c, h, beta)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_stationarity_h_zero_limit_oracle():
    for c, beta in ((FIG3, 1.0), (ISO, 0.5), (FERRO_DEGEN, 2.0)):
        got = dn_dh_over_h(c, 0.0, beta)
        ref = stationarity_from_finite_differences(c, 0.0, beta)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_stationarity_sign_structure_across_phases():
    # below T_c: single sign over the whole bracket
    beta = 1.0 / 0.5
    values = [dn_dh_over_h(ISO, h, beta) for h in np.linspace(1e-6, 100.0, 500)]
    assert all(v < 0.0 for v in values)
    # above T_c: a sign change exists within (0, 20]
    beta = 1.0 / 2.0
    assert dn_dh_over_h(ISO, 0.0, beta) > 0.0
    assert any(dn_dh_over_h(ISO, h, beta) < 0.0 for h in np.linspace(0.1, 20.0, 200))


def test_stationarity_no_overflow_extremes():
    # the rescaled evaluator stays finite even where the raw expression
    # exceeds the float range, and the public value never degrades to NaN
    for beta in (1e-3, 1.0, 1e3):
        for h in (0.0, 1e-6, 1.0, 50.0):
            for c in (FIG3, FERRO_DEGEN):
                scaled, _ = _stationarity_scaled(c, h, beta)
                assert math.isfinite(scaled)
                exact = dn_dh_over_h(c, h, beta)
                assert not math.isnan(exact)
                if exact != 0.0 and scaled != 0.0:
                    assert math.copysign(1.0, exact) == math.copysign(1.0, scaled)


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
    assert res.iterations > 0
    assert res.bracket[1] >= res.h_op


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
    res = optimal_field(CanonicalCoupling(0.0, 0.0, 0.0), 1.0)
    assert res.h_op == 0.0
    assert res.n_op == 0.0


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
    ]
    for c, lo, hi in cases:
        t_c = boundary_temperature(c)
        assert lo <= t_c <= hi
        assert optimal_field(c, 1.0 / (0.5 * t_c)).phase == "low_t"
        assert optimal_field(c, 1.0 / (2.0 * t_c)).phase == "high_t"


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
    monkeypatch.setattr(optimizer, "_stationarity_scaled", lambda c, h, beta: (1.0, 0.0))
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "no field bracket" in message
    assert "(0.5, 0.33333333333333331, 0.16666666666666666)" in message
    assert "beta = 0.25" in message
    assert "bracket [0, " in message

    monkeypatch.undo()
    monkeypatch.setattr(optimizer, "negativity_tilde", lambda c, h, beta: h * h)
    with pytest.raises(NumericalFailure) as exc:
        optimal_field(FIG3, 0.25)
    message = str(exc.value)
    assert "is not a maximum" in message
    assert "(0.5, 0.33333333333333331, 0.16666666666666666)" in message
    assert "beta = 0.25" in message


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


def test_verify_hypothesis_deterministic():
    rng = np.random.default_rng(73)
    j = rng.normal(size=(3, 3))
    a = verify_hypothesis1(j, 0.7, restarts=4, seed=11)
    b = verify_hypothesis1(j, 0.7, restarts=4, seed=11)
    assert a.unconstrained_best == b.unconstrained_best
    assert np.array_equal(a.best_params, b.best_params)


def test_verify_hypothesis_zero_coupling():
    report = verify_hypothesis1(np.zeros((3, 3)), 1.0, restarts=2, seed=0)
    assert report.constrained_best == 0.0
    assert report.unconstrained_best == 0.0
    assert report.passed


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
