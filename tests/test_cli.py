import json
import os
import subprocess
import sys

import numpy as np
import pytest

import entopt
import entopt.cli as cli
from entopt.optimizer import Hypothesis1Report, NumericalFailure

ISO_README = "0.333333333333,0.333333333333,0.333333333333"
FIG3_README = "0.5,0.333333333333,0.166666666667"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_canonicalize_dm_example(capsys):
    code, out = run_cli(
        capsys, "canonicalize", "--coupling", "1,1,0,-1,1,0,0,0,-2"
    )
    assert code == 0
    payload = json.loads(out)
    got = sorted([payload["jx"], payload["jy"], payload["jz"]])
    assert np.allclose(got, sorted([-np.sqrt(2), -np.sqrt(2), -2.0]), atol=1e-10)
    assert payload["sign_class"] == "fm"
    assert payload["spectrum_residual"] <= 1e-9
    assert payload["det_r1"] == pytest.approx(1.0, abs=1e-12)
    assert payload["det_r2"] == pytest.approx(1.0, abs=1e-12)


def test_canonicalize_diagonal_passthrough(capsys):
    code, out = run_cli(capsys, "canonicalize", "--diag", "0.5,0.25,0.125")
    assert code == 0
    payload = json.loads(out)
    assert [payload["jx"], payload["jy"], payload["jz"]] == [0.5, 0.25, 0.125]


def test_boundary_scalar(capsys):
    code, out = run_cli(
        capsys,
        "boundary",
        "--diag",
        "0.3333333333333333,0.3333333333333333,0.3333333333333333",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_c"] == pytest.approx(0.8168, abs=1e-3)
    assert "config_hash" in payload
    assert "warning" not in payload
    # a rotated coupling is canonicalized, and the record says so
    code, out = run_cli(capsys, "boundary", "--coupling", "1,1,0,-1,1,0,0,0,-2")
    assert code == 0
    assert json.loads(out)["warning"].startswith("coupling was not in canonical diagonal form")


def test_boundary_ising_is_zero(capsys):
    code, out = run_cli(capsys, "boundary", "--diag", "0,1,0")
    assert code == 0
    record = json.loads(out)
    assert record["t_c"] == 0.0
    assert record["d2n_op_dt2_jump"] is None


def test_optimize_csv_shape_and_warning(capsys):
    code, out = run_cli(
        capsys,
        "optimize",
        "--coupling", "1,1,0,-1,1,0,0,0,-2",  # needs canonicalization
        "--t-min", "0.5", "--t-max", "1.0", "--t-points", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# warning: coupling was not in canonical diagonal form")
    header = lines[2].split(",")
    assert header == [
        "t", "h_op", "n_op", "n_zero_field", "enhancement",
        "purity_op", "purity_zero", "dn_op_dt", "d2n_op_dt2", "phase",
    ]
    rows = lines[3:]
    assert len(rows) == 3
    assert all(len(r.split(",")) == len(header) for r in rows)


def test_optimize_json(capsys):
    code, out = run_cli(
        capsys,
        "optimize", "--diag", "0.5,0.3333333333333333,0.1666666666666667",
        "--t-min", "1.0", "--t-max", "1.0", "--t-points", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 1
    assert payload["rows"][0][-1] == "high_t"


def test_optimize_zero_field_below_boundary(capsys):
    iso = "0.3333333333333333,0.3333333333333333,0.3333333333333333"
    code, out = run_cli(
        capsys,
        "optimize", "--diag", iso,
        "--t-min", "0.3", "--t-max", "2.0", "--t-points", "7",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if float(row["t"]) < 0.8168:
            assert float(row["h_op"]) == 0.0
            assert row["phase"] == "low_t"
        elif float(row["t"]) > 0.82:
            assert float(row["h_op"]) > 0.0
            assert row["phase"] == "high_t"


def test_phase_diagram_determinism(tmp_path):
    argv = [
        "phase-diagram", "--class", "fm",
        "--grid-min", "1", "--grid-max", "3", "--grid-step", "1",
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(p1)]) == 0
    assert cli.main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = [ln for ln in p1.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 9
    t_c = {tuple(map(float, r.split(",")[:2])): float(r.split(",")[2]) for r in rows}
    assert t_c[(1.0, 1.0)] == 0.0  # ferromagnetic isotropic point


def test_asymptote_compare_validity_flags(capsys):
    code, out = run_cli(
        capsys,
        "asymptote-compare", "--diag",
        "0.3333333333333333,0.3333333333333333,0.3333333333333333",
        "--t-min", "0.5", "--t-max", "100", "--t-points", "4",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    cold = rows[0]
    assert float(cold["t"]) == pytest.approx(0.5)
    assert cold["leading_valid"] == "0"
    assert cold["h_leading"] == "" and cold["n_leading"] == ""
    hot = rows[-1]
    assert float(hot["t"]) == pytest.approx(100.0)
    assert hot["asym_valid"] == "1" and hot["leading_valid"] == "1"
    assert float(hot["ratio_h_asym"]) == pytest.approx(1.0007, abs=5e-4)
    assert float(hot["ratio_n_at_h_asym"]) == pytest.approx(0.999998, abs=1e-5)


def test_verify_hypothesis_json_deterministic(tmp_path):
    argv = [
        "verify-hypothesis", "--diag", "0.5,0.3333333333333333,0.1666666666666667",
        "--beta", "1.0", "--restarts", "3", "--seed", "9",
    ]
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    assert cli.main(argv + ["--out", str(p1)]) == 0
    assert cli.main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["passed"] is True
    assert payload["gap"] <= 1e-6
    assert len(payload["best_params"]) == 6


def test_measure_matches_identity(capsys):
    argv = [
        "measure", "--diag", "0.5,0.3333333333333333,0.1666666666666667",
        "--beta", "1.0", "--field-z", "1.0",
    ]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["negativity"] == pytest.approx(payload["concurrence"], abs=1e-9)
    assert 0.0 <= payload["pi"] <= 1.0
    assert 0.25 <= payload["purity"] <= 1.0
    # --fields spelling out the opposed z fields is --field-z itself
    fields = ["--fields", "0,0,1,0,0,-1"]
    assert run_cli(capsys, *argv[:-2], *fields) == (0, out)
    # and no field is --field-z 0, config hash included
    assert run_cli(capsys, *argv[:-2]) == run_cli(capsys, *argv[:-2], "--field-z", "0")


def test_usage_errors_exit_2(capsys):
    cases = [
        ["boundary"],  # no coupling
        ["boundary", "--diag", "1,2"],  # wrong arity
        ["boundary", "--diag", "1,2,nan"],  # non-finite
        ["boundary", "--diag", "1,x,2"],  # unparseable
        ["boundary", "--coupling", "1,0,0,0,1,0,0,0,1", "--diag", "1,1,1"],
        ["measure", "--diag", "1,1,1", "--temperature", "0"],
        ["optimize", "--diag", "1,1,1", "--t-min", "0"],
        ["phase-diagram", "--class", "afm", "--grid-step", "0"],
        ["phase-diagram", "--class", "afm", "--grid-min", "3", "--grid-max", "2"],
        ["measure", "--diag", "1,1,1"],  # neither temperature nor beta
        ["measure", "--diag", "1,1,1", "--beta", "1", "--temperature", "2"],
        ["measure", "--diag", "1,1,1", "--beta", "-1"],
        ["optimize", "--diag", "1,1,1", "--t-min", "1", "--t-max", "2", "--t-points", "0"],
        ["optimize", "--diag", "1,1,1", "--t-min", "2", "--t-max", "1"],
        ["phase-diagram", "--class", "afm", "--grid-min", "0.5", "--grid-max", "2"],
        ["measure", "--diag", "1,1,1", "--beta", "1", "--fields", "1,0,0,0,0,1", "--field-z", "2"],
        ["verify-hypothesis", "--diag", "1,1,1", "--beta", "1", "--restarts", "0"],
        ["verify-hypothesis", "--diag", "1,1,1", "--beta", "1", "--seed", "-1"],
        ["measure", "--diag", "1,1,1", "--beta", "1e400"],  # overflows to inf
        ["measure", "--diag", "1,1,1", "--temperature", "nan"],
        ["measure", "--diag", "1,1,1", "--temperature", "1e-320"],  # 1/T overflows
        ["optimize", "--diag", "1,1,1", "--t-max", "inf"],
        ["asymptote-compare", "--diag", "1,1,1", "--t-max", "nan"],
        ["phase-diagram", "--class", "afm", "--grid-max", "inf"],
        ["phase-diagram", "--class", "afm", "--grid-step", "1e-300"],  # too many grid values
    ]
    for argv in cases:
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["boundary", "--no-such-flag"])
    assert exc.value.code == 2


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalFailure("bracket exhausted")

    monkeypatch.setattr(cli, "boundary_temperature", explode)
    code = cli.main(["boundary", "--diag", "0.3,0.3,0.3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "bracket exhausted" in err


def test_console_entry_point_subprocess():
    # the child imports entopt from where this process found it
    src = os.path.dirname(os.path.dirname(entopt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "entopt", "boundary", "--diag", "0.25,0.25,0.25"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["t_c"] == pytest.approx(0.8168 * 0.75, abs=1e-3)


# The README commands with their config_hash and their CSV header (tables) or
# record keys besides config and config_hash (JSON records).
README_COMMANDS = [
    (
        ["canonicalize", "--coupling", "1,1,0,-1,1,0,0,0,-2"],
        "2a57fdabf8fe",
        "det_r1,det_r2,jx,jy,jz,r1,r2,sign_class,spectrum_residual",
    ),
    (["boundary", "--diag", ISO_README], "70f3e66cc1d3", "d2n_op_dt2_jump,t_c"),
    (
        ["optimize", "--diag", FIG3_README, "--t-min", "0.01", "--t-max", "10",
         "--t-points", "3000", "--out", "optimize.csv"],
        "077375ac9544",
        "t,h_op,n_op,n_zero_field,enhancement,purity_op,purity_zero,dn_op_dt,d2n_op_dt2,phase",
    ),
    (
        ["phase-diagram", "--class", "afm", "--grid-min", "1", "--grid-max", "10",
         "--grid-step", "0.5", "--out", "afm.csv"],
        "8a574c284752",
        "jx_over_abs_jz,jy_over_abs_jz,t_c",
    ),
    (
        ["asymptote-compare", "--diag", ISO_README, "--t-min", "1", "--t-max", "100",
         "--t-points", "25", "--out", "asymptotes.csv"],
        "e823b2f15d05",
        "t,h_exact,n_exact,h_asym,n_asym,h_leading,n_leading,ratio_h_asym,ratio_h_leading,"
        "ratio_n_asym,ratio_n_leading,ratio_n_at_h_asym,asym_valid,leading_valid",
    ),
    (
        ["verify-hypothesis", "--coupling", "0.4,0.1,0,-0.1,0.3,0.05,0,0.05,0.2",
         "--beta", "1", "--restarts", "64", "--seed", "0"],
        "1f3ad06bb253",
        "best_params,constrained_best,failed_restarts,gap,passed,restarts,unconstrained_best",
    ),
    (
        ["measure", "--diag", FIG3_README, "--beta", "1", "--field-z", "1"],
        "ef4b12d85e90",
        "concurrence,min_pt_eigenvalue,negativity,pi,purity",
    ),
]


@pytest.mark.parametrize(
    "argv,digest,header", README_COMMANDS, ids=[case[0][0] for case in README_COMMANDS]
)
def test_readme_config_hash_and_header(argv, digest, header, tmp_path, monkeypatch, capsys):
    # the hash covers the config only, so the 64-restart search is skipped
    report = Hypothesis1Report(0.0, 0.0, np.zeros(6), 0.0, 64, 0, True)
    monkeypatch.setattr(cli, "verify_hypothesis1", lambda *args, **kwargs: report)
    if "--out" in argv:
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert cli.main(argv) == 0
    text = (tmp_path / argv[-1]).read_text() if "--out" in argv else capsys.readouterr().out
    if text.startswith("#"):
        lines = text.splitlines()
        assert lines[0].startswith(f"# config_hash={digest} config=")
        assert lines[1] == header
    else:
        payload = json.loads(text)
        assert payload.pop("config_hash") == digest
        payload.pop("config")
        assert ",".join(sorted(payload)) == header
