import os
import subprocess
import sys

import entopt

# Run in a fresh interpreter: this test process has scipy loaded already.
SCRIPT = """
import contextlib
import io
import sys
import numpy as np
import entopt
import entopt.cli
from entopt import CanonicalCoupling, gibbs_state, build_hamiltonian

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

fig3 = CanonicalCoupling(1 / 2, 1 / 3, 1 / 6)
entopt.optimal_field(fig3, 0.25)
entopt.boundary_temperature(fig3)
entopt.phase_diagram([1.0, 2.0], [1.0, 3.0], "afm")
entopt.high_t_hop_exact(0.5, 1 / 3, 0.01)
entopt.canonicalize(np.array([[1, 1, 0], [-1, 1, 0], [0, 0, -2]]))
assert scipy_modules() == [], scipy_modules()

rho, _ = gibbs_state(build_hamiltonian(fig3.diagonal), 1.0)
entopt.entanglement_report(rho)
entopt.necessary_condition(rho)
entopt.hermitian_eigen(rho)
assert scipy_modules() == [], scipy_modules()

diag = "0.5,0.333333333333,0.166666666667"
commands = [
    ["measure", "--diag", diag, "--beta", "1", "--field-z", "1"],
    ["canonicalize", "--coupling", "1,1,0,-1,1,0,0,0,-2"],
    ["optimize", "--diag", diag, "--t-min", "0.01", "--t-max", "10", "--t-points", "5"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert entopt.cli.main(argv) == 0, argv
assert scipy_modules() == [], scipy_modules()

report = entopt.verify_hypothesis1(np.diag([0.5, 1 / 3, 1 / 6]), 1.0, restarts=2, seed=3)
assert report.passed and report.restarts == 2, report
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_solvers_load_no_scipy():
    # scipy is loaded on first use, by the hypothesis search only: the solvers,
    # the Gibbs state, the measures and the measure, canonicalize and optimize
    # commands run on numpy alone
    src = os.path.dirname(os.path.dirname(entopt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
