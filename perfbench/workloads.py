"""The four workloads: seeded inputs, the timed call, and its oracle check.

``sweep`` and ``states`` have timed runs (``TIMED``); all four have a fixed
call set for the traced run (``trace_set``). A round is a fixed multiset of call sizes with seeded couplings, ranges and
order, so two seeds see the same mix of sizes and classes and differ only in
the drawn values. A timed run draws one set of calls (``timed_set``) and
repeats it until the run ends; ``repeat`` gives each repeat an input that
differs in the last digits, so no result can be reused while the work stays
that of the same call. Each workload's *anchors* are the fixed README calls:
a run makes them once, untimed, and checks them. Each workload drives entopt
only through its public entry points: ``entopt.cli.main`` with stdout
captured in memory, or the library calls the README shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

import oracles


@dataclass
class Spec:
    """One user-level call: CLI arguments or library inputs, and its item count.

    ``jitter`` is the index in ``argv`` of the float argument that ``repeat``
    scales; ``repeat`` also scales ``data["beta"]`` where there is one.
    """

    items: int
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    jitter: int = 0


# Relative change of the jittered input per repeat: far below every oracle
# tolerance and every change of branch, far above the last digit of a float.
JITTER = 1e-12


def repeat(spec: Spec, k: int) -> Spec:
    """The k-th repeat of a call, with its jittered input scaled by 1 + k * JITTER."""
    if k == 0:
        return spec
    scale = 1.0 + k * JITTER
    argv, data = list(spec.argv), spec.data
    if argv:
        argv[spec.jitter] = f"{float(argv[spec.jitter]) * scale:.17g}"
    if "beta" in data:  # the oracle's copy of beta, scaled to the same double
        data = {**data, "beta": data["beta"] * scale}
    return replace(spec, argv=argv, data=data)


def _fmt(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def _ratio_diagonal(x: float, y: float, sign: float) -> np.ndarray:
    """(x, y, 1) * sign scaled to interaction spectral norm 1, as phase-diagram does."""
    d = sign * np.array([x, y, 1.0])
    energies = [-d[0] - d[1] - d[2], d[0] + d[1] - d[2], d[0] - d[1] + d[2], -d[0] + d[1] + d[2]]
    return d / max(abs(e) for e in energies)


def run_cli(argv) -> tuple:
    """Time one cli.main call; its output is kept in memory, never written to disk."""
    import entopt.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects input by exiting
            code = exc.code
        seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return seconds, out.getvalue()


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _close(got: float, want: float, atol: float) -> bool:
    return abs(got - want) <= atol * max(1.0, abs(want))


class Sweep:
    """`entopt optimize` temperature sweeps; an item is one temperature row."""

    name = "sweep"
    sizes = (5, 10, 25)  # timed calls: 2-15 ms each
    rounds = 4
    trace_sizes = (250,)
    classes = ("afm", "fm", "fm_degenerate", "near_degenerate")
    anchor_diag = (0.5, 0.333333333333, 0.166666666667)
    anchor = ["optimize", "--diag", "0.5,0.333333333333,0.166666666667",
              "--t-min", "0.01", "--t-max", "10", "--t-points", "3000"]  # README FIG3 call
    rows_checked = 4
    warmup = ["optimize", "--diag", "0.5,0.3,0.1", "--t-min", "0.1", "--t-max", "2", "--t-points", "4"]

    def _coupling(self, cls, rng) -> np.ndarray:
        if cls == "afm":
            return _ratio_diagonal(rng.uniform(1, 10), rng.uniform(1, 10), 1.0)
        if cls == "fm":
            return _ratio_diagonal(rng.uniform(1, 10), rng.uniform(1, 10), -1.0)
        if cls == "fm_degenerate":  # jy = jz: T_c = 0, every row in the finite-field phase
            return _ratio_diagonal(rng.uniform(1, 10), 1.0, -1.0)
        y = rng.uniform(1, 10)  # jx ~ jy
        return _ratio_diagonal(y * (1.0 + 10 ** rng.uniform(-8, -4)), y, rng.choice([-1.0, 1.0]))

    @property
    def anchors(self) -> list:
        return [Spec(3000, list(self.anchor), {"diag": self.anchor_diag})]

    def make_round(self, rng, sizes) -> list:
        # T ranges straddle every non-degenerate T_c (0.1-0.82 at spectral norm 1).
        specs = []
        for cls in self.classes:
            for n in sizes:
                diag = self._coupling(cls, rng)
                t_min, t_max = rng.uniform(0.02, 0.05), rng.uniform(2.5, 3.5)
                argv = ["optimize", f"--diag={_fmt(diag)}", "--t-min", f"{t_min:.17g}",
                        "--t-max", f"{t_max:.17g}", "--t-points", str(n)]
                specs.append(Spec(n, argv, {"diag": diag}, jitter=3))
        rng.shuffle(specs)
        return specs

    def timed_set(self, rng) -> list:
        return [s for _ in range(self.rounds) for s in self.make_round(rng, self.sizes)]

    def trace_set(self, rng) -> list:
        return self.anchors + self.make_round(rng, self.trace_sizes)

    def call(self, spec):
        return run_cli(spec.argv)

    def check(self, spec, out, rng, props) -> list:
        rows = _csv_rows(out)
        if len(rows) != spec.items:
            return [f"{len(rows)} rows, expected {spec.items}"]
        high = sum(r["phase"] == "high_t" for r in rows)
        props["rows"] += len(rows)
        props["high_t_rows"] += high
        problems = []
        picks = rng.choice(len(rows), size=min(self.rows_checked, len(rows)), replace=False)
        for r in (rows[i] for i in picks):
            t, h_op, n_op = float(r["t"]), float(r["h_op"]), float(r["n_op"])
            if (r["phase"] == "low_t") != (h_op == 0.0):
                problems.append(f"T={t}: phase {r['phase']} with h_op={h_op}")
            delta = 1e-4 * max(1.0, h_op)
            states = oracles.opposed_z_states(
                spec.data["diag"], [h_op, 0.0, h_op + delta, max(h_op - delta, 0.0)], 1.0 / t
            )
            n = oracles.negativity(states)
            p = oracles.purity(states[:2])
            pairs = (("n_op", n[0]), ("n_zero_field", n[1]), ("purity_op", p[0]), ("purity_zero", p[1]))
            for col, want in pairs:
                if not _close(float(r[col]), want, oracles.MEASURE_ATOL):
                    problems.append(f"T={t}: {col}={r[col]}, brute force {want:.17g}")
            if max(n[2], n[3]) > n_op + oracles.OPTIMUM_SLACK:
                problems.append(f"T={t}: N(h_op +- delta)={max(n[2], n[3]):.17g} > n_op={n_op:.17g}")
        return problems


class Phase:
    """`entopt phase-diagram` grids; an item is one T_c point."""

    name = "phase"
    sizes = (4, 7, 10)
    readme = ["--grid-min", "1", "--grid-max", "10", "--grid-step", "0.5"]  # 19 x 19
    # Criteria 1 and 2: (class, x, y) -> (T_c, tolerance).
    pinned = {
        ("afm", 1.0, 1.0): (0.8168, 1e-3),
        ("afm", 3.0, 2.0): (0.6803, 1e-3),
        ("afm", 1.0, 10.0): (0.1292, 2e-3),
        ("afm", 10.0, 1.0): (0.1292, 2e-3),
        ("afm", 10.0, 10.0): (0.5735, 2e-3),
        ("afm", 5.0, 5.0): (0.6208, 2e-3),
        ("fm", 1.0, 1.0): (0.0, 2e-3),
        ("fm", 2.0, 1.0): (0.0, 1e-3),
        ("fm", 10.0, 10.0): (0.4126, 2e-3),
        ("fm", 5.0, 5.0): (0.3188, 2e-3),
        ("fm", 1000.0, 1000.0): (0.5184, 5e-3),  # XX limit
    }
    points_checked = 4
    warmup = ["phase-diagram", "--class", "afm", "--grid-min", "1", "--grid-max", "2"]
    # Below this T_c the slope check would need beta > 50, where the
    # difference N~(dh) - N~(0) underflows.
    slope_tc_floor = 0.02

    def make_round(self, rng) -> list:
        specs = [
            Spec(361, ["phase-diagram", "--class", "afm", *self.readme], {"cls": "afm"}),
            Spec(361, ["phase-diagram", "--class", "fm", *self.readme], {"cls": "fm"}),
            Spec(1, ["phase-diagram", "--class", "fm", "--grid-min", "1000", "--grid-max", "1000"],
                 {"cls": "fm"}),
        ]
        for cls in ("afm", "fm"):
            for n in self.sizes:
                # Each grid spans nearly all of 1-10, so its mix of T_c values, and
                # with it the scan length per point, varies little between seeds.
                lo = rng.uniform(1.0, 1.1)
                step = rng.uniform(8.8, 10.0 - lo) / (n - 1)
                argv = ["phase-diagram", "--class", cls, "--grid-min", f"{lo:.17g}",
                        "--grid-max", f"{lo + step * (n - 0.5):.17g}", "--grid-step", f"{step:.17g}"]
                specs.append(Spec(n * n, argv, {"cls": cls}))
        rng.shuffle(specs)
        return specs

    def trace_set(self, rng) -> list:
        return self.make_round(rng)

    def call(self, spec):
        return run_cli(spec.argv)

    def check(self, spec, out, rng, props) -> list:
        rows = _csv_rows(out)
        if len(rows) != spec.items:
            return [f"{len(rows)} points, expected {spec.items}"]
        cls = spec.data["cls"]
        sign = 1.0 if cls == "afm" else -1.0
        points = [(float(r["jx_over_abs_jz"]), float(r["jy_over_abs_jz"]), float(r["t_c"])) for r in rows]
        props["points"] += len(points)
        props["zero_tc_points"] += sum(tc == 0.0 for _, _, tc in points)
        problems = []
        for x, y, tc in points:
            pin = self.pinned.get((cls, x, y))
            if pin and abs(tc - pin[0]) > pin[1]:
                problems.append(f"{cls} ({x}, {y}): T_c={tc}, pinned {pin[0]} +- {pin[1]}")
        picks = rng.choice(len(points), size=min(self.points_checked, len(points)), replace=False)
        for x, y, tc in (points[i] for i in picks):
            diag = _ratio_diagonal(x, y, sign)
            if tc == 0.0:
                # No boundary: a small field helps at every temperature.
                expect = {0.3: 1.0, 3.0: 1.0}
            elif tc >= self.slope_tc_floor:
                expect = {0.9 * tc: -1.0, 1.1 * tc: 1.0}
            else:
                continue
            for t, sign_want in expect.items():
                got = oracles.zero_field_slope_sign(diag, t)
                if got != sign_want:
                    problems.append(f"{cls} ({x}, {y}) T_c={tc}: dN/dh sign {got} at T={t:.6g}")
        return problems


class Search:
    """`entopt verify-hypothesis` with criterion 9's settings; an item is one check."""

    name = "search"
    betas = (0.3, 1.0, 3.0)
    restarts = 64
    atol = 1e-8
    warmup = ["verify-hypothesis", "--diag", "0.5,0.3,0.1", "--beta", "1", "--restarts", "1"]

    def make_round(self, rng) -> list:
        specs = []
        for beta in self.betas:
            j = rng.normal(size=(3, 3))
            argv = ["verify-hypothesis", f"--coupling={_fmt(j.ravel())}", "--beta", repr(beta),
                    "--restarts", str(self.restarts), "--seed", str(int(rng.integers(1 << 31)))]
            specs.append(Spec(1, argv, {"j": j, "beta": beta}))
        rng.shuffle(specs)
        return specs

    def trace_set(self, rng) -> list:
        return self.make_round(rng)[:1]

    def call(self, spec):
        return run_cli(spec.argv)

    def check(self, spec, out, rng, props) -> list:
        rep = json.loads(out)
        j, beta = spec.data["j"], spec.data["beta"]
        problems = []
        if rep["passed"] is not True or rep["restarts"] != self.restarts:
            problems.append(f"passed={rep['passed']} restarts={rep['restarts']} gap={rep['gap']}")
        params = np.asarray(rep["best_params"], dtype=float)
        n_free = float(oracles.negativity(oracles.gibbs(oracles.hamiltonian(j, params[:3], params[3:]), beta)))
        if not _close(rep["unconstrained_best"], n_free, self.atol):
            problems.append(f"unconstrained_best={rep['unconstrained_best']!r}, N at best_params {n_free!r}")
        scale = float(np.max(np.abs(np.linalg.eigvalsh(oracles.hamiltonian(j)))))
        n_opt = oracles.constrained_optimum(j, beta, h_max=20.0 * scale)
        if not _close(rep["constrained_best"], n_opt, self.atol):
            problems.append(f"constrained_best={rep['constrained_best']!r}, grid optimum {n_opt!r}")
        return problems


class States:
    """The README library calls on one arbitrary Gibbs state; an item is one state."""

    name = "states"
    round_size = 1000
    timed_size = 250  # each state is timed by its fastest of many repeats
    checked_share = 0.05
    warmup = None  # warmed with library calls instead
    anchors: list = []

    def make_round(self, rng, n) -> list:
        js = rng.normal(size=(n, 3, 3))
        fields = rng.normal(size=(n, 6)) * 10 ** rng.uniform(-1.0, 0.5, size=(n, 1))
        betas = 10 ** rng.uniform(-2.0, 2.0, size=n)
        return [Spec(1, data={"j": js[i], "h1": fields[i, :3], "h2": fields[i, 3:], "beta": betas[i]})
                for i in range(n)]

    def timed_set(self, rng) -> list:
        return self.make_round(rng, self.timed_size)

    def trace_set(self, rng) -> list:
        return self.make_round(rng, self.round_size) * 2

    def call(self, spec):
        import entopt

        d = spec.data
        start = time.perf_counter()
        c = entopt.canonicalize(d["j"])
        h = entopt.build_hamiltonian(c.diagonal, c.r1 @ d["h1"], c.r2 @ d["h2"])
        rho, _ = entopt.gibbs_state(h, d["beta"])
        report = entopt.entanglement_report(rho)
        witness = entopt.necessary_condition(rho)
        pure = entopt.purity(rho)
        return time.perf_counter() - start, (report, witness, pure)

    def check(self, spec, out, rng, props) -> list:
        report, witness, pure = out
        props["states"] += 1
        props["entangled_states"] += report.negativity > 0.0
        if rng.random() >= self.checked_share:
            return []
        d = spec.data
        rho = oracles.gibbs(oracles.hamiltonian(d["j"], d["h1"], d["h2"]), d["beta"])
        n = float(oracles.negativity(rho))
        problems = []
        for name, got, want, atol in (
            ("negativity", report.negativity, n, oracles.MEASURE_ATOL),
            ("purity", pure, float(oracles.purity(rho)), oracles.MEASURE_ATOL),
            ("concurrence", report.concurrence, oracles.concurrence(rho), oracles.CONCURRENCE_ATOL),
        ):
            if not _close(got, want, atol):
                problems.append(f"{name}={got!r}, brute force {want!r} (beta={d['beta']:.6g})")
        if n > oracles.MEASURE_ATOL and not witness:
            problems.append(f"N={n:.3g} > 0 but the ordering witness fails")
        return problems


WORKLOADS = {w.name: w for w in (Sweep(), Phase(), Search(), States())}
# Workloads with timed runs; the others are measured by the traced run only.
# A search call takes about 4 s, too long for a steady fastest-repeat time.
# phase is left out so that the two timed workloads can run longer within the
# benchmark's time budget; sweep still times the optimizer layer.
TIMED = ("sweep", "states")

# Share of items with the input property that changes which code runs.
PROPERTY_SHARES = {
    "sweep": ("high_t_share", "high_t_rows", "rows"),  # rows that run Brent
    "phase": ("zero_tc_share", "zero_tc_points", "points"),  # full scan, no Brent step
    "states": ("entangled_share", "entangled_states", "states"),  # pi_measure takes a determinant
}


def property_share(name: str, props) -> dict:
    if name not in PROPERTY_SHARES:
        return {}
    label, num, den = PROPERTY_SHARES[name]
    return {label: props[num] / max(1, props[den])}


def percentile_tail(times) -> tuple:
    """Highest call time with at least 10 calls beyond it: (value, percentile, calls beyond).

    Fewer than 20 calls have no such percentile; their highest time stands in.
    """
    s = sorted(times)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


