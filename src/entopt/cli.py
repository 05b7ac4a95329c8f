"""Command-line front end emitting CSV/JSON data for the reference curves.

Units are k_B = 1 throughout, so temperatures and couplings share the same
energy scale and beta = 1/T. Output is deterministic: identical configuration
and seed produce byte-identical files; every table carries a comment line with
a hash of the resolved configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from dataclasses import fields as dataclass_fields

import numpy as np

from .asymptotics import AsymptoteDomainError, high_t_hop_exact, high_t_leading
from .closed_form import negativity_tilde
from .linalg import hermitian_eigen
from .measures import entanglement_report
from .optimizer import (
    EnhancementPoint,
    NumericalFailure,
    PhasePoint,
    boundary_temperature,
    d2n_op_dt2_jump,
    enhancement_curve,
    optimal_field,
    phase_diagram,
    verify_hypothesis1,
)
from .spin_model import CanonicalCoupling, build_hamiltonian, canonicalize, is_canonical_diagonal
from .thermal import _beta_from_t, gibbs_state, purity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
# 1e4 values per axis is 1e8 T_c solves, far beyond any real grid.
_MAX_GRID_VALUES = 10_000


def _parse_reals(text: str, count: int, label: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"could not parse {label}: {exc}") from None
    if values.size != count:
        raise ValueError(f"{label} needs {count} numbers, got {values.size}")
    return values


def _coupling_from_args(args) -> np.ndarray:
    if args.coupling and args.diag:
        raise ValueError("give either --coupling or --diag, not both")
    if args.coupling:
        return _parse_reals(args.coupling, 9, "--coupling").reshape(3, 3)
    if args.diag:
        return np.diag(_parse_reals(args.diag, 3, "--diag"))
    raise ValueError("a coupling is required (--coupling or --diag)")


def _canonical_from_args(args):
    """Canonical coupling from the CLI input plus a warning when it was rotated."""
    j = _coupling_from_args(args)
    diag = np.diag(j).copy()
    if np.array_equal(j, np.diag(diag)) and is_canonical_diagonal(*diag):
        return CanonicalCoupling(*diag), None
    c = canonicalize(j)
    warning = (
        "coupling was not in canonical diagonal form; "
        f"canonicalized to ({c.jx:.17g}, {c.jy:.17g}, {c.jz:.17g})"
    )
    return c, warning


def _temperature_grid(args, spacing: str) -> np.ndarray:
    if not args.t_max >= args.t_min:
        raise ValueError(f"--t-max {args.t_max} must not be below --t-min {args.t_min}")
    if args.t_points < 1:
        raise ValueError("--t-points must be at least 1")
    # Infinite or mixed-sign ends leave NaN or inf temperatures, which the solvers reject.
    with np.errstate(invalid="ignore", over="ignore"):
        if spacing == "log":
            return np.geomspace(args.t_min, args.t_max, args.t_points)
        return np.linspace(args.t_min, args.t_max, args.t_points)


def _fmt(value) -> str:
    if type(value) is float:  # most table cells: sweep rows are nine floats and a string
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _dumps(value, **kwargs) -> str:
    # numpy arrays and scalars reach `default`; tolist() makes either plain Python.
    # Strict JSON: a NaN or an infinity in a record is a lost result.
    try:
        return json.dumps(
            value, sort_keys=True, allow_nan=False, default=lambda v: v.tolist(), **kwargs
        )
    except ValueError as exc:
        raise NumericalFailure(f"a result is not finite ({exc})") from None


def _config_hash(config: dict) -> str:
    blob = _dumps(config, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dataclass_table(cls, records: list) -> tuple[list, list]:
    """Columns named after the fields of cls, and one row of field values per record."""
    columns = [f.name for f in dataclass_fields(cls)]
    return columns, [[getattr(record, name) for name in columns] for record in records]


def _write_table(args, config: dict, columns: list, rows: list, warning=None) -> None:
    if args.format == "json":
        record = {"columns": columns, "rows": rows}
        if warning:
            record["warning"] = warning
        _write_record(args, config, record)
        return
    lines = [f"# config_hash={_config_hash(config)} config={_dumps(config)}"]
    if warning:
        lines.append(f"# warning: {warning}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)


def _write_record(args, config: dict, record: dict) -> None:
    payload = {"config": config, "config_hash": _config_hash(config), **record}
    _emit(_dumps(payload, indent=2) + "\n", args.out)


def _cmd_canonicalize(args) -> None:
    j = _coupling_from_args(args)
    c = canonicalize(j)
    original, _ = hermitian_eigen(build_hamiltonian(j))
    rotated, _ = hermitian_eigen(build_hamiltonian(c.diagonal))
    record = asdict(c) | {
        "sign_class": c.sign_class,
        "det_r1": float(np.linalg.det(c.r1)),
        "det_r2": float(np.linalg.det(c.r2)),
        "spectrum_residual": float(np.max(np.abs(original - rotated))),  # both ascending
    }
    _write_record(args, {"command": "canonicalize", "coupling": j.tolist()}, record)


def _sweep_config(command: str, c: CanonicalCoupling, args) -> dict:
    return {
        "command": command,
        "coupling": [c.jx, c.jy, c.jz],
        "t_min": args.t_min,
        "t_max": args.t_max,
        "t_points": args.t_points,
    }


def _cmd_optimize(args) -> None:
    c, warning = _canonical_from_args(args)
    points = enhancement_curve(c, _temperature_grid(args, spacing="linear"))
    columns, rows = _dataclass_table(EnhancementPoint, points)
    _write_table(args, _sweep_config("optimize", c, args), columns, rows, warning)


def _grid_values(args) -> np.ndarray:
    if not 0.0 < args.grid_step < np.inf:
        raise ValueError(f"--grid-step must be positive and finite, got {args.grid_step}")
    if not args.grid_max >= args.grid_min:
        raise ValueError(f"--grid-max {args.grid_max} must not be below --grid-min {args.grid_min}")
    steps = (args.grid_max - args.grid_min) / args.grid_step + 1e-9
    if not steps < _MAX_GRID_VALUES:
        raise ValueError(f"--grid-* must span at most {_MAX_GRID_VALUES} values per axis")
    return args.grid_min + args.grid_step * np.arange(int(steps) + 1)


def _cmd_boundary(args) -> None:
    c, warning = _canonical_from_args(args)
    t_c = boundary_temperature(c)
    jump = d2n_op_dt2_jump(c, t_c) if t_c > 0.0 else None
    record = {"t_c": t_c, "d2n_op_dt2_jump": jump}
    if warning:
        record["warning"] = warning
    _write_record(args, {"command": "boundary", "coupling": [c.jx, c.jy, c.jz]}, record)


def _cmd_phase_diagram(args) -> None:
    values = _grid_values(args)
    config = {
        "command": "phase-diagram",
        "class": args.sign_class,
        "grid_min": args.grid_min,
        "grid_max": args.grid_max,
        "grid_step": args.grid_step,
    }
    columns, rows = _dataclass_table(PhasePoint, phase_diagram(values, values, args.sign_class))
    _write_table(args, config, columns, rows)


_ASYMPTOTE_COLUMNS = (
    "t,h_exact,n_exact,h_asym,n_asym,h_leading,n_leading,ratio_h_asym,ratio_h_leading,"
    "ratio_n_asym,ratio_n_leading,ratio_n_at_h_asym,asym_valid,leading_valid"
).split(",")


def _asymptote(formula, c: CanonicalCoupling, beta: float):
    """(h_op, n_op) of a high-temperature asymptote, or (None, None) outside its domain or where
    its field overflows."""
    try:
        a = formula(c.jx, c.jy, beta)
    except (AsymptoteDomainError, NumericalFailure):
        return None, None
    return a.h_op, a.n_op


def _ratio(value, ref):
    return None if value is None or ref == 0.0 else value / ref


def _cmd_asymptote_compare(args) -> None:
    c, warning = _canonical_from_args(args)
    rows = []
    for t in _temperature_grid(args, spacing="log"):
        beta = _beta_from_t(t)
        res = optimal_field(c, beta)
        h_asym, n_asym = _asymptote(high_t_hop_exact, c, beta)
        h_lead, n_lead = _asymptote(high_t_leading, c, beta)
        n_at_h_asym = None if h_asym is None else max(negativity_tilde(c, h_asym, beta), 0.0)
        rows.append([
            float(t), res.h_op, res.n_op, h_asym, n_asym, h_lead, n_lead,
            _ratio(h_asym, res.h_op), _ratio(h_lead, res.h_op), _ratio(n_asym, res.n_op),
            _ratio(n_lead, res.n_op), _ratio(n_at_h_asym, res.n_op),
            int(h_asym is not None), int(h_lead is not None),
        ])
    config = _sweep_config("asymptote-compare", c, args)
    _write_table(args, config, _ASYMPTOTE_COLUMNS, rows, warning)


def _cmd_verify_hypothesis(args) -> None:
    j = _coupling_from_args(args)
    report = verify_hypothesis1(j, args.beta, restarts=args.restarts, seed=args.seed)
    config = {
        "command": "verify-hypothesis",
        "coupling": j.tolist(),
        "beta": args.beta,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    _write_record(args, config, asdict(report))


def _cmd_measure(args) -> None:
    j = _coupling_from_args(args)
    if args.fields and args.field_z is not None:
        raise ValueError("give either --fields or --field-z, not both")
    if args.fields:
        fields = _parse_reals(args.fields, 6, "--fields")
    elif args.field_z is not None:
        # 0.0 - h, not -h: a zero field is recorded as 0.0, so the config hash
        # of --field-z 0 is that of no field
        fields = np.array([0.0, 0.0, args.field_z, 0.0, 0.0, 0.0 - args.field_z])
    else:
        fields = np.zeros(6)
    rho, _ = gibbs_state(build_hamiltonian(j, fields[:3], fields[3:]), args.beta)
    config = {
        "command": "measure", "coupling": j.tolist(), "fields": fields.tolist(), "beta": args.beta
    }
    _write_record(args, config, asdict(entanglement_report(rho)) | {"purity": purity(rho)})


def _add_coupling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coupling", help="9 reals, row-major 3x3 interaction matrix")
    p.add_argument("--diag", help="3 reals for a diagonal coupling (jx, jy, jz)")


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--out", help="output path (default: stdout)")
    if formats:
        p.add_argument("--format", choices=list(formats), default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entopt",
        description=(
            "Thermal-entanglement maximization for coupled two-qubit systems. "
            "Units: k_B = 1, so T = 1/beta and couplings set the energy scale."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonicalize", help="rotate a coupling to diagonal XYZ form")
    _add_coupling_flags(p)
    _add_output_flags(p, formats=())
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("optimize", help="optimal field, negativity and purity over T")
    _add_coupling_flags(p)
    p.add_argument("--t-min", type=float, default=0.01)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-points", type=int, default=3000)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("boundary", help="boundary temperature T_c of one coupling")
    _add_coupling_flags(p)
    _add_output_flags(p, formats=())
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("phase-diagram", help="T_c over a grid of coupling ratios")
    p.add_argument("--grid-min", type=float, default=1.0)
    p.add_argument("--grid-max", type=float, default=10.0)
    p.add_argument("--grid-step", type=float, default=1.0)
    p.add_argument("--class", dest="sign_class", choices=["afm", "fm"], required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("asymptote-compare", help="exact optimum vs high-temperature asymptotes")
    _add_coupling_flags(p)
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--t-points", type=int, default=25)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_asymptote_compare)

    p = sub.add_parser("verify-hypothesis", help="unconstrained field search vs the opposed-z optimum")
    _add_coupling_flags(p)
    p.add_argument("--beta", type=float, required=True, help="inverse temperature 1/T")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, formats=())
    p.set_defaults(func=_cmd_verify_hypothesis)

    p = sub.add_parser("measure", help="entanglement measures of one Gibbs state")
    _add_coupling_flags(p)
    p.add_argument("--beta", type=float, required=True, help="inverse temperature 1/T")
    p.add_argument("--fields", help="6 reals: h1x,h1y,h1z,h2x,h2y,h2z")
    p.add_argument("--field-z", type=float, help="opposed z fields (0,0,h),(0,0,-h)")
    _add_output_flags(p, formats=())
    p.set_defaults(func=_cmd_measure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
