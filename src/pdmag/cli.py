"""Command-line front end.

Every command accepts the same physical-parameter flags, optionally
seeded from a flat key=value config file (flags win over the file).
Output is plot-ready CSV (JSON for `crossings`) on stdout or --out. run
resolves the effective parameter set once, echoes it to stderr for
reproducibility and hands it to the command. Every CSV table is written
by one function (_csv): floats with 17 significant digits and integers
in full, so identical invocations give byte-identical output.

Exit status: 0 success, 1 validation or usage error, 2 verification
tolerance exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .errors import BracketingError, DomainError, NormalizationError
from .fields import field_table
from .models import ModelKind, energy, greene_aldrich, wavefunction
from .oracle import verify_states
from .params import _MAX_POINTS, PhysicalParams, QuantumState, load_config, params_from_mapping
from .sweeps import SWEEPABLE, SweepSpec, find_crossings, sweep

__all__ = ["run"]

_PARAM_FLAGS = (
    ("--e", "e", "particle charge (signed)"),
    ("--b0", "b0", "magnetic field strength"),
    ("--mu", "mu", "field shape strength"),
    ("--beta", "beta", "field generator offset"),
    ("--sigma", "sigma", "field profile exponent"),
    ("--alpha", "alpha_ab", "Aharonov-Bohm flux ratio"),
    ("--kz", "kz", "axial wavenumber"),
    ("--eta", "eta", "mass scale"),
    ("--delta", "delta", "mass/potential decay rate"),
    ("--v0", "v0", "screened-Coulomb strength"),
    ("--v1", "v1", "inverse-linear potential strength"),
    ("--v2", "v2", "inverse-square potential strength"),
)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.11 takes "-1e-3", "-inf" and "-nan" for flags; read any
        # argument that starts like a negative number as a value.
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _param_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("physical parameters")
    for flag, dest, help_text in _PARAM_FLAGS:
        group.add_argument(flag, dest=dest, type=float, default=None, help=help_text)
    parent.add_argument(
        "--config",
        default=None,
        help="flat key=value parameter file; explicit flags override it",
    )
    parent.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parent


def _resolve_params(args) -> PhysicalParams:
    mapping: dict[str, float] = {}
    if args.config:
        mapping.update(load_config(args.config))
    for _, dest, _ in _PARAM_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            mapping[dest] = value
    params = params_from_mapping(mapping)
    echo = " ".join(f"{dest}={_fmt(getattr(params, dest))}" for _, dest, _ in _PARAM_FLAGS)
    print(f"# params: {echo}", file=sys.stderr)
    return params


def _parse_state(text: str) -> QuantumState:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"state must be 'n_rho,m', got {text!r}")
    try:
        n_rho, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"state must be two integers 'n_rho,m', got {text!r}") from None
    return QuantumState(n_rho=n_rho, m=m)


def _state_range(args) -> list[QuantumState]:
    if args.nrho_max < 0:
        raise DomainError(f"--nrho-max must be >= 0, got {args.nrho_max}")
    if args.m_min > args.m_max:
        raise DomainError(f"--m-min must not exceed --m-max, got {args.m_min} > {args.m_max}")
    count = (args.nrho_max + 1) * (args.m_max - args.m_min + 1)
    if count > _MAX_POINTS:
        raise DomainError(f"the state range must hold at most {_MAX_POINTS} states, got {count}")
    return [
        QuantumState(n_rho=n, m=m)
        for n in range(args.nrho_max + 1)
        for m in range(args.m_min, args.m_max + 1)
    ]


def _radii(args) -> np.ndarray:
    if not 2 <= args.points <= _MAX_POINTS:
        raise DomainError(f"--points must be between 2 and {_MAX_POINTS}, got {args.points}")
    if not 0 < args.rho_min < args.rho_max:
        raise DomainError(
            f"need 0 < --rho-min < --rho-max, got {args.rho_min}, {args.rho_max}"
        )
    return np.linspace(args.rho_min, args.rho_max, args.points)


def _csv(header: str, rows) -> list[str]:
    """The CSV lines of a table: a str cell as is, None as an empty cell, an
    int in full and a float through _fmt."""
    def cell(x) -> str:
        if isinstance(x, str):
            return x
        return "" if x is None else str(x) if isinstance(x, int) else _fmt(x)

    return [header, *(",".join(map(cell, row)) for row in rows)]


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args, params: PhysicalParams) -> int:
    kind = ModelKind.parse(args.model)
    rows = []
    for state in _state_range(args):
        try:
            rows.append((state.n_rho, state.m, energy(kind, state, params)))
        except DomainError as err:
            print(f"# skipped n_rho={state.n_rho} m={state.m}: {err}", file=sys.stderr)
    _emit(_csv("n_rho,m,E", rows), args.out)
    return 0


def _cmd_wavefunction(args, params: PhysicalParams) -> int:
    kind = ModelKind.parse(args.model)
    state = _parse_state(args.state)
    rhos = _radii(args)
    r_values = wavefunction(kind, state, params, rhos, form=args.form, component="R")
    u_values = wavefunction(kind, state, params, rhos, form=args.form, component="U")
    _emit(_csv("rho,R,U", zip(rhos, r_values, u_values)), args.out)
    return 0


def _cmd_field(args, params: PhysicalParams) -> int:
    rhos = _radii(args)
    _emit(_csv("rho,S,Bz,Aphi", zip(rhos, *field_table(rhos, params))), args.out)
    return 0


def _cmd_sweep(args, params: PhysicalParams) -> int:
    kind = ModelKind.parse(args.model)
    states = tuple(_parse_state(s) for s in args.state)
    spec = SweepSpec(
        kind=kind, states=states, param_name=args.param, lo=args.lo, hi=args.hi, steps=args.steps
    )
    rows = ((row.param_name, row.value, row.state.n_rho, row.state.m, row.energy,
             "true" if row.valid else "false", row.reason) for row in sweep(spec, params))
    _emit(_csv("param,value,n_rho,m,E,valid,reason", rows), args.out)
    return 0


def _cmd_crossings(args, params: PhysicalParams) -> int:
    import json  # only this command writes JSON; the others start without it

    kind = ModelKind.parse(args.model)
    s1 = _parse_state(args.s1)
    s2 = _parse_state(args.s2)
    points = find_crossings(kind, s1, s2, args.param, (args.lo, args.hi), params)
    records = [
        {
            "param": args.param,
            "value": point.param_value,
            "E": point.energy,
            "state1": {"n_rho": s1.n_rho, "m": s1.m},
            "state2": {"n_rho": s2.n_rho, "m": s2.m},
            "bracket_width": point.bracket_width,
            "gap": point.gap,
        }
        for point in points
    ]
    _emit([json.dumps(records, indent=2)], args.out)
    return 0


def _cmd_verify(args, params: PhysicalParams) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise DomainError(f"--tol must be a positive finite number, got {args.tol}")
    kind = ModelKind.parse(args.model)
    rows, skipped = verify_states(
        kind, _state_range(args), params, n_points=args.n_points, target=args.target
    )
    for state, reason in skipped:
        print(f"# skipped n_rho={state.n_rho} m={state.m}: {reason}", file=sys.stderr)
    worst, worst_rel = None, 0.0
    for row in rows:
        rel = row.abs_err / max(1.0, abs(row.e_closed))
        if rel > worst_rel:
            worst, worst_rel = row, rel
    _emit(_csv("n_rho,m,E_closed,E_oracle,abs_err,residual,nodes,oracle_err",
               ((row.state.n_rho, row.state.m, row.e_closed, row.e_oracle, row.abs_err,
                 row.residual, row.nodes, row.oracle_err) for row in rows)), args.out)
    if worst_rel > args.tol:
        message = (f"verification failed: worst relative error {worst_rel:.3e} exceeds "
                   f"{args.tol:.3e} at n_rho={worst.state.n_rho} m={worst.state.m}")
        if worst.abs_err <= worst.oracle_err:
            message += (f"; its abs_err {worst.abs_err:.3e} is within oracle_err "
                        f"{worst.oracle_err:.3e}, so the level is oracle-limited: "
                        "try a larger --n-points")
        print(message, file=sys.stderr)
        return 2
    return 0


def _cmd_greene_aldrich(args, params: PhysicalParams) -> int:
    rhos = _radii(args)
    table = greene_aldrich(rhos, params.delta)
    _emit(_csv("rho,exact,approx,rel_err", zip(rhos, *table)), args.out)
    return 0


def _add_rho_flags(parser, rho_min=0.05, rho_max=30.0, points=601) -> None:
    parser.add_argument("--rho-min", type=float, default=rho_min)
    parser.add_argument("--rho-max", type=float, default=rho_max)
    parser.add_argument("--points", type=int, default=points)


def _add_state_range_flags(parser) -> None:
    parser.add_argument("--nrho-max", type=int, default=2, help="largest n_rho (from 0)")
    parser.add_argument("--m-min", type=int, default=-2)
    parser.add_argument("--m-max", type=int, default=2)


def _build_parser() -> _Parser:
    parent = _param_parent()
    parser = _Parser(prog="pdmag", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[parent], help="closed-form levels as CSV")
    p.add_argument("--model", required=True)
    _add_state_range_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("wavefunction", parents=[parent], help="radial functions R and U as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True, help="'n_rho,m'")
    p.add_argument("--form", choices=("paper", "xi"), default=None,
                   help="model C only: 'xi', the eigenfunction (default), or 'paper', "
                        "the paper's printed formula, which is not one")
    _add_rho_flags(p)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("field", parents=[parent], help="S, B_z and A_phi as CSV")
    _add_rho_flags(p)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("sweep", parents=[parent], help="levels over a parameter grid as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--state", action="append", required=True,
                   help="'n_rho,m'; repeat for several states")
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, default=41)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossings", parents=[parent],
                       help="level crossings of two states as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--s1", required=True, help="'n_rho,m'")
    p.add_argument("--s2", required=True, help="'n_rho,m'")
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("verify", parents=[parent],
                       help="closed forms vs numerical oracle; exit 2 beyond tolerance")
    p.add_argument("--model", required=True)
    _add_state_range_flags(p)
    p.add_argument("--tol", type=float, default=1e-5,
                   help="tolerance on abs_err / max(1, |E_closed|)")
    p.add_argument("--n-points", type=int, default=4000,
                   help="finest grid of the oracle's m, 2m, 4m ladder over 25 decay "
                        "lengths, m = n//4, so n rounds down to a multiple of 4 (m must "
                        "exceed --nrho-max); a level whose fit is not settled there also "
                        "solves 8m")
    p.add_argument("--target", choices=("exact", "ga"), default=None,
                   help="which equation the oracle solves (default: ga for C, exact otherwise)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("greene-aldrich", parents=[parent],
                       help="quality table of the 1/rho exponential surrogate")
    _add_rho_flags(p, rho_min=0.01, rho_max=2.0, points=200)
    p.set_defaults(func=_cmd_greene_aldrich)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, _resolve_params(args))
    except (DomainError, NormalizationError, BracketingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(run())
