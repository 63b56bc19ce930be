"""Command-line front door for the bound/solve/compare machinery.

Four subcommands:

* ``table1``  -- reproduce the reference binding-energy table (envelope upper
  bound and shooting eigenvalue for 1s_1/2 and 2p_3/2, Z = 20..80) and diff it
  against the embedded golden values;
* ``bound``   -- envelope upper bound for user-supplied (Z, state);
* ``solve``   -- shooting-solver eigenvalue for a screened or shifted-Coulomb
  potential (``--shift`` defaults to 0, the pure Coulomb -u/r), optionally
  dumping the wave function;
* ``compare`` -- run the ordering harness on a screened potential vs. one of
  its tangent shifted-Coulomb potentials.

Exit codes: 0 success, 1 numerical failure (a table cell FAILED, a solve did
not converge, or an ordering verdict came back FAIL), 2 usage errors and
hypothesis violations (e.g. requesting a bound for a tau=+1 channel).

Output formats: ``csv`` (one record per line, '.' decimal, 6 significant
digits), ``json`` (full float precision), ``pretty`` (aligned text table).
Energies honor --units: ``kev-binding`` reports E - mc^2 in keV, ``mc2``
reports the raw eigenvalue in rest-energy units.  All output is deterministic
for a fixed configuration.

The commands read the parsed namespace, on which ``main`` resolves the
constants, normalised state labels and units once.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .channels import (
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    parse_state_label,
    spectroscopic_label,
)
from .comparison import assert_ordering
from .envelope import minimize_bound
from .errors import HypothesisViolationError, SolverError
from .potentials import ScreenedCoulomb, ShiftedCoulomb, tangent_at
from .radial import solve_eigenvalue
from .table1 import DEFAULT_Z_VALUES, STATE_LABELS, compute_table

SIG_DIGITS = 6
_UNIT_SUFFIX = {"kev-binding": "keV", "mc2": "mc2"}


class UsageError(Exception):
    """Bad flag combination detected after argparse (maps to exit code 2)."""


# ---------------------------------------------------------------- rendering


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    return str(value)


def _render_csv(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(col)) for col in header])
    return buf.getvalue()


def _render_pretty(header: list[str], rows: list[dict], footer: list[str]) -> str:
    table = [header] + [[_fmt_cell(row.get(col)) for col in header] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in table]
    lines[1:1] = ["  ".join("-" * w for w in widths)]
    return "\n".join(lines + footer) + "\n"


def _emit(args: argparse.Namespace, rows: list[dict], json_obj, footer: list[str]) -> None:
    header = list(rows[0])
    if args.fmt == "csv":
        text = _render_csv(header, rows)
    elif args.fmt == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        text = _render_pretty(header, rows, footer)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ----------------------------------------------------- unit conversions


def _energy_display(energy_mc2: float | None, args: argparse.Namespace) -> float | None:
    if energy_mc2 is None:
        return None
    if args.units == "mc2":
        return energy_mc2
    return args.constants.binding_kev(energy_mc2)


def _kev_display(kev: float | None, args: argparse.Namespace) -> float | None:
    if kev is None:
        return None
    if args.units == "kev-binding":
        return kev
    return 1.0 + kev / args.constants.electron_rest_energy_kev


def _kev_delta_display(kev: float | None, args: argparse.Namespace) -> float | None:
    if kev is None:
        return None
    if args.units == "kev-binding":
        return kev
    return kev / args.constants.electron_rest_energy_kev


def _pot_label(pot) -> str:
    d = pot.describe()
    params = ",".join(
        f"{k}={_fmt_cell(v)}" for k, v in d.items() if k not in ("type", "parent")
    )
    return f"{d['type']}({params})"


# ----------------------------------------------------------- subcommands


def cmd_table1(args: argparse.Namespace) -> int:
    result = compute_table(
        args.z, args.constants, grid_scale=args.grid_scale, tol_e=args.tol_e
    )
    rows = []
    for c in result.cells:
        rows.append({
            "z": c.z,
            "state": c.state,
            "quantity": c.quantity,
            "computed": _energy_display(c.energy, args),
            "reference": _kev_display(c.reference_kev, args),
            "deviation": _kev_delta_display(c.deviation_kev, args),
            "status": "FAILED" if c.failed else "ok",
        })
    max_dev = _kev_delta_display(result.max_abs_deviation_kev, args)
    json_obj = {
        "units": args.units,
        "cells": [dict(row, error=c.error) for row, c in zip(rows, result.cells)],
        "max_abs_deviation": max_dev,
        "failed_cells": result.failed_cells,
    }
    unit = _UNIT_SUFFIX[args.units]
    footer = [
        f"# units: {unit}",
        f"# max |deviation| vs reference: {_fmt_cell(max_dev)} {unit}",
        f"# failed cells: {result.failed_cells}",
    ]
    _emit(args, rows, json_obj, footer)
    return 0 if result.ok else 1


def cmd_bound(args: argparse.Namespace) -> int:
    rows = []
    for z in args.z:
        pot = ScreenedCoulomb.from_charge(z, args.constants)
        for state in args.state:
            b = minimize_bound(pot, parse_state_label(state))
            rows.append({
                "z": z,
                "state": state,
                "u_star": b.u_star,
                "t_star": b.t_star,
                "E_upper": _energy_display(b.E_upper, args),
                "at_domain_edge": b.at_domain_edge,
            })
    json_obj = {"units": args.units, "rows": rows}
    _emit(args, rows, json_obj, [f"# units: {_UNIT_SUFFIX[args.units]}"])
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    if args.potential == "screened":
        if not args.z:
            raise UsageError("--potential screened requires --z")
        pots = [ScreenedCoulomb.from_charge(z, args.constants) for z in args.z]
    elif args.z:
        raise UsageError("--z is only meaningful with --potential screened, not shifted")
    elif args.coupling is None:
        raise UsageError("--potential shifted requires --coupling")
    else:
        pots = [ShiftedCoulomb(shift=args.shift, coupling=args.coupling)]
    tasks = [(pot, state) for pot in pots for state in args.state]
    if args.dump_wavefunction and len(tasks) != 1:
        raise UsageError("--dump-wavefunction needs exactly one (z, state) pair")

    rows, reports = [], []
    for pot, state in tasks:
        sol = solve_eigenvalue(
            pot, parse_state_label(state), grid_scale=args.grid_scale, tol_e=args.tol_e
        )
        rows.append({
            "potential": _pot_label(pot),
            "state": state,
            "E": _energy_display(sol.E, args),
            "nodes_psi1": sol.nodes1,
            "nodes_psi2": sol.nodes2,
            "match_radius": sol.match_radius,
            "mismatch": sol.mismatch,
            "grid_points": sol.grid.count,
        })
        reports.append(dict(rows[-1], potential=pot.describe()))
        if args.dump_wavefunction:
            _dump_wavefunction(args.dump_wavefunction, sol)
    json_obj = {"units": args.units, "rows": reports}
    _emit(args, rows, json_obj, [f"# units: {_UNIT_SUFFIX[args.units]}"])
    return 0


def _dump_wavefunction(path: str, sol) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "psi1", "psi2"])
    for r, p1, p2 in zip(sol.grid.points, sol.psi1, sol.psi2):
        writer.writerow([f"{r:.17g}", f"{p1:.17g}", f"{p2:.17g}"])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def cmd_compare(args: argparse.Namespace) -> int:
    rows, reports = [], []
    for z in args.z:
        pot = ScreenedCoulomb.from_charge(z, args.constants)
        for state in args.state:
            ch = parse_state_label(state)
            t = args.contact_radius
            if t is None:
                t = minimize_bound(pot, ch).t_star
            report = assert_ordering(
                pot, tangent_at(pot, t), ch,
                grid_scale=args.grid_scale, tol_e=args.tol_e,
            )
            rows.append({
                "z": z,
                "state": state,
                "t": t,
                "E_a": _energy_display(report.E_a, args),
                "E_b": _energy_display(report.E_b, args),
                "identity_rel": report.identity.relative,
                "derivative_residual": report.derivative_residual,
                "min_gap": report.min_gap,
                "nodes_a": "/".join(map(str, report.nodes_a)),
                "nodes_b": "/".join(map(str, report.nodes_b)),
                "verdict": report.verdict,
            })
            reports.append(report.to_dict())
    json_obj = {"reports": reports}  # reports carry raw mc2 energies
    footer = [f"# units: {_UNIT_SUFFIX[args.units]} (gaps and residuals unitless/mc2)"]
    _emit(args, rows, json_obj, footer)
    return 0 if all(r["verdict"] == "PASS" for r in rows) else 1


# --------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=DEFAULT_CONSTANTS.alpha,
                        help="fine-structure constant override")
    common.add_argument("--mc2-kev", type=float,
                        default=DEFAULT_CONSTANTS.electron_rest_energy_kev,
                        help="electron rest energy in keV")
    common.add_argument("--units", choices=("kev-binding", "mc2"), default=None,
                        help="energy units (default: kev-binding for table1/bound, "
                             "mc2 for solve/compare)")
    common.add_argument("--format", choices=("csv", "json", "pretty"),
                        default="pretty", dest="fmt", help="output format")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--tol-e", type=float, default=1e-10,
                        help="eigenvalue tolerance (mc2 units)")
    common.add_argument("--grid-scale", type=float, default=1.0,
                        help="grid density multiplier (>= 0.5; >1 refines)")

    parser = argparse.ArgumentParser(
        prog="diracbound",
        description="Dirac bound states: envelope upper bounds, shooting "
                    "eigenvalues and spectral-ordering checks for central "
                    "Coulomb-like potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", parents=[common],
                       help="reference binding-energy table with golden diff")
    p.set_defaults(run=cmd_table1, default_units="kev-binding")
    p.add_argument("--z", type=int, nargs="+", default=list(DEFAULT_Z_VALUES),
                   help="nuclear charges (default: the full reference set)")

    p = sub.add_parser("bound", parents=[common],
                       help="envelope upper bound for (Z, state)")
    p.set_defaults(run=cmd_bound, default_units="kev-binding")
    p.add_argument("--z", type=int, nargs="+", required=True)
    p.add_argument("--state", nargs="+", default=list(STATE_LABELS),
                   help="spectroscopic labels, e.g. 1s_1/2 2p_3/2")

    p = sub.add_parser("solve", parents=[common],
                       help="shooting-solver eigenvalue for one potential")
    p.set_defaults(run=cmd_solve, default_units="mc2")
    p.add_argument("--potential", choices=("screened", "shifted"), default="screened")
    p.add_argument("--z", type=int, nargs="+", default=[],
                   help="nuclear charges (screened potential only)")
    p.add_argument("--shift", type=float, default=0.0,
                   help="constant offset of the shifted-Coulomb potential (default 0)")
    p.add_argument("--coupling", type=float, default=None,
                   help="coupling of the shifted-Coulomb potential")
    p.add_argument("--state", nargs="+", default=["1s_1/2"])
    p.add_argument("--dump-wavefunction", default=None, metavar="PATH",
                   help="write r,psi1,psi2 CSV of the normalized solution")

    p = sub.add_parser("compare", parents=[common],
                       help="ordering harness: screened potential vs. tangent")
    p.set_defaults(run=cmd_compare, default_units="mc2")
    p.add_argument("--z", type=int, nargs="+", required=True)
    p.add_argument("--t", type=float, default=None, dest="contact_radius",
                   help="tangent contact radius (default: the optimal t*)")
    p.add_argument("--state", nargs="+", default=["1s_1/2"])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # default_units, not set_defaults(units=): --units is one action shared by all
    args.units = args.units or args.default_units
    try:
        args.constants = PhysicalConstants(
            alpha=args.alpha, electron_rest_energy_kev=args.mc2_kev
        )
        args.state = [spectroscopic_label(parse_state_label(s))
                      for s in getattr(args, "state", ())]
    except ValueError as exc:
        print(f"diracbound: usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"diracbound: usage error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"diracbound: hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"diracbound: solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"diracbound: invalid parameter: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
