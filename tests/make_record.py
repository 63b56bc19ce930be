"""Regression record of the solver's outputs at full precision.

    PYTHONPATH=src python tests/make_record.py          # rewrites tests/data/record.json
    PYTHONPATH=src python tests/make_record.py --diff   # prints what moved, writes nothing

The record holds, with every energy as ``float.hex``:

* ``table``: the 28 energies of ``compute_table()`` (envelope bound and
  solver eigenvalue for Z = 20..80 x {1s_1/2, 2p_3/2});
* ``ordering``: the 50 seeded screened/tangent pairs of the acceptance
  sweep through ``assert_ordering``: both energies, node counts, the
  relative identity residual, the derivative residual and the verdict;
* ``oracle``: the 12 unhinted pure-Coulomb solves of the acceptance oracle;
* ``cells``: Z = 1..136 x {1s_1/2, 2p_3/2, 3d_5/2, 4f_7/2} through
  ``compute_state_pair``, the envelope bound and the hinted solve per cell.

``tests/test_record.py`` recomputes every entry and compares it with the
committed file, so a change that moves a number shows as a diff of it;
``--diff`` prints, per section and numeric field, how many values moved and
the largest move with its cell, the form in which a change cites the record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from diracbound.channels import Channel
from diracbound.comparison import assert_ordering, random_screened_tangent_pair
from diracbound.potentials import PureCoulomb
from diracbound.radial import solve_eigenvalue
from diracbound.table1 import compute_state_pair, compute_table

RECORD = Path(__file__).parent / "data" / "record.json"

SEED = 20260825
# the acceptance oracle's 12 (tau, 2j, n, u): tau = +1 and n = 2 included
ORACLE = [
    (-1, 1, 1, 0.1), (-1, 1, 1, 0.3), (-1, 1, 1, 0.58), (-1, 3, 1, 0.3), (-1, 3, 1, 0.58),
    (-1, 1, 2, 0.3), (-1, 1, 2, 0.58), (1, 1, 1, 0.1), (1, 1, 1, 0.3), (1, 1, 1, 0.58),
    (1, 3, 1, 0.3), (-1, 3, 2, 0.3),
]
CELL_STATES = ("1s_1/2", "2p_3/2", "3d_5/2", "4f_7/2")
CELL_CHARGES = range(1, 137)


def _hex(x):
    return None if x is None else float(x).hex()


def table_entries() -> list[dict]:
    return [
        {"z": c.z, "state": c.state, "quantity": c.quantity, "E": _hex(c.energy)}
        for c in compute_table().cells
    ]


def ordering_entries() -> list[dict]:
    rng = np.random.default_rng(SEED)
    ch = Channel(tau=-1, two_j=1)
    out = []
    for _ in range(50):
        pot, tangent = random_screened_tangent_pair(rng)
        rep = assert_ordering(pot, tangent, ch)
        out.append({
            "z": pot.Z,
            "t": tangent.contact_radius,
            "E_a": _hex(rep.E_a),
            "E_b": _hex(rep.E_b),
            "nodes_a": list(rep.nodes_a),
            "nodes_b": list(rep.nodes_b),
            "identity_relative": rep.identity.relative,
            "derivative_residual": rep.derivative_residual,
            "verdict": rep.verdict,
        })
    return out


def oracle_entries() -> list[dict]:
    return [
        {"tau": tau, "two_j": two_j, "n": n, "u": u,
         "E": _hex(solve_eigenvalue(PureCoulomb(u), Channel(tau=tau, two_j=two_j, n=n)).E)}
        for tau, two_j, n, u in ORACLE
    ]


def cell_entries() -> list[dict]:
    out = []
    for z in CELL_CHARGES:
        for state in CELL_STATES:
            upper, numeric = compute_state_pair(z, state)
            out.append({"z": z, "state": state, "upper": _hex(upper.energy),
                        "E": _hex(numeric.energy)})
    return out


def build_record() -> dict:
    return {
        "table": table_entries(),
        "ordering": ordering_entries(),
        "oracle": oracle_entries(),
        "cells": cell_entries(),
    }


def _number(v):
    """An energy (float.hex) or a residual as a float; None for a label."""
    if isinstance(v, float):
        return v
    if isinstance(v, str) and v.lstrip("-").startswith("0x"):
        return float.fromhex(v)
    return None


def diff_lines(old: dict, new: dict) -> list[str]:
    """Per section and numeric field, how many values moved between two
    records and the largest move with its cell; labels that differ are listed
    one by one."""
    lines = []
    for section in new:
        if len(old[section]) != len(new[section]):
            lines.append(f"{section}: {len(old[section])} -> {len(new[section])} entries")
        moves = {}  # field -> [moved, total, largest, cell]
        for k, (a, b) in enumerate(zip(old[section], new[section])):
            cell = " ".join(f"{key}={v}" for key, v in b.items() if _number(v) is None)
            for key in b:
                x, y = _number(a[key]), _number(b[key])
                if x is None or y is None:
                    if a[key] != b[key]:
                        lines.append(f"{section}[{k}] {cell}: {key} {a[key]!r} -> {b[key]!r}")
                    continue
                m = moves.setdefault(key, [0, 0, 0.0, None])
                m[1] += 1
                if x != y:
                    m[0] += 1
                    if abs(x - y) > m[2]:
                        m[2], m[3] = abs(x - y), f"[{k}] {cell}"
        for key, (moved, total, largest, cell) in moves.items():
            line = f"{section} {key}: {moved} of {total} moved"
            lines.append(line + (f", largest {largest:.3g} at {section}{cell}" if moved else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare with the committed record instead of rewriting it")
    args = parser.parse_args(argv)
    record = build_record()
    if args.diff:
        print("\n".join(diff_lines(json.loads(RECORD.read_text()), record)))
        return 0
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
