"""The committed regression record (tests/data/record.json) still holds.

Every energy must lie within E_TOL of its recorded value, node counts and
verdicts must match exactly, the ordering residuals must lie within their
bounds, and each cell's energy between the Coulomb level of its -v/r and
its envelope bound.  Regenerate the record with ``tests/make_record.py``
only for a change that is meant to move numbers, and cite the record's
diff, as ``tests/make_record.py --diff`` prints it before the rewrite.
"""

from __future__ import annotations

import json

import pytest

import make_record
from diracbound.channels import parse_state_label
from diracbound.coulomb import coulomb_eigenvalue
from diracbound.potentials import ScreenedCoulomb

# a few ulps of an energy in [0.5, 2), where every recorded energy lies
E_TOL = 1e-15
# the residuals are quadratures of eigenfunction samples: samples that move by
# 1e-12 of the peak move the relative identity residual by about as much
IDENTITY_TOL = 1e-11
DERIVATIVE_TOL = 1e-9


@pytest.fixture(scope="module")
def record():
    return json.loads(make_record.RECORD.read_text())


def _energy(x):
    return None if x is None else float.fromhex(x)


def _assert_energies(got: list[dict], want: list[dict], keys: tuple[str, ...]):
    assert len(got) == len(want)
    worst = 0.0
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if k not in keys} == {
            k: v for k, v in w.items() if k not in keys
        }
        for k in keys:
            a, b = _energy(g[k]), _energy(w[k])
            assert (a is None) == (b is None), (g, w)
            if a is not None:
                worst = max(worst, abs(a - b))
    assert worst <= E_TOL, f"largest move {worst:.3g} mc^2 > {E_TOL:g}"


def test_table(record):
    _assert_energies(make_record.table_entries(), record["table"], ("E",))


def test_oracle(record):
    _assert_energies(make_record.oracle_entries(), record["oracle"], ("E",))


@pytest.fixture(scope="module")
def cells():
    return make_record.cell_entries()


def test_hinted_cells(record, cells):
    assert len(cells) == 136 * 4
    _assert_energies(cells, record["cells"], ("upper", "E"))


def test_cells_in_sandwich(cells):
    # the screened potential lies above -v/r, so the Coulomb level D(v) is a
    # floor, and the envelope bound a ceiling; at Z = 1 the screening
    # vanishes, and E equals D(v) up to the record's tolerance
    for c in cells:
        floor = coulomb_eigenvalue(ScreenedCoulomb.from_charge(c["z"]).coupling,
                                   parse_state_label(c["state"]))
        assert floor - E_TOL <= _energy(c["E"]) <= _energy(c["upper"]), c


def test_ordering_pairs(record):
    got = make_record.ordering_entries()
    residuals = ("identity_relative", "derivative_residual")
    _assert_energies(
        [{k: v for k, v in g.items() if k not in residuals} for g in got],
        [{k: v for k, v in w.items() if k not in residuals} for w in record["ordering"]],
        ("E_a", "E_b"),
    )
    for g, w in zip(got, record["ordering"]):
        assert g["identity_relative"] == pytest.approx(
            w["identity_relative"], rel=0, abs=IDENTITY_TOL
        )
        assert g["derivative_residual"] == pytest.approx(
            w["derivative_residual"], rel=0, abs=DERIVATIVE_TOL
        )


def test_diff_lines_count_moves_and_name_the_largest():
    old = {"cells": [{"z": 1, "state": "1s_1/2", "E": (0.5).hex()},
                     {"z": 2, "state": "1s_1/2", "E": (0.75).hex()}],
           "ordering": [{"z": 3, "verdict": "PASS", "identity_relative": 1e-10}]}
    new = {"cells": [{"z": 1, "state": "1s_1/2", "E": (0.5).hex()},
                     {"z": 2, "state": "1s_1/2", "E": (0.75 + 2**-52).hex()}],
           "ordering": [{"z": 3, "verdict": "FAIL", "identity_relative": 1e-10}]}
    assert make_record.diff_lines(old, new) == [
        f"cells E: 1 of 2 moved, largest {2**-52:.3g} at cells[1] z=2 state=1s_1/2",
        "ordering[0] z=3 verdict=FAIL: verdict 'PASS' -> 'FAIL'",
        "ordering identity_relative: 0 of 1 moved",
    ]
