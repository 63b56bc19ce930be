"""Table assembly mechanics: golden fixture shape, cell diffs, failure capture.

Full-table reproduction at publication tolerances lives in the acceptance
suite; here one charge is enough to exercise every moving part.
"""

from __future__ import annotations

import math

import pytest

from diracbound.channels import PhysicalConstants
from diracbound.errors import HypothesisViolationError
from diracbound.table1 import (
    DEFAULT_Z_VALUES,
    REFERENCE_BINDINGS_KEV,
    STATE_LABELS,
    TableCell,
    TableResult,
    compute_state_pair,
    compute_table,
)


@pytest.fixture(scope="module")
def z20_table() -> TableResult:
    return compute_table((20,))


class TestGoldenFixture:
    def test_shape(self):
        assert set(REFERENCE_BINDINGS_KEV) == set(DEFAULT_Z_VALUES)
        for row in REFERENCE_BINDINGS_KEV.values():
            assert len(row) == 4
            assert all(v < 0.0 for v in row)  # bound states bind

    def test_upper_bound_never_below_numeric(self):
        # within each (Z, state) pair the envelope column must sit above
        # the solver column, already at the fixture's own precision
        for up_s, num_s, up_p, num_p in REFERENCE_BINDINGS_KEV.values():
            assert up_s > num_s
            assert up_p > num_p

    def test_inner_shell_binds_deeper(self):
        for up_s, num_s, up_p, num_p in REFERENCE_BINDINGS_KEV.values():
            assert num_s < num_p  # 1s_1/2 below 2p_3/2

    def test_binding_deepens_with_charge(self):
        rows = [REFERENCE_BINDINGS_KEV[z] for z in DEFAULT_Z_VALUES]
        for a, b in zip(rows, rows[1:]):
            assert all(vb < va for va, vb in zip(a, b))


class TestComputeStatePair:
    def test_upper_only_cell(self):
        cells = compute_state_pair(20, "1s_1/2")
        assert [c.quantity for c in cells] == ["upper", "numeric"]
        cell = cells[0]
        assert not cell.failed
        assert cell.reference_kev == REFERENCE_BINDINGS_KEV[20][0]
        assert abs(cell.deviation_kev) < 5e-3
        assert cell.energy is not None and cell.binding_kev < 0.0

    def test_charge_outside_fixture_has_no_reference(self):
        cell, _ = compute_state_pair(25, "2p_3/2")
        assert cell.reference_kev is None
        assert cell.deviation_kev is None
        assert not cell.failed
        # still bracketed by the neighbouring fixture charges
        assert (
            REFERENCE_BINDINGS_KEV[30][2] < cell.binding_kev < REFERENCE_BINDINGS_KEV[20][2]
        )

    @pytest.mark.parametrize("z", [40, 90], ids=["Z in fixture", "Z outside fixture"])
    def test_state_outside_fixture_has_no_reference(self, z):
        # the fixture holds 1s_1/2 and 2p_3/2 only; another state is computed
        # as usual and carries no reference, whether or not its Z has a row
        cells = compute_state_pair(z, "3d_5/2")
        assert [c.quantity for c in cells] == ["upper", "numeric"]
        for cell in cells:
            assert not cell.failed
            assert cell.reference_kev is None and cell.deviation_kev is None
            assert cell.binding_kev < 0.0
        assert cells[0].energy > cells[1].energy  # the envelope bound lies above

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"grid_scale": math.inf}, "grid scale"),
            ({"grid_scale": math.nan}, "grid scale"),
        ],
        ids=["grid-scale-inf", "grid-scale-nan"],
    )
    def test_non_finite_solver_parameter_fails_the_numeric_cell(self, kwargs, name):
        upper, numeric = compute_state_pair(20, "1s_1/2", **kwargs)
        assert not upper.failed
        assert numeric.failed
        assert name in numeric.error
        assert numeric.energy is None

    def test_noded_state_is_refused_not_failed(self):
        # the envelope bound rests on the comparison theorem, so a channel
        # outside it raises from the guard instead of returning FAILED cells
        with pytest.raises(HypothesisViolationError, match="comparison theorem"):
            compute_state_pair(40, "2s_1/2")

    def test_bad_parameters_fail_cells_not_run(self):
        # alpha*Z >= 1 invalidates the potential; both cells must record the
        # error and carry no numbers instead of raising out of the table
        cells = compute_state_pair(999, "1s_1/2")
        assert len(cells) == 2
        for cell in cells:
            assert cell.failed
            assert "coupling" in cell.error
            assert cell.energy is None
            assert cell.binding_kev is None
            assert cell.deviation_kev is None


class TestComputeTable:
    def test_one_charge_all_cells(self, z20_table):
        assert z20_table.z_values == (20,)
        assert len(z20_table.cells) == 4
        assert z20_table.ok
        assert z20_table.failed_cells == 0
        assert z20_table.max_abs_deviation_kev < 5e-3
        quantities = [(c.state, c.quantity) for c in z20_table.cells]
        assert quantities == [
            ("1s_1/2", "upper"),
            ("1s_1/2", "numeric"),
            ("2p_3/2", "upper"),
            ("2p_3/2", "numeric"),
        ]

    def test_cell_accessor(self, z20_table):
        cell = z20_table.cell(20, "2p_3/2", "numeric")
        assert isinstance(cell, TableCell)
        assert cell.reference_kev == REFERENCE_BINDINGS_KEV[20][3]
        with pytest.raises(KeyError):
            z20_table.cell(20, "2p_3/2", "exact")

    def test_numeric_below_its_upper_bound(self, z20_table):
        for state in STATE_LABELS:
            up = z20_table.cell(20, state, "upper")
            num = z20_table.cell(20, state, "numeric")
            assert num.energy < up.energy

    def test_to_dict_round_trip(self, z20_table):
        d = z20_table.to_dict()
        assert d["z_values"] == [20]
        assert d["failed_cells"] == 0
        assert len(d["cells"]) == 4
        assert d["cells"][0]["state"] == "1s_1/2"
        assert d["max_abs_deviation_kev"] == z20_table.max_abs_deviation_kev

    def test_failed_cells_gate_ok(self):
        result = compute_table((999,))
        assert result.failed_cells == 4
        assert not result.ok
        assert result.max_abs_deviation_kev is None

    def test_custom_constants_shift_the_answer(self):
        # a 1% heavier rest energy scales keV bindings by the same 1%
        heavy = PhysicalConstants(electron_rest_energy_kev=510.999 * 1.01)
        cell, _ = compute_state_pair(20, "1s_1/2", heavy)
        base, _ = compute_state_pair(20, "1s_1/2")
        assert cell.energy == pytest.approx(base.energy, rel=1e-12)
        assert cell.binding_kev == pytest.approx(1.01 * base.binding_kev, rel=1e-12)
