"""End-to-end command-line tests: formats, units, exit codes, determinism.

Each test drives ``main(argv)`` in-process and inspects stdout/stderr, so
the full parse -> compute -> render -> exit-code chain is covered without
spawning subprocesses (one subprocess test checks the installed entry
points for real).
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from diracbound.cli import main
from diracbound.table1 import REFERENCE_BINDINGS_KEV

MC2_KEV = 510.999
# the refusal of the comparison theorem's one guard, shared by bound and compare
NODED_2S = (
    "channel 2s_1/2 (tau=-1, n=2) has noded states; the comparison theorem covers "
    "only the nodeless tau=-1, n=1 state"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no CSV rows in output: {text!r}"
    return rows


# --------------------------------------------------------------------------
# solve


class TestSolve:
    def test_coulomb_exact_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--potential", "shifted", "--coupling", "0.6", "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["state"] == "1s_1/2"
        assert float(row["E"]) == pytest.approx(0.8, abs=1e-6)
        assert row["nodes_psi1"] == "0" and row["nodes_psi2"] == "0"

    def test_shifted_coulomb_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--potential",
            "shifted",
            "--shift",
            "0.001",
            "--coupling",
            "0.5",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["units"] == "mc2"
        (row,) = doc["rows"]
        assert row["potential"]["type"] == "shifted-coulomb"
        assert row["E"] == pytest.approx(0.001 + math.sqrt(3.0) / 2.0, abs=1e-9)
        assert row["mismatch"] == pytest.approx(0.0, abs=1e-8)

    def test_excited_state_nodes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--potential",
            "shifted",
            "--coupling",
            "0.6",
            "--state",
            "2s_1/2",
            "--format",
            "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert (row["nodes_psi1"], row["nodes_psi2"]) == (1, 1)

    def test_kev_units_requested(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--potential",
            "shifted",
            "--coupling",
            "0.6",
            "--units",
            "kev-binding",
            "--format",
            "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["E"] == pytest.approx((0.8 - 1.0) * MC2_KEV, abs=1e-3)

    def test_wavefunction_dump(self, capsys, tmp_path):
        dump = tmp_path / "wf.csv"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--potential",
            "shifted",
            "--coupling",
            "0.6",
            "--dump-wavefunction",
            str(dump),
            "--format",
            "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        samples = parse_csv(dump.read_text(encoding="utf-8"))
        assert list(samples[0].keys()) == ["r", "psi1", "psi2"]
        assert len(samples) == row["grid_points"]
        rs = [float(s["r"]) for s in samples]
        p1 = [float(s["psi1"]) for s in samples]
        p2 = [float(s["psi2"]) for s in samples]
        assert rs == sorted(rs)
        # trapezoid check that the dump carries the normalized state
        norm = sum(
            0.5 * (rs[i + 1] - rs[i]) * (p1[i] ** 2 + p2[i] ** 2 + p1[i + 1] ** 2 + p2[i + 1] ** 2)
            for i in range(len(rs) - 1)
        )
        assert norm == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("solve",), "requires --z"),
            (("solve", "--potential", "shifted"), "requires --coupling"),
            (("solve", "--potential", "shifted", "--shift", "0.1"), "--coupling"),
            (("solve", "--potential", "shifted", "--coupling", "0.6", "--z", "20"), "--z"),
            (
                (
                    "solve",
                    "--potential",
                    "shifted",
                    "--coupling",
                    "0.6",
                    "--state",
                    "1s_1/2",
                    "2s_1/2",
                    "--dump-wavefunction",
                    "x.csv",
                ),
                "exactly one",
            ),
            (("solve", "--z", "40", "--coupling", "0.5"), "--coupling"),
            (("solve", "--z", "40", "--coupling", "0.5", "--shift", "0.3"), "--shift"),
        ],
    )
    def test_usage_errors(self, capsys, argv, fragment):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "usage error" in err
        assert fragment in err

    def test_invalid_coupling_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--potential", "shifted", "--coupling", "-0.5"
        )
        assert code == 1
        assert "invalid parameter" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("solve", "--z", "20", "--grid-scale", "inf"), "grid scale"),
            (("solve", "--z", "20", "--grid-scale", "nan"), "grid scale"),
            (("solve", "--potential", "shifted", "--coupling", "0.5", "--shift", "inf"), "shift"),
            (("solve", "--potential", "shifted", "--coupling", "nan"), "coupling"),
            (("compare", "--z", "40", "--t", "nan"), "contact radius t"),
            (("compare", "--z", "40", "--t", "0.5", "--grid-scale", "inf"), "grid scale"),
        ],
        ids=[
            "grid-scale-inf",
            "grid-scale-nan",
            "shift-inf",
            "coupling-nan",
            "compare-t-nan",
            "compare-grid-scale-inf",
        ],
    )
    def test_non_finite_input_is_invalid_parameter(self, capsys, argv, name):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "invalid parameter" in err
        assert name in err
        assert "Traceback" not in err

    def test_too_weakly_bound_names_the_longest_grid(self, capsys):
        # closed form: E = 0.99999987499996, kappa = 5.0e-4: 17.5 decay lengths
        # on the longest grid's tail, short of 30
        code, _, err = run_cli(
            capsys, "solve", "--potential", "shifted", "--coupling", "0.001",
            "--state", "2s_1/2",
        )
        assert code == 1
        assert "solver failure" in err
        assert "too weakly bound" in err
        assert "longest grid (r_max=3.5e+04)" in err
        assert "below 30/r_max = 0.000857" in err
        # the level quoted is that of the 1e-3 grid, close to the closed form
        energy = float(err.split("lies at E=")[1].split(",")[0])
        assert abs(energy - 0.99999987499996) < 1e-12


# --------------------------------------------------------------------------
# bound


class TestBound:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--z", "70", "--state", "1s_1/2", "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["E_upper"]) == pytest.approx(
            REFERENCE_BINDINGS_KEV[70][0], abs=5e-4
        )
        assert row["at_domain_edge"] == "False"
        assert float(row["t_star"]) > 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "bound", "--z", "20", "--format", fmt)
        assert code == 0
        (row, _) = parse_csv(out) if fmt == "csv" else json.loads(out)["rows"]
        assert list(row) == ["z", "state", "u_star", "t_star", "E_upper", "at_domain_edge"]

    def test_default_states_both_channels(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--z", "20", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert [r["state"] for r in rows] == ["1s_1/2", "2p_3/2"]

    def test_multiple_charges(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--z", "20", "40", "--state", "1s_1/2", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["z"] for r in rows] == ["20", "40"]
        # deeper binding for the heavier nucleus
        assert float(rows[1]["E_upper"]) < float(rows[0]["E_upper"])

    def test_invalid_channel_is_hypothesis_violation(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--z", "20", "--state", "2p_1/2")
        assert code == 2
        assert "hypothesis violation" in err
        code, _, err = run_cli(capsys, "bound", "--z", "20", "--state", "2s_1/2")
        assert code == 2
        assert err == f"diracbound: hypothesis violation: {NODED_2S}\n"

    def test_unparseable_state_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--z", "20", "--state", "wat")
        assert code == 2
        assert "usage error" in err

    def test_solver_flags_are_usage_errors(self, capsys):
        # bound runs no solve, so it refuses the solver flags rather than ignore
        # them; no subcommand has an eigenvalue tolerance to set
        for argv in (
            ["bound", "--z", "20", "--grid-scale", "inf", "--tol-e", "nan"],
            ["table1", "--z", "20", "--tol-e", "1e-10"],
            ["solve", "--z", "20", "--tol-e", "1e-10"],
            ["compare", "--z", "40", "--tol-e", "1e-10"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err and "--tol-e" in err


# --------------------------------------------------------------------------
# table1


class TestTable1:
    def test_single_charge_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--z", "20", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        for r in rows:
            assert abs(float(r["deviation"])) < 5e-3
        ref = dict(zip(["upper", "numeric"], REFERENCE_BINDINGS_KEV[20][:2]))
        for r in rows[:2]:
            assert float(r["reference"]) == pytest.approx(ref[r["quantity"]], abs=1e-4)
            assert float(r["computed"]) == pytest.approx(ref[r["quantity"]], abs=5e-3)

    def test_mc2_units(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--z", "20", "--units", "mc2", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        upper = rows[0]
        expected = 1.0 + REFERENCE_BINDINGS_KEV[20][0] / MC2_KEV
        assert float(upper["computed"]) == pytest.approx(expected, abs=1e-5)
        assert float(upper["reference"]) == pytest.approx(expected, abs=1e-5)

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--z", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed_cells"] == 0
        assert doc["max_abs_deviation"] < 5e-3
        assert len(doc["cells"]) == 4
        assert doc["cells"][0]["error"] is None

    def test_failed_cells_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--z", "999", "--format", "csv")
        assert code == 1
        rows = parse_csv(out)
        assert rows and all(r["status"] == "FAILED" for r in rows)
        assert all(r["computed"] == "" for r in rows)

    def test_non_finite_grid_scale_fails_numeric_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--z", "20", "--grid-scale", "inf", "--format", "json"
        )
        assert code == 1
        cells = json.loads(out)["cells"]
        assert [c["status"] for c in cells] == ["ok", "FAILED"] * 2
        assert all("grid scale" in c["error"] for c in cells if c["status"] == "FAILED")

    def test_pretty_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--z", "999")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("z")
        assert set(lines[1]) <= {"-", " "}
        assert any(line.startswith("# failed cells: 4") for line in lines)


# --------------------------------------------------------------------------
# compare


class TestCompare:
    def test_near_coulomb_tangent_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--z", "40", "--t", "0.01", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert report["verdict"] == "PASS"
        assert report["hypothesis_ok"] and report["ordered"]
        assert report["E_a"] < report["E_b"]
        assert report["identity_relative_residual"] < 1e-6
        assert report["derivative_residual"] < 1e-4

    def test_defaults_to_optimal_tangent(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--z", "20", "--format", "csv")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["verdict"] == "PASS"
        # optimal contact radius for Z=20 sits well inside (0.3, 30)
        assert 1.0 < float(row["t"]) < 30.0

    def test_noded_channel_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--z", "20", "--state", "2s_1/2")
        assert code == 2
        assert err == f"diracbound: hypothesis violation: {NODED_2S}\n"


# --------------------------------------------------------------------------
# shared plumbing


class TestPlumbing:
    def test_out_redirects_everything(self, capsys, tmp_path):
        target = tmp_path / "solve.csv"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--potential",
            "shifted",
            "--coupling",
            "0.6",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        code2, stdout_text, _ = run_cli(
            capsys, "solve", "--potential", "shifted", "--coupling", "0.6", "--format", "csv"
        )
        assert code2 == 0
        assert target.read_text(encoding="utf-8") == stdout_text

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--z", "40", "--out"),
            ("solve", "--z", "40", "--dump-wavefunction"),
        ],
        ids=["bound-out", "solve-dump-wavefunction"],
    )
    def test_unwritable_path_is_invalid_parameter(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, *argv, str(target))
        assert code == 1
        assert err.startswith("diracbound: invalid parameter:")
        assert str(target) in err
        assert err.count("\n") == 1

    def test_runs_are_deterministic(self, capsys):
        argv = ("bound", "--z", "30", "--format", "csv")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_constant_overrides_flow_through(self, capsys):
        # the CLI must hand the overridden constants to the library verbatim
        from diracbound.channels import Channel, PhysicalConstants
        from diracbound.envelope import minimize_bound
        from diracbound.potentials import ScreenedCoulomb

        alpha = 2.0 / 137.036
        code, out, _ = run_cli(
            capsys,
            "bound",
            "--z",
            "10",
            "--state",
            "1s_1/2",
            "--alpha",
            str(alpha),
            "--format",
            "csv",
        )
        assert code == 0
        (row,) = parse_csv(out)
        constants = PhysicalConstants(alpha=alpha)
        pot = ScreenedCoulomb.from_charge(10, constants)
        bound = minimize_bound(pot, Channel(tau=-1, two_j=1))
        expected = constants.binding_kev(bound.E_upper)
        assert float(row["E_upper"]) == pytest.approx(expected, rel=2e-5)

    def test_bad_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--z", "20", "--alpha", "1.5")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rest_energy_is_usage_error(self, capsys, value):
        # a non-finite rest energy would turn every keV figure into nan or inf
        code, out, err = run_cli(capsys, "bound", "--z", "20", "--mc2-kev", value)
        assert code == 2
        assert "electron rest energy" in err
        assert out == ""

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diracbound", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("table1", "bound", "solve", "compare"):
            assert sub in proc.stdout
