"""Tests of the benchmark itself: checks, tracer hygiene, seeding, output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import _WRAPPED, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def lib():
    # a fresh import per test, so the tracer and the test see the same modules
    return run.load_library()


def _first(lib, name, pick=lambda item: True):
    workload = WORKLOADS[name]
    item = next(i for i in workload.inputs(lib, run.DEFAULT_SEED) if pick(i))
    return workload, item, workload.call(lib, item)


# replaces one energy of a result by energy + 1e-4 (mc^2 units)
CORRUPTIONS = {
    "table": lambda cells: (
        cells[0],
        dataclasses.replace(cells[1], energy=cells[1].energy + 1e-4),
    ),
    "ordering": lambda report: dataclasses.replace(report, E_b=report.E_b + 1e-4),
    "spectrum": lambda sol: dataclasses.replace(sol, E=sol.E + 1e-4),
    "bounds": lambda bound: dataclasses.replace(bound, E_upper=bound.E_upper + 1e-4),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_energy_off_by_1e4_fails_the_item(lib, name):
    # for bounds, an item outside the golden fixture: the reference scan of
    # the envelope objective must catch the looser bound on its own
    workload, item, result = _first(
        lib, name, lambda i: name != "bounds" or i.label == "Z=100 4f_7/2"
    )
    assert workload.check(item, result)
    assert not workload.check(item, CORRUPTIONS[name](result))


def _wrapped_objects():
    """(owner, attr) of every tracer wrapper reachable from the package."""
    found = []
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "diracbound"]:
        for attr, value in vars(mod).items():
            if getattr(value, _WRAPPED, False):
                found.append((mod.__name__, attr))
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _WRAPPED, False):
                        found.append((value.__name__, cattr))
    return found


def test_traced_run_restores_every_attribute(lib):
    tracer = Tracer()
    tracer.install(lib)
    try:
        patched = tracer.patched_attributes()
        owners = {(getattr(o, "__name__", o), a) for o, a, _ in patched}
        # the solver is wrapped everywhere callers look it up
        for mod in ("radial", "table1", "comparison"):
            assert (f"diracbound.{mod}", "solve_eigenvalue") in owners
        assert ("ScreenedCoulomb", "evaluate") in owners
        assert _wrapped_objects()
        tracer.item_id = 0
        workload, item, result = _first(lib, "table")
        assert workload.check(item, result)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert _wrapped_objects() == []

    metrics = tracer.layer_metrics(tracer.arrays(), np.ones(1))
    assert metrics["radial.solve_eigenvalue.calls"] == 1.0
    assert metrics["radial.grids_per_solve"] == 1.0
    assert metrics["envelope.minimize_bound.calls"] == 1.0
    inner = metrics["table1.compute_state_pair.busy_s"]
    assert 0 < metrics["radial.solve_eigenvalue.busy_s"] < inner
    assert 0 < metrics["table1.compute_state_pair.self_s"] < inner
    # every per-layer metric except those run.py adds comes from the tracer
    added = {"trace.overhead_frac", "radial.integrate_radial.probe_ms",
             "radial.matching_mismatch.probe_ms"}
    assert {m["name"] for m in CONFIG["per_layer"]} - added <= set(metrics)


def test_fresh_library_takes_the_tracer_along(lib):
    tracer = Tracer()
    tracer.install(lib)
    try:
        new, items = run.fresh(WORKLOADS["bounds"], 1, tracer)
        assert new.envelope is not lib.envelope
        assert type(items[0].args[0]) is new.potentials.ScreenedCoulomb
        assert getattr(new.envelope.minimize_bound, _WRAPPED, False)
        assert not getattr(lib.envelope.minimize_bound, _WRAPPED, False)
    finally:
        tracer.uninstall()
    assert _wrapped_objects() == []


def test_span_of_a_raising_call_is_kept(lib):
    tracer = Tracer()
    tracer.install(lib)
    try:
        with pytest.raises(ValueError):
            lib.radial.build_grid(5.0)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    assert list(spans["names"][spans["name"]]) == ["radial.build_grid"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_seeded_inputs(lib, name):
    inputs = WORKLOADS[name].inputs
    same = inputs(lib, 1) == inputs(lib, 2)
    assert same == (name in ("table", "bounds"))
    assert inputs(lib, 7) == inputs(lib, 7)


def test_known_defects_are_left_out_and_reported(lib):
    workload = WORKLOADS["bounds"]
    timed = {i.label for i in workload.inputs(lib, 1)}
    defects = [i.label for i in workload.known_defects(lib, 1)]
    assert len(timed) + len(defects) == 136 * 4
    assert not timed & set(defects)
    lines = run.known_defects(workload, 1)
    assert [line.rsplit(": ", 1)[1] for line in lines] == defects
    assert run.known_defects(WORKLOADS["table"], 1) == []


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_declared_metrics(trace, capsys):
    assert run.main(["--workload", "bounds", "--seconds", "0.05", "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
