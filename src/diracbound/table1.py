"""Reference table of screened-Coulomb binding energies (the `table1` artifact).

For each nuclear charge Z and each of the two nodeless channels (1s_1/2 and
2p_3/2) this module produces two numbers in keV-binding units:

* the envelope upper bound from the optimal tangent shifted-Coulomb potential,
* the shooting-solver eigenvalue of the screened potential itself.

A golden fixture of reference values is embedded so every run doubles as a
regression diff; ``compute_table`` never aborts on a single bad cell but marks
it FAILED and keeps going, letting the caller decide how loudly to complain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .channels import DEFAULT_CONSTANTS, Channel, PhysicalConstants, parse_state_label
from .envelope import minimize_bound
from .errors import SolverError
from .potentials import ScreenedCoulomb
from .radial import solve_eigenvalue

STATE_LABELS = ("1s_1/2", "2p_3/2")
DEFAULT_Z_VALUES = (20, 30, 40, 50, 60, 70, 80)

# Golden regression values: binding energies E - mc^2 in keV for the screened
# potential at the default constants.  Per row: envelope upper bound then
# shooting eigenvalue for 1s_1/2, then the same pair for 2p_3/2.
REFERENCE_BINDINGS_KEV: dict[int, tuple[float, float, float, float]] = {
    20: (-4.2571, -4.3157, -0.48522, -0.53361),
    30: (-10.2099, -10.2960, -1.3811, -1.4659),
    40: (-18.9615, -19.0732, -2.8232, -2.9448),
    50: (-30.7186, -30.8543, -4.8486, -5.0070),
    60: (-45.7601, -45.9189, -7.4879, -7.6825),
    70: (-64.4734, -64.6545, -10.7692, -10.9997),
    80: (-87.4118, -87.6148, -14.7216, -14.9877),
}


@dataclass(frozen=True)
class TableCell:
    """One computed number plus its diff against the golden fixture."""

    z: int
    state: str
    quantity: str  # "upper" (envelope bound) or "numeric" (solver eigenvalue)
    energy: float | None  # raw eigenvalue in mc^2 units; None when FAILED
    binding_kev: float | None
    reference_kev: float | None  # None when Z is outside the fixture
    deviation_kev: float | None
    error: str | None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class TableResult:
    """All cells of a run plus the diff summary used as a CI gate."""

    z_values: tuple[int, ...]
    cells: tuple[TableCell, ...]
    max_abs_deviation_kev: float | None  # None when no cell had a reference
    failed_cells: int

    @property
    def ok(self) -> bool:
        return self.failed_cells == 0

    def cell(self, z: int, state: str, quantity: str) -> TableCell:
        for c in self.cells:
            if c.z == z and c.state == state and c.quantity == quantity:
                return c
        raise KeyError(f"no cell ({z}, {state}, {quantity})")

    def to_dict(self) -> dict:
        return {
            "z_values": list(self.z_values),
            "cells": [asdict(c) for c in self.cells],
            "max_abs_deviation_kev": self.max_abs_deviation_kev,
            "failed_cells": self.failed_cells,
        }


def _reference(z: int, state: str, quantity: str) -> float | None:
    row = REFERENCE_BINDINGS_KEV.get(z)
    if row is None:
        return None
    offset = 2 * STATE_LABELS.index(state)
    return row[offset] if quantity == "upper" else row[offset + 1]


def _cell(
    z: int,
    state: str,
    quantity: str,
    energy: float | None,
    constants: PhysicalConstants,
    error: str | None = None,
) -> TableCell:
    binding = None if energy is None else constants.binding_kev(energy)
    ref = _reference(z, state, quantity)
    dev = None if (binding is None or ref is None) else binding - ref
    return TableCell(z, state, quantity, energy, binding, ref, dev, error)


def compute_state_pair(
    z: int,
    state: str,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
    upper_only: bool = False,
) -> tuple[TableCell, ...]:
    """Envelope-bound and solver cells for one (Z, state) pair.

    Each cell is computed independently; a solver failure is recorded in the
    cell rather than raised.  The successful envelope bound's rigorous energy
    bracket seeds the shooting solver.
    """
    ch = parse_state_label(state)
    try:
        pot = ScreenedCoulomb.from_charge(z, constants)
    except ValueError as exc:
        # a bad parameterization fails every cell of this pair, not the run
        failed = _cell(z, state, "upper", None, constants, error=str(exc))
        if upper_only:
            return (failed,)
        return failed, _cell(z, state, "numeric", None, constants, error=str(exc))

    hint = None
    try:
        bound = minimize_bound(pot, ch)
    except (SolverError, ValueError) as exc:
        upper = _cell(z, state, "upper", None, constants, error=str(exc))
    else:
        upper = _cell(z, state, "upper", bound.E_upper, constants)
        hint = bound.bracket
    if upper_only:
        return (upper,)

    try:
        sol = solve_eigenvalue(
            pot, ch, grid_scale=grid_scale, tol_e=tol_e, bracket_hint=hint
        )
    except (SolverError, ValueError) as exc:
        numeric = _cell(z, state, "numeric", None, constants, error=str(exc))
    else:
        numeric = _cell(z, state, "numeric", sol.E, constants)
    return upper, numeric


def compute_table(
    z_values: tuple[int, ...] = DEFAULT_Z_VALUES,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
    upper_only: bool = False,
) -> TableResult:
    """Full table over ``z_values``: four cells per Z (two per channel)."""
    cells: list[TableCell] = []
    for z in z_values:
        for state in STATE_LABELS:
            cells.extend(
                compute_state_pair(
                    z,
                    state,
                    constants,
                    grid_scale=grid_scale,
                    tol_e=tol_e,
                    upper_only=upper_only,
                )
            )
    deviations = [abs(c.deviation_kev) for c in cells if c.deviation_kev is not None]
    return TableResult(
        z_values=tuple(z_values),
        cells=tuple(cells),
        max_abs_deviation_kev=max(deviations) if deviations else None,
        failed_cells=sum(1 for c in cells if c.failed),
    )
