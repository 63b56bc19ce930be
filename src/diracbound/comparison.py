"""Verification harness for the spectral ordering theorem.

For two potentials with V_a <= V_b (strictly somewhere) and a channel
whose states are nodeless, the corresponding discrete Dirac eigenvalues
satisfy E_a < E_b.  The proof rests on a Wronskian-type identity: if
(psi1, psi2) solves the radial system with (V_a, E_a) and (phi1, phi2)
solves it with (V_b, E_b), the centrifugal terms cancel in

    (phi1 psi2)' - (psi1 phi2)'
        = [V_a - V_b - (E_a - E_b)] * (phi1 psi1 + phi2 psi2),

and integrating with the vanishing boundary values gives

    int S (V_a - V_b) dr = (E_a - E_b) int S dr,
    S = phi1 psi1 + phi2 psi2.

When all four components are nodeless, S has a single sign, so the sign
of E_a - E_b is pinned by the sign of V_a - V_b.  This module checks the
derivative identity pointwise, the integral identity by quadrature, and
the eigenvalue ordering itself on concrete solved pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import PchipInterpolator

from .channels import Channel
from .coulomb import coulomb_eigenvalue
from .envelope import screened_state_bracket
from .errors import HypothesisViolationError
from .potentials import ScreenedCoulomb, ShiftedCoulomb, tangent_at
from .radial import (
    RadialSolution,
    _decay_rate,
    build_grid,
    grid_derivative,
    solve_eigenvalue,
)

# ordering pre-check mesh (log-spaced; wide enough for every state we solve)
_ORDERING_MESH = np.geomspace(1e-6, 1e5, 2200)


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the integral identity and their difference."""

    lhs: float  # int S (V_a - V_b) dr
    rhs: float  # (E_a - E_b) int S dr
    residual: float  # lhs - rhs
    relative: float  # |residual| scaled by the larger side


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of one ordered-pair comparison."""

    ch: Channel
    potential_a: dict
    potential_b: dict
    E_a: float
    E_b: float
    identity: IdentityCheck
    derivative_residual: float
    min_gap: float  # min over the pre-check mesh of V_b - V_a
    max_gap: float
    nodes_a: tuple[int, int]
    nodes_b: tuple[int, int]
    hypothesis_ok: bool  # ordered potentials and all four components nodeless
    ordered: bool  # E_a < E_b
    verdict: str  # PASS / FAIL when the hypothesis holds, else INFO

    def to_dict(self) -> dict:
        return {
            "channel": str(self.ch),
            "potential_a": self.potential_a,
            "potential_b": self.potential_b,
            "E_a": self.E_a,
            "E_b": self.E_b,
            "identity_lhs": self.identity.lhs,
            "identity_rhs": self.identity.rhs,
            "identity_residual": self.identity.residual,
            "identity_relative_residual": self.identity.relative,
            "derivative_residual": self.derivative_residual,
            "min_potential_gap": self.min_gap,
            "max_potential_gap": self.max_gap,
            "nodes_a": list(self.nodes_a),
            "nodes_b": list(self.nodes_b),
            "hypothesis_ok": self.hypothesis_ok,
            "ordered": self.ordered,
            "verdict": self.verdict,
        }


def _same_grid(sol_a: RadialSolution, sol_b: RadialSolution) -> bool:
    ra, rb = sol_a.grid.points, sol_b.grid.points
    return len(ra) == len(rb) and bool(np.array_equal(ra, rb))


def _on_common_grid(sol_a: RadialSolution, sol_b: RadialSolution):
    """Samples of both solutions at shared radii.

    Pairs solved on one shared grid are used as-is; otherwise both are
    re-sampled on the union of the grids with monotone cubic interpolation
    (which cannot manufacture sign changes between samples)."""
    if sol_a.ch != sol_b.ch:
        raise ValueError(f"channel mismatch: {sol_a.ch} vs {sol_b.ch}")
    if _same_grid(sol_a, sol_b):
        return sol_a.grid.points, sol_a.psi1, sol_a.psi2, sol_b.psi1, sol_b.psi2
    r = np.union1d(sol_a.grid.points, sol_b.grid.points)
    lo = max(sol_a.grid.points[0], sol_b.grid.points[0])
    hi = min(sol_a.grid.points[-1], sol_b.grid.points[-1])
    r = r[(r >= lo) & (r <= hi)]

    def _resample(sol):
        p1 = PchipInterpolator(sol.grid.points, sol.psi1)(r)
        p2 = PchipInterpolator(sol.grid.points, sol.psi2)(r)
        return p1, p2

    a1, a2 = _resample(sol_a)
    b1, b2 = _resample(sol_b)
    return r, a1, a2, b1, b2


def identity_residual(
    sol_a: RadialSolution, sol_b: RadialSolution, pot_a, pot_b
) -> IdentityCheck:
    """Quadrature check of int S (V_a - V_b) dr = (E_a - E_b) int S dr."""
    r, a1, a2, b1, b2 = _on_common_grid(sol_a, sol_b)
    S = a1 * b1 + a2 * b2
    dv = pot_a.evaluate(r) - pot_b.evaluate(r)
    lhs = float(simpson(S * dv, x=r))
    rhs = (sol_a.E - sol_b.E) * float(simpson(S, x=r))
    residual = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=residual, relative=abs(residual) / scale)


def derivative_identity_check(
    sol_a: RadialSolution, sol_b: RadialSolution, pot_a, pot_b
) -> float:
    """Max pointwise residual of the derivative identity, amplitude-scaled.

    Requires both solutions on one shared grid (the graded sections are
    uniform there, so fourth-order difference stencils apply cleanly)."""
    if sol_a.ch != sol_b.ch:
        raise ValueError(f"channel mismatch: {sol_a.ch} vs {sol_b.ch}")
    if not _same_grid(sol_a, sol_b):
        raise ValueError("derivative check needs both solutions on one shared grid")
    grid = sol_a.grid
    r = grid.points
    a1, a2 = sol_a.psi1, sol_a.psi2
    b1, b2 = sol_b.psi1, sol_b.psi2
    lhs = grid_derivative(b1 * a2 - a1 * b2, grid)
    bracket = pot_a.evaluate(r) - pot_b.evaluate(r) - (sol_a.E - sol_b.E)
    rhs = bracket * (a1 * b1 + a2 * b2)
    amp = np.abs(b1 * a2) + np.abs(a1 * b2) + np.abs(a1 * b1) + np.abs(a2 * b2)
    denom = np.maximum(amp, 1e-3 * np.max(amp))
    return float(np.nanmax(np.abs(lhs - rhs) / denom))


def predicted_bracket(pot, ch: Channel):
    """Energy bracket for the target state, from closed forms where known."""
    if isinstance(pot, ShiftedCoulomb):
        e = pot.shift + coulomb_eigenvalue(pot.coupling, ch)
        return e - 1e-5, e + 1e-5
    if isinstance(pot, ScreenedCoulomb) and ch.tau == -1 and ch.n == 1:
        return screened_state_bracket(pot, ch)
    return None


def _check_ordering_mesh(pot_a, pot_b):
    """Verify V_a <= V_b with a strict gap somewhere; reject crossing pairs."""
    diff = pot_b.evaluate(_ORDERING_MESH) - pot_a.evaluate(_ORDERING_MESH)
    scale = np.abs(pot_a.evaluate(_ORDERING_MESH)) + np.abs(pot_b.evaluate(_ORDERING_MESH))
    tol = 1e-13 * np.maximum(scale, 1.0)
    below = diff < -tol
    above = diff > tol
    if below.any():
        if above.any():
            raise HypothesisViolationError(
                "potentials cross: V_b - V_a changes sign on the check mesh, "
                "so the pair is outside the theorem's hypothesis"
            )
        raise HypothesisViolationError(
            "potentials are ordered the wrong way round (V_a > V_b); swap the pair"
        )
    if not above.any():
        raise HypothesisViolationError(
            "potentials coincide to round-off on the check mesh; the theorem "
            "needs a strict gap on a set of positive measure"
        )
    return float(diff.min()), float(diff.max())


def _shared_grid(pot_a, pot_b, ch: Channel, grid_scale: float):
    """One grid adequate for both states, sized by the slowest decay."""
    rates = []
    for pot in (pot_a, pot_b):
        bracket = predicted_bracket(pot, ch)
        if bracket is None:
            rates.append(0.25)
            continue
        v_inf = pot.value_at_infinity
        rates.extend(_decay_rate(e - v_inf) for e in bracket)
    kappa = min(max(min(rates), 1e-3), 1.0)
    return build_grid(kappa, grid_scale)


def assert_ordering(
    pot_a,
    pot_b,
    ch: Channel,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
    allow_noded: bool = False,
) -> ComparisonReport:
    """Solve an ordered pair and report the full comparison evidence.

    Channels other than the nodeless bottom state (tau=-1, n=1) are outside
    the theorem and rejected unless allow_noded is set, in which case the
    run is labeled informational.
    """
    restricted = ch.tau == -1 and ch.n == 1
    if not restricted and not allow_noded:
        raise HypothesisViolationError(
            f"channel {ch} has noded states; the ordering theorem covers only "
            "tau=-1, n=1 channels (pass allow_noded=True for diagnostics)"
        )
    min_gap, max_gap = _check_ordering_mesh(pot_a, pot_b)
    grid = _shared_grid(pot_a, pot_b, ch, grid_scale)
    sol_a = solve_eigenvalue(
        pot_a, ch, grid=grid, tol_e=tol_e, bracket_hint=predicted_bracket(pot_a, ch)
    )
    sol_b = solve_eigenvalue(
        pot_b, ch, grid=grid, tol_e=tol_e, bracket_hint=predicted_bracket(pot_b, ch)
    )
    identity = identity_residual(sol_a, sol_b, pot_a, pot_b)
    deriv = derivative_identity_check(sol_a, sol_b, pot_a, pot_b)
    nodes_a = (sol_a.nodes1, sol_a.nodes2)
    nodes_b = (sol_b.nodes1, sol_b.nodes2)
    nodeless = not any(nodes_a) and not any(nodes_b)
    hypothesis_ok = nodeless and restricted
    ordered = sol_a.E < sol_b.E
    if hypothesis_ok:
        verdict = "PASS" if ordered else "FAIL"
    else:
        verdict = "INFO"
    return ComparisonReport(
        ch=ch,
        potential_a=pot_a.describe(),
        potential_b=pot_b.describe(),
        E_a=sol_a.E,
        E_b=sol_b.E,
        identity=identity,
        derivative_residual=deriv,
        min_gap=min_gap,
        max_gap=max_gap,
        nodes_a=nodes_a,
        nodes_b=nodes_b,
        hypothesis_ok=hypothesis_ok,
        ordered=ordered,
        verdict=verdict,
    )


def random_screened_tangent_pair(rng: np.random.Generator, z_low: int = 20, z_high: int = 80):
    """Random (screened, tangent) ordered pair for property sweeps.

    Z is uniform on [z_low, z_high]; the contact radius is log-uniform over
    [0.3, 30], which straddles the optimal contact radii of the whole
    Z range."""
    z = int(rng.integers(z_low, z_high + 1))
    t = float(np.exp(rng.uniform(math.log(0.3), math.log(30.0))))
    pot = ScreenedCoulomb.from_charge(z)
    return pot, tangent_at(pot, t)
