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
of E_a - E_b is pinned by the sign of V_a - V_b.  This module solves a
pair on one shared grid and checks the derivative identity pointwise, the
integral identity by quadrature, and the eigenvalue ordering itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .channels import Channel
from .coulomb import coulomb_eigenvalue
from .envelope import minimize_bound
from .errors import HypothesisViolationError
from .potentials import ScreenedCoulomb, ShiftedCoulomb, tangent_at
from .radial import (
    RadialSolution,
    build_grid,
    grid_derivative,
    reference_rate,
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
    hypothesis_ok: bool  # all four components nodeless
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


def _shared_samples(sol_a: RadialSolution, sol_b: RadialSolution):
    """(r, a1, a2, b1, b2) of a pair solved in one channel on one shared grid."""
    if sol_a.ch != sol_b.ch:
        raise ValueError(f"channel mismatch: {sol_a.ch} vs {sol_b.ch}")
    r = sol_a.grid.points
    if not np.array_equal(r, sol_b.grid.points):
        raise ValueError("identity checks need both solutions on one shared grid")
    return r, sol_a.psi1, sol_a.psi2, sol_b.psi1, sol_b.psi2


def identity_residual(sol_a: RadialSolution, sol_b: RadialSolution) -> IdentityCheck:
    """Quadrature check of int S (V_a - V_b) dr = (E_a - E_b) int S dr
    for two solutions on one shared grid."""
    r, a1, a2, b1, b2 = _shared_samples(sol_a, sol_b)
    S = a1 * b1 + a2 * b2
    dv = sol_a.V - sol_b.V
    lhs = float(simpson(S * dv, x=r))
    rhs = (sol_a.E - sol_b.E) * float(simpson(S, x=r))
    residual = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=residual, relative=abs(residual) / scale)


def derivative_identity_check(sol_a: RadialSolution, sol_b: RadialSolution) -> float:
    """Max pointwise residual of the derivative identity, amplitude-scaled.

    Requires both solutions on one shared grid (the graded sections are
    uniform there, so fourth-order difference stencils apply cleanly)."""
    _, a1, a2, b1, b2 = _shared_samples(sol_a, sol_b)
    lhs = grid_derivative(b1 * a2 - a1 * b2, sol_a.grid)
    bracket = sol_a.V - sol_b.V - (sol_a.E - sol_b.E)
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
        return minimize_bound(pot, ch).bracket
    return None


def _check_ordering_mesh(pot_a, pot_b):
    """Verify V_a <= V_b with a strict gap somewhere; reject crossing pairs."""
    va, vb = pot_a.evaluate(_ORDERING_MESH), pot_b.evaluate(_ORDERING_MESH)
    diff = vb - va
    scale = np.abs(va) + np.abs(vb)
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


def assert_ordering(
    pot_a,
    pot_b,
    ch: Channel,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
) -> ComparisonReport:
    """Solve an ordered pair on one shared grid and report the evidence.

    Channels other than the nodeless bottom state (tau=-1, n=1) are outside
    the theorem and rejected.  A nodeless channel whose solves nevertheless
    show nodes gets the verdict INFO, since the theorem's hypothesis fails.
    """
    if ch.tau != -1 or ch.n != 1:
        raise HypothesisViolationError(
            f"channel {ch} has noded states; the ordering theorem covers only "
            "tau=-1, n=1 channels"
        )
    min_gap, max_gap = _check_ordering_mesh(pot_a, pot_b)
    hint_a, hint_b = predicted_bracket(pot_a, ch), predicted_bracket(pot_b, ch)
    # one grid for both states, sized by the slower decay
    kappa = min(reference_rate(pot_a, hint_a), reference_rate(pot_b, hint_b))
    grid = build_grid(kappa, grid_scale)
    sol_a = solve_eigenvalue(pot_a, ch, grid=grid, tol_e=tol_e, bracket_hint=hint_a)
    sol_b = solve_eigenvalue(pot_b, ch, grid=grid, tol_e=tol_e, bracket_hint=hint_b)
    identity = identity_residual(sol_a, sol_b)
    deriv = derivative_identity_check(sol_a, sol_b)
    nodes_a = (sol_a.nodes1, sol_a.nodes2)
    nodes_b = (sol_b.nodes1, sol_b.nodes2)
    hypothesis_ok = not any(nodes_a) and not any(nodes_b)
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
