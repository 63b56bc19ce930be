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

from .channels import Channel
from .coulomb import coulomb_eigenvalue
from .envelope import minimize_bound
from .errors import HypothesisViolationError
from .potentials import ScreenedCoulomb, ShiftedCoulomb, tangent_at
from .radial import (
    DEFAULT_GRID_SCALE, RadialSolution, build_grid, grid_derivative, grid_integral,
    reference_rate, solve_eigenvalue,
)


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
            "nodes_a": list(self.nodes_a),
            "nodes_b": list(self.nodes_b),
            "hypothesis_ok": self.hypothesis_ok,
            "ordered": self.ordered,
            "verdict": self.verdict,
        }


def _shared_samples(sol_a: RadialSolution, sol_b: RadialSolution):
    """(a1, a2, b1, b2) of a pair solved in one channel on one shared grid."""
    if sol_a.ch != sol_b.ch:
        raise ValueError(f"channel mismatch: {sol_a.ch} vs {sol_b.ch}")
    if not np.array_equal(sol_a.grid.points, sol_b.grid.points):
        raise ValueError("identity checks need both solutions on one shared grid")
    return sol_a.psi1, sol_a.psi2, sol_b.psi1, sol_b.psi2


def identity_residual(sol_a: RadialSolution, sol_b: RadialSolution) -> IdentityCheck:
    """Quadrature check of int S (V_a - V_b) dr = (E_a - E_b) int S dr
    for two solutions on one shared grid."""
    a1, a2, b1, b2 = _shared_samples(sol_a, sol_b)
    S = a1 * b1 + a2 * b2
    dv = sol_a.V - sol_b.V
    lhs = grid_integral(S * dv, sol_a.grid)
    rhs = (sol_a.E - sol_b.E) * grid_integral(S, sol_a.grid)
    residual = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=residual, relative=abs(residual) / scale)


def derivative_identity_check(sol_a: RadialSolution, sol_b: RadialSolution) -> float:
    """Max pointwise residual of the derivative identity, amplitude-scaled.

    Requires both solutions on one shared grid (uniform in the grid
    coordinate, so one fourth-order difference stencil applies throughout)."""
    a1, a2, b1, b2 = _shared_samples(sol_a, sol_b)
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
    if isinstance(pot, ScreenedCoulomb) and ch.nodeless:
        return minimize_bound(pot, ch).bracket
    return None


def _sign(terms) -> float:
    """Sign of sum(terms); 0 within 1e-13 of their summed magnitudes (round-off)."""
    total = sum(terms)
    return 0.0 if abs(total) <= 1e-13 * sum(map(abs, terms)) else math.copysign(1.0, total)


def _check_ordering(pot_a, pot_b):
    """Refuse a pair unless V_a <= V_b on all of (0, inf), strictly somewhere.

    r(1 + lam_a r)(1 + lam_b r)(V_b - V_a) = c0 + c1 r + c2 r^2 (see rational_form); its
    sign is read at r -> 0 (c0 alone), at r -> inf (the highest coefficient that is not
    round-off) and at its vertex if that lies in (0, inf)."""
    (a0, a1, lam_a), (b0, b1, lam_b) = pot_a.rational_form(), pot_b.rational_form()
    terms = [(b0, -a0), (b1, b0 * lam_a, -a1, -a0 * lam_b), (b1 * lam_a, -a1 * lam_b)]
    signs = {_sign(terms[0]), next((s for s in map(_sign, (terms[2], terms[1])) if s), 0.0)}
    c1, c2 = sum(terms[1]), sum(terms[2])
    if _sign(terms[2]) and c1 * c2 < 0.0:
        r = -c1 / (2.0 * c2)
        signs.add(_sign([t * r**i for i, ts in enumerate(terms) for t in ts]))
    refusal = {
        (True, True): "potentials cross: V_b - V_a changes sign on (0, inf), so the pair "
                      "is outside the theorem's hypothesis",
        (True, False): "potentials are ordered the wrong way round (V_a > V_b); swap the pair",
        (False, False): "potentials coincide to round-off on (0, inf); the theorem needs a "
                        "strict gap on a set of positive measure",
    }.get((-1.0 in signs, 1.0 in signs))
    if refusal:
        raise HypothesisViolationError(refusal)


def assert_ordering(
    pot_a,
    pot_b,
    ch: Channel,
    *,
    grid_scale: float = DEFAULT_GRID_SCALE,
) -> ComparisonReport:
    """Solve an ordered pair on one shared grid and report the evidence.

    Channels other than the nodeless bottom state (tau=-1, n=1) are outside
    the theorem and rejected.  A nodeless channel whose solves nevertheless
    show nodes gets the verdict INFO, since the theorem's hypothesis fails.
    V_a <= V_b is checked exactly on (0, inf): both need a rational_form.
    """
    ch.require_nodeless()
    _check_ordering(pot_a, pot_b)
    hint_a, hint_b = predicted_bracket(pot_a, ch), predicted_bracket(pot_b, ch)
    # one grid for both states: the longest if either hint is too weak for the first
    kappa = min(reference_rate(pot_a, hint_a), reference_rate(pot_b, hint_b))
    grid = build_grid(kappa, grid_scale)
    sol_a = solve_eigenvalue(pot_a, ch, grid=grid, bracket_hint=hint_a)
    sol_b = solve_eigenvalue(pot_b, ch, grid=grid, bracket_hint=hint_b)
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
        nodes_a=nodes_a,
        nodes_b=nodes_b,
        hypothesis_ok=hypothesis_ok,
        ordered=ordered,
        verdict=verdict,
    )


def random_screened_tangent_pair(rng: np.random.Generator):
    """Random (screened, tangent) ordered pair for property sweeps.

    Z is uniform on the table's range [20, 80]; the contact radius is
    log-uniform over [0.3, 30], which straddles the optimal contact radii of
    the whole Z range."""
    z = int(rng.integers(20, 81))
    t = float(np.exp(rng.uniform(math.log(0.3), math.log(30.0))))
    pot = ScreenedCoulomb.from_charge(z)
    return pot, tangent_at(pot, t)
