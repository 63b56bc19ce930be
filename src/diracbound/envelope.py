"""Upper bounds for screened-Coulomb Dirac eigenvalues via tangent potentials.

The screened potential is a concave transformation g of the pure Coulomb
shape h(r) = -1/r, so every tangent line of g is a shifted Coulomb
potential lying above it.  Shifted Coulomb spectra are known exactly, and
the spectral comparison theorem (valid for the nodeless tau = -1, n = 1
state of each channel) turns each tangent eigenvalue into an upper bound:

    bound_at_t(t) = A(t) + D(B(t)) >= E,   t > 0.

Minimizing over the contact radius t, or equivalently over the Coulomb
coupling u after the change of variable u = g'(h(t)), t = -1/D'(u), gives
the best tangent bound

    E_upper = min_u F(u),   F(u) = D(u) - u*D'(u) + g(D'(u)).

Since F'(u) = D''(u)*G(u) with G(u) = g'(D'(u)) - u and D'' < 0, the optimum
is where G falls through zero: the tangent's own coupling equals u.  There
the t-form and the u-form agree; elsewhere bound_at_t(-1/D'(u)) <= F(u)
because D is concave.  Both are cross-checked at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channels import Channel
from .coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from .errors import ConvergenceError, HypothesisViolationError
from .potentials import ScreenedCoulomb, g_transform_derivative, tangent_at

# stay clear of u = 0 and of the sqrt singularity at u = k
DOMAIN_EDGE = 1e-6
# F(u*) in floats can land a few ulps below the exact tangent eigenvalue;
# this many ulps on top make the bound's rounding go the safe way
SAFETY_ULPS = 32


@dataclass(frozen=True, eq=False)
class EnvelopeBound:
    """Optimized tangent bound for one (potential, channel) pair.

    The pure Coulomb potential -v/r lies below V and the optimal tangent above
    it, so the comparison theorem pins the eigenvalue between E_lower = D(v)
    and E_upper."""

    ch: Channel
    u_star: float
    t_star: float
    E_lower: float
    E_upper: float
    curve: tuple[np.ndarray, np.ndarray] | None  # (u, F(u)) on a 128-point log mesh
    at_domain_edge: bool

    @property
    def bracket(self) -> tuple[float, float]:
        """(E_lower, E_upper) widened by 1e-9: the shooting solver's hint."""
        return self.E_lower - 1e-9, self.E_upper + 1e-9


def _require_nodeless_channel(ch: Channel) -> None:
    if ch.tau != -1 or ch.n != 1:
        raise HypothesisViolationError(
            f"channel {ch} (tau={ch.tau}, n={ch.n}) is not the nodeless bottom "
            "state of its angular-momentum subspace; the tangent construction "
            "only bounds tau=-1, n=1 states"
        )


def bound_at_t(pot: ScreenedCoulomb, ch: Channel, t: float) -> float:
    """Tangent-potential upper bound A(t) + D(B(t)) at contact radius t."""
    _require_nodeless_channel(ch)
    tangent = tangent_at(pot, t)
    return tangent.shift + coulomb_eigenvalue(tangent.coupling, ch)


def bound_objective(pot: ScreenedCoulomb, ch: Channel, u: float) -> float:
    """Coupling-parameterized bound F(u) = D(u) - u*D'(u) + V(-1/D'(u))."""
    _require_nodeless_channel(ch)
    d = coulomb_eigenvalue(u, ch)
    dp = coulomb_eigenvalue_derivative(u, ch)
    return d - u * dp + pot.evaluate(-1.0 / dp)


def minimize_bound(
    pot: ScreenedCoulomb, ch: Channel, keep_curve: bool = False
) -> EnvelopeBound:
    """Best tangent bound: the root of G(u) = g'(D'(u)) - u in u's domain.

    If G <= 0 already at the lower edge, or G >= 0 still at the upper edge,
    F is monotone and its minimum is that edge, which is flagged.  Every F(u)
    is a tangent bound, so the result is rigorous either way.  E_upper is
    F(u*) floored at D(v) and raised by SAFETY_ULPS ulps; keep_curve adds F
    on a 128-point log mesh of u.
    """
    _require_nodeless_channel(ch)
    u_lo = DOMAIN_EDGE
    u_hi = min(1.0, float(ch.k)) - DOMAIN_EDGE

    def stationarity(u: float) -> float:
        return g_transform_derivative(pot, coulomb_eigenvalue_derivative(u, ch)) - u

    if stationarity(u_lo) <= 0.0:
        u_star, at_edge = u_lo, True
    elif stationarity(u_hi) >= 0.0:
        u_star, at_edge = u_hi, True
    else:
        u_star, at_edge = brentq(stationarity, u_lo, u_hi, xtol=1e-15), False
    f_star = bound_objective(pot, ch, u_star)
    t_star = -1.0 / coulomb_eigenvalue_derivative(u_star, ch)
    if not at_edge:
        crosscheck = bound_at_t(pot, ch, t_star)
        if abs(crosscheck - f_star) > 1e-10:
            raise ConvergenceError(
                f"tangent parameterizations disagree at the optimum: "
                f"F(u*)={f_star!r} vs A+D(B)={crosscheck!r}"
            )
    # -v/r <= V, so D(v) is a rigorous floor: F(u*) below it is round-off
    e_lower = coulomb_eigenvalue(pot.coupling, ch)
    f_star = max(f_star, e_lower)
    curve = None
    if keep_curve:
        us = np.geomspace(u_lo, u_hi, 128)
        curve = (us, np.array([bound_objective(pot, ch, u) for u in us]))
    return EnvelopeBound(
        ch=ch,
        u_star=u_star,
        t_star=t_star,
        E_lower=e_lower,
        E_upper=f_star + SAFETY_ULPS * math.ulp(f_star),
        curve=curve,
        at_domain_edge=at_edge,
    )

