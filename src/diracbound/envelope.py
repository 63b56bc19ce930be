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

    E_upper = min_u { D(u) - u*D'(u) + V(-1/D'(u)) }.

The t-form and the u-form agree exactly at the optimum (where the two
change-of-variable constraints are simultaneously satisfied); away from it
they differ, with bound_at_t(-1/D'(u)) <= F(u) pointwise because D is
concave.  Both are implemented and cross-checked at the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .channels import Channel
from .coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from .errors import ConvergenceError, HypothesisViolationError
from .potentials import ScreenedCoulomb, tangent_at

# stay clear of u = 0 and of the sqrt singularity at u = k
DOMAIN_EDGE = 1e-6
COARSE_POINTS = 128


@dataclass(frozen=True, eq=False)
class EnvelopeBound:
    """Optimized tangent bound for one (potential, channel) pair."""

    ch: Channel
    u_star: float
    t_star: float
    E_upper: float
    curve: tuple[np.ndarray, np.ndarray] | None  # coarse (u, F(u)) scan trace
    at_domain_edge: bool
    local_minima: int


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
    pot: ScreenedCoulomb, ch: Channel, keep_curve: bool = True
) -> EnvelopeBound:
    """Best tangent bound: coarse log-uniform scan in u, then Brent refinement.

    Every local minimum of the scan, the two domain edges included, is
    refined over its neighbouring scan interval(s) and the global one is
    returned; a minimum still pinned at a domain edge after refinement is
    flagged (the bound is still valid, just unlikely to be tight).
    """
    _require_nodeless_channel(ch)
    u_lo = DOMAIN_EDGE
    u_hi = min(1.0, float(ch.k)) - DOMAIN_EDGE
    us = np.geomspace(u_lo, u_hi, COARSE_POINTS)
    fs = np.array([bound_objective(pot, ch, u) for u in us])

    last = len(us) - 1
    scan_minima = list(np.nonzero((fs[1:-1] <= fs[:-2]) & (fs[1:-1] <= fs[2:]))[0] + 1)
    scan_minima += [i for i, j in ((0, 1), (last, last - 1)) if fs[i] < fs[j]]
    candidates = []  # (refined u, F(u), at the domain edge)
    for i in scan_minima:
        res = minimize_scalar(
            lambda u: bound_objective(pot, ch, u),
            bounds=(us[max(i - 1, 0)], us[min(i + 1, last)]),
            method="bounded",
            options={"xatol": 1e-11},
        )
        if i in (0, last) and fs[i] <= res.fun:
            candidates.append((float(us[i]), float(fs[i]), True))
        else:
            candidates.append((float(res.x), float(res.fun), False))
    if not candidates:
        # flat scan (cannot happen for these potentials, but fail loudly)
        raise ConvergenceError(f"bound objective is flat over ({u_lo}, {u_hi})")

    u_star, f_star, at_edge = min(candidates, key=lambda c: c[1])
    t_star = -1.0 / coulomb_eigenvalue_derivative(u_star, ch)
    if not at_edge:
        crosscheck = bound_at_t(pot, ch, t_star)
        if abs(crosscheck - f_star) > 1e-10:
            raise ConvergenceError(
                f"tangent parameterizations disagree at the optimum: "
                f"F(u*)={f_star!r} vs A+D(B)={crosscheck!r}"
            )
    # -v/r <= V, so D(v) is a rigorous floor: F(u*) below it is round-off
    f_star = max(f_star, coulomb_eigenvalue(pot.coupling, ch))
    return EnvelopeBound(
        ch=ch,
        u_star=u_star,
        t_star=t_star,
        E_upper=f_star,
        curve=(us, fs) if keep_curve else None,
        at_domain_edge=at_edge,
        local_minima=max(len(candidates), 1),
    )


def screened_state_bracket(pot: ScreenedCoulomb, ch: Channel) -> tuple[float, float]:
    """Rigorous (E_lo, E_hi) bracket for the nodeless screened eigenvalue.

    The pure Coulomb potential -v/r lies below V, and the optimal tangent
    lies above it, so the comparison theorem pins E between D(v) and
    E_upper.  Used to seed the shooting solver."""
    _require_nodeless_channel(ch)
    lo = coulomb_eigenvalue(pot.coupling, ch)
    hi = minimize_bound(pot, ch, keep_curve=False).E_upper
    return lo - 1e-9, hi + 1e-9
