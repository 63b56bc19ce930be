"""Central potential models: shifted Coulomb and screened Coulomb.

ShiftedCoulomb is shift - coupling/r; pure Coulomb -u/r (PureCoulomb(u)) and
every tangent of a screened potential are members of it.  Both models are
Coulombic at the origin, which is what the radial solver's series seed
assumes.  The screened model is

    V(r) = -(v/r) * [1 - r*lam*(1 - 1/Z)/(1 + lam*r)],

with coupling v = alpha*Z and screening scale lam = 0.98*alpha*Z**(1/3).
Writing V as a transformation g of the unit Coulomb potential h(r) = -1/r,

    g(h) = v*h + v*lam*(1 - 1/Z) * [1 + lam/(h - lam)],

g is monotone increasing and concave on h < 0, so every tangent line to g
is a shifted Coulomb potential lying above V.  Those tangents are the
comparison potentials the envelope bound is built from.

Everything here is an immutable evaluation record; instances are freely
shareable and carry no caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DEFAULT_CONSTANTS, PhysicalConstants

SCREENING_PREFACTOR = 0.98  # lam = 0.98 * alpha * Z**(1/3)


def _check_radius(r) -> None:
    if not (np.asarray(r) > 0.0).all():
        raise ValueError("radius must be positive")


@dataclass(frozen=True)
class ShiftedCoulomb:
    """V(r) = shift - coupling/r, the one exactly solvable family.

    Pure Coulomb is shift = 0; every tangent of a screened potential is a
    member, and then also records its contact radius and parent.  Here only
    a finite shift and 0 < coupling < inf are checked: the solvers check that
    the origin is subcritical (coupling < k), which depends on the channel.
    """

    shift: float
    coupling: float
    contact_radius: float | None = None
    parent: ScreenedCoulomb | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        if not 0.0 < self.coupling < math.inf:
            raise ValueError(f"Coulomb coupling must be positive and finite, got {self.coupling}")

    def evaluate(self, r):
        _check_radius(r)
        return self.shift - self.coupling / r

    def rational_form(self) -> tuple[float, float, float]:
        """(p0, p1, lam) with V(r) = (p0 + p1*r)/(r*(1 + lam*r))."""
        return -self.coupling, self.shift, 0.0

    # origin/tail data used by the radial solver's series seed
    @property
    def origin_strength(self) -> float:
        return self.coupling

    @property
    def origin_offset(self) -> float:
        return self.shift

    @property
    def value_at_infinity(self) -> float:
        return self.shift

    def describe(self) -> dict:
        d = {"type": "shifted-coulomb", "shift": self.shift, "coupling": self.coupling}
        if self.parent is not None:
            d.update(contact_radius=self.contact_radius, parent=self.parent.describe())
        return d


def PureCoulomb(u: float) -> ShiftedCoulomb:
    """V(r) = -u/r: the shifted Coulomb potential with shift 0."""
    return ShiftedCoulomb(shift=0.0, coupling=u)


@dataclass(frozen=True)
class ScreenedCoulomb:
    """Screened-Coulomb potential of a large atom with nuclear charge Z.

    coupling = alpha*Z must stay below 1 for the bound machinery (the
    closed-form Coulomb spectrum it leans on is only valid there).
    """

    Z: int
    coupling: float
    screening: float

    def __post_init__(self) -> None:
        if not hasattr(self.Z, "__index__"):
            raise ValueError(f"nuclear charge must be an integer, got {self.Z!r}")
        if self.Z < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.Z}")
        if not 0.0 < self.coupling < 1.0:
            raise ValueError(f"coupling alpha*Z must lie in (0, 1), got {self.coupling}")
        if not 0.0 < self.screening < math.inf:
            raise ValueError(f"screening must be positive and finite, got {self.screening}")

    @classmethod
    def from_charge(cls, Z: int, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "ScreenedCoulomb":
        return cls(Z=Z, coupling=constants.coupling(Z),
                   screening=SCREENING_PREFACTOR * constants.alpha * Z ** (1.0 / 3.0))

    def evaluate(self, r):
        _check_radius(r)
        v, lam = self.coupling, self.screening
        return -(v / r) * (1.0 - r * lam * (1.0 - 1.0 / self.Z) / (1.0 + lam * r))

    def rational_form(self) -> tuple[float, float, float]:
        """(p0, p1, lam) with V(r) = (p0 + p1*r)/(r*(1 + lam*r))."""
        return -self.coupling, -self.coupling * self.screening / self.Z, self.screening

    @property
    def origin_strength(self) -> float:
        return self.coupling

    @property
    def origin_offset(self) -> float:
        # limit of V(r) + v/r at the origin
        return self.coupling * self.screening * (1.0 - 1.0 / self.Z)

    @property
    def value_at_infinity(self) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"type": "screened-coulomb", "Z": self.Z,
                "coupling": self.coupling, "screening": self.screening}


def g_transform(pot: ScreenedCoulomb, h):
    """g(h) with h in the range of -1/r, i.e. h < 0; g(h(r)) equals V(r).

    g(h) = v*h + v*lam*(1 - 1/Z)*[1 + lam/(h - lam)], evaluated through the
    identity 1 + lam/(h - lam) = h/(h - lam), which does not cancel as h -> 0.
    """
    if not (np.asarray(h) < 0.0).all():
        raise ValueError("g is only used on h = -1/r < 0")
    v, lam = pot.coupling, pot.screening
    return v * h + v * lam * (1.0 - 1.0 / pot.Z) * h / (h - lam)


def g_transform_derivative(pot: ScreenedCoulomb, h):
    """Analytic g'(h) = v - v*lam^2*(1 - 1/Z)/(h - lam)^2; positive for h < 0.

    Evaluated as v*(h^2 - 2*h*lam + lam^2/Z)/(h - lam)^2: every numerator term
    is positive for h < 0, so the small h -> 0 limit v/Z suffers no
    cancellation even at large Z.
    """
    if not (np.asarray(h) < 0.0).all():
        raise ValueError("g' is only used on h = -1/r < 0")
    v, lam = pot.coupling, pot.screening
    return v * (h * h - 2.0 * h * lam + lam * lam / pot.Z) / (h - lam) ** 2


def tangent_at(pot: ScreenedCoulomb, t: float) -> ShiftedCoulomb:
    """Tangent shifted-Coulomb potential touching pot at radius t > 0.

    Tangency in the transformed picture means shift = g(h) - h*g'(h) and
    coupling = g'(h) at h = -1/t; concavity of g guarantees the tangent
    lies above pot everywhere.  The shift g(h) - h*g'(h) collapses to v*lam*(1 - 1/Z)*h^2/(h - lam)^2,
    whose terms are all positive; the direct subtraction would lose ~1e-14
    absolute for near-origin tangents where both pieces are O(v/t).
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"contact radius t must be positive and finite, got {t}")
    h = -1.0 / t
    slope = g_transform_derivative(pot, h)
    v, lam = pot.coupling, pot.screening
    shift = v * lam * (1.0 - 1.0 / pot.Z) * h * h / (h - lam) ** 2
    return ShiftedCoulomb(shift=shift, coupling=slope, contact_radius=t, parent=pot)


def ordering_gap(pot: ScreenedCoulomb, t, r):
    """Closed-form tangent-minus-screened gap; nonnegative for all r, t > 0.

        V_tangent(r) - V(r) = v*(1 - 1/Z)*lam^2*(r - t)^2
                              / [r*(1 + lam*r)*(1 + lam*t)^2]
    """
    _check_radius(t)
    _check_radius(r)
    v, lam = pot.coupling, pot.screening
    return (v * (1.0 - 1.0 / pot.Z) * lam * lam * (r - t) ** 2
            / (r * (1.0 + lam * r) * (1.0 + lam * t) ** 2))
