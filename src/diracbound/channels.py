"""Quantum numbers and physical constants for central-field Dirac states.

A bound-state channel is fixed by the sign quantum number tau (+1 or -1),
the total angular momentum j (half-odd-integer), and a radial index n that
counts the discrete states inside the channel from the bottom up.  All
energies inside the library are in units of the particle rest energy
(hbar = c = m = 1); conversion to keV happens only at the output boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import HypothesisViolationError

SPECTROSCOPIC_LETTERS = "spdfgh"

_STATE_RE = re.compile(r"^(\d+)([a-z])_?(\d+)/2$")


@dataclass(frozen=True)
class Channel:
    """One angular-momentum channel of the radial Dirac problem.

    j is stored as the integer 2j so that all quantum-number arithmetic
    stays exact.  k = j + 1/2 enters the equations as the strength of the
    centrifugal-like coupling tau*k/r.
    """

    tau: int
    two_j: int
    n: int = 1

    def __post_init__(self) -> None:
        if bad := [f for f in ("tau", "two_j", "n") if not hasattr(getattr(self, f), "__index__")]:
            raise ValueError(f"{bad[0]} must be an integer, got {getattr(self, bad[0])!r}")
        if self.tau not in (-1, 1):
            raise ValueError(f"tau must be -1 or +1, got {self.tau}")
        if self.two_j < 1 or self.two_j % 2 == 0:
            raise ValueError(f"two_j must be a positive odd integer, got {self.two_j}")
        if self.n < 1:
            raise ValueError(f"radial index n must be >= 1, got {self.n}")

    @property
    def j(self) -> float:
        return 0.5 * self.two_j

    @property
    def k(self) -> int:
        return (self.two_j + 1) // 2

    @property
    def orbital_l(self) -> int:
        """Orbital angular momentum of the upper spinor components, l = j + tau/2."""
        return (self.two_j + self.tau) // 2

    @property
    def nodeless(self) -> bool:
        """The bottom state of a tau = -1 channel (n = 1), whose two components
        have no nodes: the only states the envelope bound and the ordering
        theorem cover."""
        return self.tau == -1 and self.n == 1

    def require_nodeless(self) -> None:
        """The one guard of every result that rests on the comparison theorem."""
        if not self.nodeless:
            raise HypothesisViolationError(
                f"channel {self} (tau={self.tau}, n={self.n}) has noded states; the "
                "comparison theorem covers only the nodeless tau=-1, n=1 state"
            )

    def __str__(self) -> str:
        return spectroscopic_label(self)


def principal_quantum_number(ch: Channel) -> int:
    """Coulomb principal quantum number nu = n + k - (1 - tau)/2."""
    return ch.n + ch.k - (1 - ch.tau) // 2


def parity(ch: Channel) -> int:
    """Parity (-1)**(j + tau/2); the exponent (2j + tau)/2 is an exact integer."""
    return -1 if (ch.two_j + ch.tau) // 2 % 2 else 1


def spectroscopic_label(ch: Channel) -> str:
    """Label "nu l_j" with l drawn from s, p, d, f, g, h (e.g. "1s_1/2")."""
    ell = ch.orbital_l
    if ell >= len(SPECTROSCOPIC_LETTERS):
        raise ValueError(
            f"orbital angular momentum l={ell} beyond the supported letters "
            f"'{SPECTROSCOPIC_LETTERS}' (j={ch.j}, tau={ch.tau})"
        )
    return f"{principal_quantum_number(ch)}{SPECTROSCOPIC_LETTERS[ell]}_{ch.two_j}/2"


def parse_state_label(text: str) -> Channel:
    """Invert :func:`spectroscopic_label`; accepts "1s_1/2" and "1s1/2" forms."""
    m = _STATE_RE.match(text.strip().lower())
    if not m:
        raise ValueError(f"cannot parse state label {text!r} (expected e.g. '1s1/2', '2p_3/2')")
    nu, letter, two_j = int(m.group(1)), m.group(2), int(m.group(3))
    if letter not in SPECTROSCOPIC_LETTERS:
        raise ValueError(f"unknown orbital letter {letter!r} in {text!r}")
    ell = SPECTROSCOPIC_LETTERS.index(letter)
    # l = j + tau/2 fixes tau; n then follows from nu = n + k - (1-tau)/2
    if 2 * ell == two_j - 1:
        tau = -1
    elif 2 * ell == two_j + 1:
        tau = +1
    else:
        raise ValueError(f"orbital letter {letter!r} incompatible with j={two_j}/2 in {text!r}")
    k = (two_j + 1) // 2
    n = nu - k + (1 - tau) // 2
    if n < 1:
        raise ValueError(f"state label {text!r} implies radial index n={n} < 1")
    return Channel(tau=tau, two_j=two_j, n=n)


@dataclass(frozen=True)
class PhysicalConstants:
    """Fine-structure constant and the rest energy used for keV output.

    Defaults are the rounded late-1990s values; both can be overridden from
    the CLI when reproducing tables computed with other conventions.
    """

    alpha: float = 1.0 / 137.036
    electron_rest_energy_kev: float = 510.999

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.electron_rest_energy_kev < math.inf:
            raise ValueError("electron rest energy must be positive and finite")

    def coupling(self, Z: int) -> float:
        """Coulomb coupling alpha*Z of a point charge Z."""
        return self.alpha * Z

    def binding_kev(self, energy_mc2: float) -> float:
        """Binding energy E - mc^2 in keV for an eigenvalue in rest-energy units."""
        return (energy_mc2 - 1.0) * self.electron_rest_energy_kev


DEFAULT_CONSTANTS = PhysicalConstants()
