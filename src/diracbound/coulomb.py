"""Closed-form point-Coulomb Dirac spectrum and its coupling derivative.

For V(r) = -u/r the discrete eigenvalues in rest-energy units are

    E(u) = N / sqrt(N**2 + u**2),   N = n - (1 - tau)/2 + sqrt(k**2 - u**2),

valid for 0 < u < k (below the channel's critical coupling).  The
N/sqrt(N^2+u^2) form is used instead of the textbook 1/sqrt(1 + u^2/N^2)
because it stays stable as u -> k in the tau = -1, n = 1 channel where
N -> 0.

The coupling derivative, needed to invert the tangent map of the envelope
construction, is

    dE/du = -u * (N + u**2/s) * (N**2 + u**2)**(-3/2),   s = sqrt(k**2 - u**2),

which is strictly negative: eigenvalues sink as the coupling grows.
"""

from __future__ import annotations

import math

from .channels import Channel

# keep sqrt arguments safely positive near the critical coupling u = k
DOMAIN_MARGIN = 1e-12


def _validate(u: float, channel: Channel) -> float:
    k = float(channel.k)
    if not 0.0 < u < k - DOMAIN_MARGIN:
        raise ValueError(
            f"coupling u = {u} outside (0, {k - DOMAIN_MARGIN}) for |k| = {channel.k}"
        )
    return k


def coulomb_eigenvalue(u: float, channel: Channel) -> float:
    """Discrete eigenvalue E(u) in (0, 1), in rest-energy units."""
    k = _validate(u, channel)
    s = math.sqrt((k - u) * (k + u))
    N = channel.n - (1 - channel.tau) // 2 + s
    return N / math.hypot(N, u)


def coulomb_eigenvalue_derivative(u: float, channel: Channel) -> float:
    """Analytic dE/du; strictly negative on the domain."""
    k = _validate(u, channel)
    s = math.sqrt((k - u) * (k + u))
    N = channel.n - (1 - channel.tau) // 2 + s
    return -u * (N + u * u / s) * (N * N + u * u) ** -1.5
