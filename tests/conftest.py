"""Shared fixtures: channels and a few expensive solved states reused across files."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from diracbound.channels import Channel
from diracbound.envelope import minimize_bound
from diracbound.potentials import ScreenedCoulomb, tangent_at
from diracbound.radial import solve_eigenvalue

settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def ch_s() -> Channel:
    """1s_1/2: tau=-1, j=1/2, n=1."""
    return Channel(tau=-1, two_j=1)


@pytest.fixture(scope="session")
def ch_p() -> Channel:
    """2p_3/2: tau=-1, j=3/2, n=1."""
    return Channel(tau=-1, two_j=3)


@pytest.fixture(scope="session")
def screened_z20() -> ScreenedCoulomb:
    return ScreenedCoulomb.from_charge(20)


@pytest.fixture(scope="session")
def z20_ground(screened_z20, ch_s):
    """Solved screened Z=20 ground state (reused: each solve costs seconds)."""
    return solve_eigenvalue(screened_z20, ch_s)


@pytest.fixture(scope="session")
def z20_optimal_pair(screened_z20, ch_s):
    """(screened, tangent, bound) at the optimal contact radius for Z=20."""
    bound = minimize_bound(screened_z20, ch_s, keep_curve=True)
    return screened_z20, tangent_at(screened_z20, bound.t_star), bound
