"""Closed-form Dirac-Coulomb spectrum D(u) and its coupling derivative."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracbound.channels import Channel, principal_quantum_number
from diracbound.coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative

CH_1S = Channel(tau=-1, two_j=1)

ALL_CHANNELS = [
    Channel(tau=tau, two_j=two_j, n=n)
    for tau in (-1, 1)
    for two_j in (1, 3, 5)
    for n in (1, 2)
]


def _reference_eigenvalue(u: float, ch: Channel) -> float:
    """Literal transcription of the closed form for cross-checks."""
    n_big = ch.n - (1 - ch.tau) // 2 + math.sqrt(ch.k**2 - u**2)
    return (1.0 + u**2 / n_big**2) ** -0.5


class TestEigenvalue:
    def test_pythagorean_point(self):
        assert coulomb_eigenvalue(0.6, CH_1S) == pytest.approx(0.8, abs=1e-15)

    def test_ground_state_reduces_to_sqrt(self):
        for u in (0.1, 0.3, 0.58, 0.9):
            assert coulomb_eigenvalue(u, CH_1S) == pytest.approx(
                math.sqrt(1.0 - u * u), rel=1e-15
            )

    def test_z80_coupling_value(self):
        u = 80.0 / 137.036
        d = coulomb_eigenvalue(u, CH_1S)
        assert d == pytest.approx(math.sqrt(1.0 - u * u), rel=1e-15)
        # frozen digits of the unscreened Z=80 baseline
        assert d == pytest.approx(0.8119060, abs=5e-8)

    def test_small_coupling_limit(self):
        for ch in ALL_CHANNELS:
            # at u = 1e-8 the eigenvalue rounds to 1.0 exactly in float64
            assert coulomb_eigenvalue(1e-8, ch) == pytest.approx(1.0, abs=1e-15)
            # at u = 1e-6 it is still strictly below the continuum edge
            d = coulomb_eigenvalue(1e-6, ch)
            assert 1.0 - 1e-11 < d < 1.0

    def test_weak_coupling_bohr_limit(self):
        # N -> nu as u -> 0, so the binding 1 - D(u) approaches u^2 / (2 nu^2)
        for ch in ALL_CHANNELS:
            nu = principal_quantum_number(ch)
            u = 1e-3
            binding = 1.0 - coulomb_eigenvalue(u, ch)
            assert binding == pytest.approx(u * u / (2 * nu * nu), rel=1e-5)

    def test_matches_literal_formula(self):
        for ch in ALL_CHANNELS:
            for u in (0.05, 0.3, 0.6, 0.95):
                if u >= min(1.0, ch.k):
                    continue
                assert coulomb_eigenvalue(u, ch) == pytest.approx(
                    _reference_eigenvalue(u, ch), rel=1e-14
                )

    def test_strictly_decreasing_in_u(self):
        for k in range(1, 6):
            for tau in (-1, 1):
                for n in (1, 2, 3):
                    ch = Channel(tau=tau, two_j=2 * k - 1, n=n)
                    us = np.linspace(1e-4, min(1.0, k) - 1e-4, 1000)
                    ds = np.array([coulomb_eigenvalue(u, ch) for u in us])
                    assert np.all(np.diff(ds) < 0.0)
                    assert np.all((0.0 < ds) & (ds < 1.0))

    def test_degenerate_channels_share_eigenvalue(self):
        # same N = n - (1-tau)/2 + sqrt(k^2-u^2) and same k => same D
        a = Channel(tau=-1, two_j=3, n=2)
        b = Channel(tau=1, two_j=3, n=1)
        for u in (0.1, 0.5, 0.9):
            assert coulomb_eigenvalue(u, a) == pytest.approx(
                coulomb_eigenvalue(u, b), abs=1e-14
            )

    @pytest.mark.parametrize("u", [0.0, -0.1, 1.0, 1.3])
    def test_domain_rejected_k1(self, u):
        with pytest.raises(ValueError):
            coulomb_eigenvalue(u, CH_1S)

    def test_domain_edge_margin(self):
        # within the safety margin of u = min(1, k) the call must refuse
        with pytest.raises(ValueError):
            coulomb_eigenvalue(1.0 - 1e-14, CH_1S)
        # just inside the margin it must work
        assert 0.0 < coulomb_eigenvalue(1.0 - 1e-9, CH_1S) < 1.0

    def test_error_names_the_bound(self):
        with pytest.raises(ValueError, match=r"min\(1, k\)|\(0, "):
            coulomb_eigenvalue(2.0, Channel(tau=-1, two_j=3))


class TestDerivative:
    def test_pythagorean_point(self):
        assert coulomb_eigenvalue_derivative(0.6, CH_1S) == pytest.approx(
            -0.75, rel=1e-14
        )

    def test_central_difference_oracle(self):
        for ch in ALL_CHANNELS:
            u, eps = 0.3, 1e-6
            fd = (
                coulomb_eigenvalue(u + eps, ch) - coulomb_eigenvalue(u - eps, ch)
            ) / (2 * eps)
            assert coulomb_eigenvalue_derivative(u, ch) == pytest.approx(fd, rel=1e-8)

    def test_always_negative(self):
        for ch in ALL_CHANNELS:
            for u in np.linspace(0.05, 0.95, 10):
                if u >= min(1.0, ch.k):
                    continue
                assert coulomb_eigenvalue_derivative(u, ch) < 0.0

    def test_plus_tau_monotonicity_sweep(self):
        ch = Channel(tau=1, two_j=1, n=1)
        for u in np.arange(0.1, 0.95, 0.1):
            assert coulomb_eigenvalue_derivative(u, ch) < 0.0

    def test_contact_radius_map_decreasing(self):
        # -1/D'(u) must be a positive, finite, strictly decreasing radius
        for ch in (CH_1S, Channel(tau=-1, two_j=3)):
            us = np.linspace(1e-3, min(1.0, ch.k) - 1e-3, 200)
            ts = np.array(
                [-1.0 / coulomb_eigenvalue_derivative(u, ch) for u in us]
            )
            assert np.all(np.isfinite(ts)) and np.all(ts > 0.0)
            assert np.all(np.diff(ts) < 0.0)

    @given(
        st.floats(min_value=0.05, max_value=0.999),
        st.sampled_from(ALL_CHANNELS),
    )
    def test_derivative_property(self, u, ch):
        """Analytic derivative tracks a 4th-order central difference.

        The step balances roundoff against truncation: it shrinks near the
        domain cap (to stay inside) and near the critical coupling u = k
        where the higher derivatives blow up like (k^2 - u^2)^(-7/2).
        """
        lim = min(1.0, ch.k)
        if u >= lim - 1e-3:
            return
        eps = min(1e-3, 0.2 * min(u, lim - u), 0.005 * (ch.k**2 - u**2))
        d = coulomb_eigenvalue
        fd = (
            -d(u + 2 * eps, ch) + 8 * d(u + eps, ch)
            - 8 * d(u - eps, ch) + d(u - 2 * eps, ch)
        ) / (12 * eps)
        assert coulomb_eigenvalue_derivative(u, ch) == pytest.approx(
            fd, rel=1e-7, abs=1e-12
        )
