"""Tangent-potential upper bounds: optimality, variational inequalities, guards.

The two parameterizations of the bound (by contact radius t, and by the
Coulomb coupling u of the tangent) must agree at the optimum, the u-form
must dominate the t-form pointwise, every tangent bound must sit above
the true eigenvalue, and the construction must refuse channels outside
its validity class (only nodeless tau = -1, n = 1 states are bounded).
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbound.channels import Channel, DEFAULT_CONSTANTS, PhysicalConstants
from diracbound.cli import main
from diracbound.coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from diracbound.envelope import (
    DOMAIN_EDGE,
    SAFETY_ULPS,
    bound_at_t,
    bound_objective,
    minimize_bound,
    screened_state_bracket,
)
from diracbound.errors import HypothesisViolationError
from diracbound.potentials import ScreenedCoulomb, g_transform_derivative


# frozen values from converged runs of this code (regression anchors);
# the physical cross-check against solved eigenvalues happens below and
# in the acceptance suite
FROZEN_BOUNDS = [
    # (Z, two_j, E_upper binding in keV, t_star)
    (20, 1, -4.2571162, 6.870753),
    (80, 3, -14.7216228, 6.770277),
]


class TestMinimizeBound:
    def test_result_fields(self, z20_optimal_pair, ch_s):
        _, tangent, bound = z20_optimal_pair
        assert bound.ch == ch_s
        assert bound.u_star > 0.0
        assert bound.t_star > 0.0
        assert -1.0 < bound.E_upper < 1.0
        assert bound.at_domain_edge is False
        us, fs = bound.curve
        assert len(us) == len(fs) == 128
        # the optimum can only improve on the 128-point curve
        assert bound.E_upper <= np.min(fs) + 1e-15
        assert tangent.contact_radius == pytest.approx(bound.t_star)

    def test_curve_can_be_dropped(self, screened_z20, ch_s):
        # dropped by default: only the optimum is computed
        assert minimize_bound(screened_z20, ch_s).curve is None

    @pytest.mark.parametrize("Z,two_j,kev,t_star", FROZEN_BOUNDS)
    def test_frozen_values(self, Z, two_j, kev, t_star):
        pot = ScreenedCoulomb.from_charge(Z)
        bound = minimize_bound(pot, Channel(tau=-1, two_j=two_j))
        assert DEFAULT_CONSTANTS.binding_kev(bound.E_upper) == pytest.approx(
            kev, abs=1e-6
        )
        assert bound.t_star == pytest.approx(t_star, abs=1e-5)

    def test_parameterizations_agree_at_optimum(self, z20_optimal_pair, ch_s):
        screened, _, bound = z20_optimal_pair
        # u-form and t-form evaluated at the shared optimum
        assert bound_at_t(screened, ch_s, bound.t_star) == pytest.approx(
            bound.E_upper, abs=1e-10
        )
        assert bound_objective(screened, ch_s, bound.u_star) == pytest.approx(
            bound.E_upper, abs=1e-12
        )
        # the optimum satisfies both change-of-variable constraints
        t_from_u = -1.0 / coulomb_eigenvalue_derivative(bound.u_star, ch_s)
        assert t_from_u == pytest.approx(bound.t_star, rel=1e-9)

    def test_dense_scan_confirms_global_minimum(self, z20_optimal_pair, ch_s):
        screened, _, bound = z20_optimal_pair
        ts = np.linspace(0.5 * bound.t_star, 2.0 * bound.t_star, 20001)
        vals = np.array([bound_at_t(screened, ch_s, t) for t in ts])
        assert float(np.min(vals)) >= bound.E_upper - 1e-12
        assert float(np.min(vals)) == pytest.approx(bound.E_upper, abs=1e-10)

    def test_point_charge_collapses_to_exact_coulomb(self, ch_s):
        # Z = 1 has nothing to screen: V is exactly Coulombic, the optimal
        # tangent is the potential itself, and the "bound" is the exact level
        pot = ScreenedCoulomb.from_charge(1)
        alpha = DEFAULT_CONSTANTS.alpha
        bound = minimize_bound(pot, ch_s)
        assert bound.u_star == pytest.approx(alpha, rel=1e-6)
        assert bound.E_upper == pytest.approx(coulomb_eigenvalue(alpha, ch_s), abs=1e-14)

    @pytest.mark.parametrize("two_j", [1, 3, 5, 7])
    def test_point_charge_bound_not_below_coulomb_floor(self, two_j):
        # -v/r <= V, so D(v) is a floor; round-off once put F(u*) 1.1e-16 under it
        ch = Channel(tau=-1, two_j=two_j)
        pot = ScreenedCoulomb.from_charge(1)
        assert coulomb_eigenvalue(pot.coupling, ch) <= minimize_bound(pot, ch).E_upper

    @pytest.mark.parametrize("Z", range(132, 137))
    def test_edge_scan_minimum_is_refined(self, Z):
        # the 128-point curve is lowest at its last point, u = 1 - 1e-6, but
        # the true minimum lies inside the last mesh interval
        ch = Channel(tau=-1, two_j=3)
        pot = ScreenedCoulomb.from_charge(Z)
        bound = minimize_bound(pot, ch, keep_curve=True)
        us, fs = bound.curve
        assert fs[-1] < fs[-2]
        assert bound.at_domain_edge is False
        assert us[-2] < bound.u_star < us[-1]
        assert bound.E_upper < fs[-1] - 5e-5
        dense = [bound_objective(pot, ch, u) for u in np.linspace(us[-2], us[-1], 2001)]
        assert bound.E_upper <= min(dense) + 1e-12

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_monotone_in_charge(self, two_j):
        ch = Channel(tau=-1, two_j=two_j)
        uppers = [
            minimize_bound(ScreenedCoulomb.from_charge(z), ch).E_upper
            for z in (20, 35, 50, 65, 80)
        ]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))


# nodeless states of the stationarity and rounding checks below
NODELESS_STATES = [Channel(tau=-1, two_j=two_j) for two_j in (1, 3, 5, 7, 9, 11)]


def _stationarity_on_mesh(pot, ch, us):
    """G(u) = g'(D'(u)) - u over an array, with D' written out in numpy."""
    k = float(ch.k)
    s = np.sqrt((k - us) * (k + us))
    big_n = ch.n - (1 - ch.tau) // 2 + s
    dp = -us * (big_n + us * us / s) * (big_n * big_n + us * us) ** -1.5
    return g_transform_derivative(pot, dp) - us


def _tangent_level_50_digits(pot, ch, t):
    """Exact eigenvalue A(t) + D(B(t)) of the tangent at t, in 50-digit mpmath."""
    with mpmath.workdps(50):
        v, lam, Z = mpmath.mpf(pot.coupling), mpmath.mpf(pot.screening), pot.Z
        h = -1 / mpmath.mpf(t)
        shift = v * lam * (1 - mpmath.mpf(1) / Z) * h * h / (h - lam) ** 2
        c = v * (h * h - 2 * h * lam + lam * lam / Z) / (h - lam) ** 2
        big_n = ch.n - (1 - ch.tau) // 2 + mpmath.sqrt(ch.k**2 - c * c)
        return shift + big_n / mpmath.sqrt(big_n * big_n + c * c)


def _upper_edge_direct(capsys):
    # v lies above u_hi = 1 - 1e-6, so G(u_hi) = +5.0e-7 and F still falls there
    pot = ScreenedCoulomb(
        Z=137, coupling=0.9999995, screening=ScreenedCoulomb.from_charge(137).screening
    )
    ch = Channel(tau=-1, two_j=1)
    bound = minimize_bound(pot, ch)
    return pot, ch, bound.u_star, bound.E_upper, bound.at_domain_edge


def _lower_edge_cli(capsys):
    # nothing to screen at Z = 1 and v = 1e-7 < u_lo, so G(u_lo) = v - u_lo < 0
    argv = ["bound", "--z", "1", "--alpha", "1e-7", "--state", "1s_1/2",
            "--units", "mc2", "--format", "json"]
    assert main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    pot = ScreenedCoulomb.from_charge(1, PhysicalConstants(alpha=1e-7))
    return pot, Channel(tau=-1, two_j=1), row["u_star"], row["E_upper"], row["at_domain_edge"]


# (case, u at the edge, E_upper of the scan-and-refine minimizer G = 0 replaced)
DOMAIN_EDGE_CASES = [
    (_upper_edge_direct, 1.0 - DOMAIN_EDGE, 0.037656108509622754),
    (_lower_edge_cli, DOMAIN_EDGE, 1.0000000000004001),
]


class TestStationarityRoot:
    def test_one_sign_change_per_cell(self):
        # F'(u) = D''(u)*G(u) with D'' < 0: one + to - crossing of G means one
        # minimum of F, so the root minimize_bound finds is the optimum
        bad = []
        for Z in range(1, 138):
            pot = ScreenedCoulomb.from_charge(Z)
            for ch in NODELESS_STATES:
                us = np.geomspace(DOMAIN_EDGE, min(1.0, ch.k) - DOMAIN_EDGE, 4001)
                g = _stationarity_on_mesh(pot, ch, us)
                changes = np.count_nonzero(np.sign(g[1:]) != np.sign(g[:-1]))
                if not (g[0] > 0.0 > g[-1] and changes == 1):
                    bad.append((Z, str(ch), changes))
        assert bad == []

    def test_bound_not_below_exact_tangent_level(self):
        # the optimal tangent's exact level is a rigorous bound; the float
        # E_upper must round to its safe side, never below it
        below = []
        for Z in range(1, 137):
            pot = ScreenedCoulomb.from_charge(Z)
            for ch in NODELESS_STATES[:4]:
                bound = minimize_bound(pot, ch)
                if bound.E_upper < _tangent_level_50_digits(pot, ch, bound.t_star):
                    below.append((Z, str(ch)))
        assert below == []

    @pytest.mark.parametrize(
        "case,u_edge,previous", DOMAIN_EDGE_CASES, ids=["upper-direct", "lower-cli"]
    )
    def test_minimum_at_domain_edge(self, capsys, case, u_edge, previous):
        pot, ch, u_star, e_upper, at_edge = case(capsys)
        assert at_edge is True
        assert u_star == u_edge
        f = bound_objective(pot, ch, u_star)
        assert e_upper == f + SAFETY_ULPS * math.ulp(f)
        assert e_upper == pytest.approx(previous, abs=1e-14)


class TestVariationalInequalities:
    def test_bound_dominates_solved_eigenvalue(self, z20_optimal_pair, z20_ground):
        _, _, bound = z20_optimal_pair
        assert bound.E_upper > z20_ground.E

    @given(log10_t=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60)
    def test_every_tangent_bounds_from_above(self, log10_t, z20_optimal_pair, z20_ground):
        # not only the optimal tangent: any contact radius gives a bound
        screened, _, _ = z20_optimal_pair
        t = 10.0**log10_t
        assert bound_at_t(screened, z20_ground.ch, t) >= z20_ground.E

    @given(log10_t=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60)
    def test_optimum_is_global(self, log10_t, z20_optimal_pair, ch_s):
        screened, _, bound = z20_optimal_pair
        assert bound_at_t(screened, ch_s, 10.0**log10_t) >= bound.E_upper - 1e-12

    @given(u=st.floats(min_value=1e-4, max_value=0.99))
    @settings(max_examples=60)
    def test_u_form_dominates_t_form(self, u, z20_optimal_pair, ch_s):
        # F(u) >= bound_at_t(-1/D'(u)) everywhere (concavity of D); they
        # touch exactly at the optimum, which is tested above
        screened, _, _ = z20_optimal_pair
        t = -1.0 / coulomb_eigenvalue_derivative(u, ch_s)
        f_u = bound_objective(screened, ch_s, u)
        f_t = bound_at_t(screened, ch_s, t)
        assert f_t <= f_u + 1e-12


class TestChannelGuards:
    @pytest.mark.parametrize(
        "ch",
        [
            Channel(tau=+1, two_j=1, n=1),  # 2p_1/2: tau = +1
            Channel(tau=-1, two_j=1, n=2),  # 2s_1/2: excited
            Channel(tau=+1, two_j=3, n=2),
        ],
        ids=str,
    )
    def test_non_nodeless_channels_rejected(self, ch, screened_z20):
        with pytest.raises(HypothesisViolationError, match="nodeless"):
            minimize_bound(screened_z20, ch)
        with pytest.raises(HypothesisViolationError):
            bound_at_t(screened_z20, ch, 1.0)
        with pytest.raises(HypothesisViolationError):
            bound_objective(screened_z20, ch, 0.1)
        with pytest.raises(HypothesisViolationError):
            screened_state_bracket(screened_z20, ch)

    def test_nonpositive_contact_radius_rejected(self, screened_z20, ch_s):
        with pytest.raises(ValueError, match="contact radius"):
            bound_at_t(screened_z20, ch_s, 0.0)


class TestStateBracket:
    def test_brackets_the_solved_eigenvalue(self, screened_z20, z20_ground, ch_s):
        lo, hi = screened_state_bracket(screened_z20, ch_s)
        assert lo < z20_ground.E < hi
        # the bracket is tight: width is the screening correction, not O(1)
        assert hi - lo < 0.01

    def test_lower_edge_is_pure_coulomb(self, screened_z20, ch_s):
        lo, _ = screened_state_bracket(screened_z20, ch_s)
        assert lo == pytest.approx(
            coulomb_eigenvalue(screened_z20.coupling, ch_s), abs=2e-9
        )

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_brackets_are_ordered(self, two_j):
        ch = Channel(tau=-1, two_j=two_j)
        for z in (20, 50, 80):
            lo, hi = screened_state_bracket(ScreenedCoulomb.from_charge(z), ch)
            assert lo < hi
