"""Shooting-solver tests against the closed-form Coulomb spectrum.

The pure and shifted Coulomb potentials have exactly known discrete
spectra, so every structural claim of the solver (eigenvalue accuracy,
node counts, component ratios, normalization, pointwise ODE residual)
can be checked against analytic oracles rather than against itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from diracbound.channels import Channel
from diracbound.coulomb import coulomb_eigenvalue
from diracbound.errors import ConvergenceError, NoBoundStateError
from diracbound.potentials import PureCoulomb, ScreenedCoulomb, ShiftedCoulomb
from diracbound.radial import (
    RadialGrid,
    build_grid,
    count_nodes,
    decaying_tail_angle,
    grid_derivative,
    integrate_radial,
    matching_mismatch,
    normalize,
    ode_residual,
    origin_series_seed,
    solve_eigenvalue,
)


# --------------------------------------------------------------------------
# grid construction


class TestBuildGrid:
    def test_basic_shape(self):
        grid = build_grid(0.25)
        assert isinstance(grid, RadialGrid)
        assert grid.r_min == pytest.approx(1e-6)
        assert grid.points[0] == grid.r_min
        assert grid.points[-1] == pytest.approx(grid.r_max)

    @given(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=30)
    def test_invariants(self, kappa, scale):
        grid = build_grid(kappa, scale)
        pts = grid.points
        # inner radius deep enough for every decay rate (kappa <= 1)
        assert pts[0] <= 1e-6 / kappa + 1e-15
        # tail long enough that exp(-kappa r_max) < 1e-13
        assert grid.r_max >= 30.0 / kappa
        assert grid.count >= 1000
        assert np.all(np.diff(pts) > 0.0)
        assert 0 < grid.split_index < grid.count - 1
        # the two sections meet near the 2/kappa crossover radius
        assert pts[grid.split_index] == pytest.approx(2.0 / kappa, rel=1e-9)

    def test_density_scales_with_scale(self):
        coarse = build_grid(0.25, 1.0)
        fine = build_grid(0.25, 2.0)
        assert fine.count > 1.5 * coarse.count

    @pytest.mark.parametrize("kappa", [0.0, 9e-4, 1.0001, -0.3])
    def test_kappa_out_of_range(self, kappa):
        with pytest.raises(ValueError, match="kappa_ref"):
            build_grid(kappa)

    def test_scale_too_small(self):
        with pytest.raises(ValueError, match="scale"):
            build_grid(0.25, 0.2)


# --------------------------------------------------------------------------
# origin series seed


class TestOriginSeed:
    def test_leading_ratio(self, ch_s):
        # psi2/psi1 -> (gamma + tau*k)/v as r -> 0
        u = 0.5
        pot = PureCoulomb(u)
        gamma = math.sqrt(1.0 - u * u)
        p1, p2 = origin_series_seed(pot, ch_s, 0.8, 1e-10)
        assert p2 / p1 == pytest.approx((gamma - 1.0) / u, rel=1e-8)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30)
    def test_seed_solves_the_system_near_origin(self, u):
        # finite-difference derivative of the seed matches the radial system
        # to the order retained by the two-term Frobenius expansion
        ch = Channel(tau=-1, two_j=1)
        pot = PureCoulomb(u)
        E = coulomb_eigenvalue(u, ch)
        r = 1e-6
        eps = 1e-9
        p1m, p2m = origin_series_seed(pot, ch, E, r - eps)
        p1c, p2c = origin_series_seed(pot, ch, E, r)
        p1p, p2p = origin_series_seed(pot, ch, E, r + eps)
        d1 = (p1p - p1m) / (2.0 * eps)
        d2 = (p2p - p2m) / (2.0 * eps)
        V = -u / r
        tk = ch.tau * ch.k
        rhs1 = -(tk / r) * p1c + (1.0 + E - V) * p2c
        rhs2 = (tk / r) * p2c + (1.0 + V - E) * p1c
        scale = (abs(p1c) + abs(p2c)) / r
        assert d1 == pytest.approx(rhs1, abs=1e-4 * scale)
        assert d2 == pytest.approx(rhs2, abs=1e-4 * scale)

    def test_supercritical_strength_rejected(self, ch_s):
        pot = PureCoulomb(1.5)  # v >= k = 1
        with pytest.raises(ValueError, match="origin Coulomb strength"):
            origin_series_seed(pot, ch_s, 0.5, 1e-6)

    def test_critical_strength_rejected(self, ch_s):
        with pytest.raises(ValueError, match="origin Coulomb strength"):
            origin_series_seed(PureCoulomb(1.0), ch_s, 0.5, 1e-6)


# --------------------------------------------------------------------------
# decaying tail angle


class TestTailAngle:
    def test_zero_energy_value(self):
        assert decaying_tail_angle(0.0) == pytest.approx(-math.pi / 4.0)

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_range(self, w):
        a = decaying_tail_angle(w)
        assert -math.pi / 2.0 < a < 0.0

    @given(
        st.floats(min_value=-0.99, max_value=0.98),
        st.floats(min_value=1e-3, max_value=0.01),
    )
    def test_monotone_in_w(self, w, dw):
        if w + dw >= 1.0:
            return
        assert decaying_tail_angle(w + dw) > decaying_tail_angle(w)


# --------------------------------------------------------------------------
# node counting


class TestCountNodes:
    def test_simple_cases(self):
        assert count_nodes([1.0, -1.0]) == 1
        assert count_nodes([1.0, -1.0, 1.0]) == 2
        assert count_nodes([1.0, 2.0, 3.0]) == 0
        assert count_nodes([]) == 0
        assert count_nodes([0.0, 0.0]) == 0

    def test_tangency_is_not_a_node(self):
        # grazing zero without sign change
        assert count_nodes([1.0, 0.0, 1.0]) == 0

    def test_floor_suppresses_roundoff_wiggles(self):
        # a 1e-12 blip against an O(1) peak is quadrature noise, not a node
        assert count_nodes([1.0, -1e-12, 1.0]) == 0
        assert count_nodes([1.0, -1e-12, 1.0], floor_ratio=1e-14) == 2

    def test_small_samples_dropped_before_pairing(self):
        # the sub-floor sample between two genuine signs must not mask the flip
        assert count_nodes([1.0, 1e-12, -1.0]) == 1

    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=60))
    def test_matches_sign_flip_count(self, signs):
        expected = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
        assert count_nodes(signs) == expected


# --------------------------------------------------------------------------
# eigenvalues against the closed-form Coulomb spectrum

ORACLE_CASES = [
    (Channel(tau=-1, two_j=1, n=1), 0.1),
    (Channel(tau=-1, two_j=1, n=1), 0.3),
    (Channel(tau=-1, two_j=1, n=1), 0.58),
    (Channel(tau=-1, two_j=3, n=1), 0.3),
    (Channel(tau=-1, two_j=1, n=2), 0.3),
    (Channel(tau=+1, two_j=1, n=1), 0.3),
]


class TestCoulombOracle:
    @pytest.mark.parametrize(
        "ch,u", ORACLE_CASES, ids=[f"{c}-u{u}" for c, u in ORACLE_CASES]
    )
    def test_eigenvalue_matches_closed_form(self, ch, u):
        exact = coulomb_eigenvalue(u, ch)
        sol = solve_eigenvalue(PureCoulomb(u), ch)
        assert abs(sol.E - exact) < 1e-8
        assert sol.nodes1 == ch.n - 1

    def test_shift_covariance(self, ch_s):
        # V -> V + A translates every eigenvalue by exactly A
        u, shift = 0.5, 0.001
        sol = solve_eigenvalue(ShiftedCoulomb(shift=shift, coupling=u), ch_s)
        assert sol.E == pytest.approx(shift + math.sqrt(3.0) / 2.0, abs=1e-8)

    def test_grid_refinement_stability(self, ch_s):
        pot = PureCoulomb(0.3)
        e1 = solve_eigenvalue(pot, ch_s, grid_scale=1.0).E
        e2 = solve_eigenvalue(pot, ch_s, grid_scale=2.0).E
        assert abs(e1 - e2) < 1e-9

    def test_hint_accelerates_without_changing_answer(self, ch_s):
        pot = PureCoulomb(0.3)
        exact = coulomb_eigenvalue(0.3, ch_s)
        sol = solve_eigenvalue(pot, ch_s, bracket_hint=(exact - 1e-4, exact + 1e-4))
        assert abs(sol.E - exact) < 1e-8

    def test_wrong_hint_is_discarded(self, ch_s):
        # (0.93, 0.97) does not contain E = 0.8; the solver must fall back
        # to the full-window search and still land on the right state
        sol = solve_eigenvalue(PureCoulomb(0.6), ch_s, bracket_hint=(0.93, 0.97))
        assert sol.E == pytest.approx(0.8, abs=1e-8)


# --------------------------------------------------------------------------
# solved-state structure (exact Coulomb ground state has constant psi2/psi1)


@pytest.fixture(scope="module")
def coulomb_half(ch_s):
    return solve_eigenvalue(PureCoulomb(0.5), ch_s)


class TestSolutionStructure:
    def test_unit_norm(self, coulomb_half):
        assert coulomb_half.norm == pytest.approx(1.0, abs=1e-8)
        r = coulomb_half.grid.points
        quad = simpson(coulomb_half.psi1**2 + coulomb_half.psi2**2, x=r)
        assert quad == pytest.approx(1.0, abs=1e-8)

    def test_ground_state_nodeless(self, coulomb_half):
        assert coulomb_half.nodes1 == 0
        assert coulomb_half.nodes2 == 0

    def test_vanishes_at_origin(self, coulomb_half):
        peak = max(np.max(np.abs(coulomb_half.psi1)), np.max(np.abs(coulomb_half.psi2)))
        assert abs(coulomb_half.psi1[0]) < 1e-4 * peak
        assert abs(coulomb_half.psi2[0]) < 1e-4 * peak

    def test_component_ratio_constant(self, coulomb_half):
        # Coulomb ground state with tau=-1: psi2 = -sqrt((1-E)/(1+E)) psi1
        # at every radius, not only in the tail
        E = coulomb_half.E
        rho = -math.sqrt((1.0 - E) / (1.0 + E))
        mid = slice(200, -200)
        ratio = coulomb_half.psi2[mid] / coulomb_half.psi1[mid]
        assert np.max(np.abs(ratio - rho)) < 1e-6

    def test_component_norm_split(self, coulomb_half):
        # integral psi2^2 / integral psi1^2 = (1-E)/(1+E) for that state
        E = coulomb_half.E
        r = coulomb_half.grid.points
        n1 = simpson(coulomb_half.psi1**2, x=r)
        n2 = simpson(coulomb_half.psi2**2, x=r)
        assert n2 / n1 == pytest.approx((1.0 - E) / (1.0 + E), rel=1e-8)

    def test_ode_residual_small(self, coulomb_half):
        assert ode_residual(coulomb_half) < 1e-6

    def test_screened_state_residual_small(self, z20_ground):
        assert ode_residual(z20_ground) < 1e-6

    def test_excited_state_node_counts(self):
        # second s_1/2 state: one interior node in each component
        sol = solve_eigenvalue(PureCoulomb(0.5), Channel(tau=-1, two_j=1, n=2))
        assert (sol.nodes1, sol.nodes2) == (1, 1)

    def test_match_radius_inside_grid(self, coulomb_half):
        g = coulomb_half.grid
        assert g.points[0] < coulomb_half.match_radius < g.points[-1]

    def test_mismatch_tiny_at_eigenvalue(self, coulomb_half):
        assert abs(coulomb_half.mismatch) < 1e-9


# --------------------------------------------------------------------------
# raw sweeps and mismatch


class TestSweeps:
    def test_outward_fills_prefix(self, ch_s):
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        res = integrate_radial(pot, ch_s, 0.8, grid, direction="outward")
        assert res.direction == "outward"
        assert res.first_index == 0
        assert res.last_index == grid.count - 1
        assert np.all(np.isfinite(res.psi1))

    def test_inward_seed_ratio(self, ch_s):
        # the inward sweep starts from the decaying-tail direction
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        E = 0.8
        res = integrate_radial(pot, ch_s, E, grid, direction="inward")
        w = E - pot.value_at_infinity
        expected = -math.sqrt((1.0 - w) / (1.0 + w))
        assert res.psi2[-1] / res.psi1[-1] == pytest.approx(expected, rel=1e-12)

    def test_outward_phase_accumulates(self, ch_s):
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        lo = integrate_radial(pot, ch_s, 0.2, grid).theta
        hi = integrate_radial(pot, ch_s, 0.999, grid).theta
        # the unwound phase decreases as E grows (one eigenvalue in between)
        assert hi < lo

    @pytest.mark.parametrize("direction", ["outward", "inward"])
    def test_rescaled_samples_stay_continuous(self, ch_s, direction):
        # off an eigenvalue a 35000-unit tail rescales the sweep many times;
        # stored samples are rescaled with it, so the far side underflows to
        # exact zeros and no rescale seam shows as a jump between neighbours
        grid = build_grid(1e-3)
        res = integrate_radial(PureCoulomb(0.5), ch_s, 0.5, grid, direction=direction)
        for y in (res.psi1, res.psi2):
            assert np.all(np.isfinite(y))
            assert np.any(y == 0.0)
            decades = np.log10(np.abs(y[y != 0.0]))
            assert np.max(np.abs(np.diff(decades))) <= 10.0

    def test_direction_validated(self, ch_s):
        grid = build_grid(0.5)
        with pytest.raises(ValueError, match="direction"):
            integrate_radial(PureCoulomb(0.5), ch_s, 0.8, grid, direction="up")

    def test_energy_window_validated(self, ch_s):
        grid = build_grid(0.5)
        with pytest.raises(ValueError, match="window"):
            integrate_radial(PureCoulomb(0.5), ch_s, 1.5, grid)

    def test_mismatch_vanishes_at_eigenvalue(self, ch_s):
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        exact = math.sqrt(3.0) / 2.0
        at_exact = matching_mismatch(pot, ch_s, exact, grid)
        off = matching_mismatch(pot, ch_s, exact + 1e-3, grid)
        assert abs(at_exact) < 1e-8
        assert abs(off) > 10.0 * abs(at_exact)

    def test_mismatch_changes_sign_across_eigenvalue(self, ch_s):
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        exact = math.sqrt(3.0) / 2.0
        below = matching_mismatch(pot, ch_s, exact - 1e-4, grid)
        above = matching_mismatch(pot, ch_s, exact + 1e-4, grid)
        assert below * above < 0.0


# --------------------------------------------------------------------------
# normalization helper


class TestNormalize:
    def test_rescales_and_is_idempotent(self, coulomb_half):
        import dataclasses

        scaled = dataclasses.replace(
            coulomb_half, psi1=7.0 * coulomb_half.psi1, psi2=7.0 * coulomb_half.psi2
        )
        back = normalize(scaled)
        assert back.norm == pytest.approx(1.0, abs=1e-12)
        again = normalize(back)
        assert np.allclose(again.psi1, back.psi1, rtol=0.0, atol=1e-15)

    def test_zero_function_rejected(self, coulomb_half):
        import dataclasses

        zero = dataclasses.replace(
            coulomb_half,
            psi1=np.zeros_like(coulomb_half.psi1),
            psi2=np.zeros_like(coulomb_half.psi2),
        )
        with pytest.raises(ValueError, match="normalize"):
            normalize(zero)


# --------------------------------------------------------------------------
# grid derivative helper


class TestGridDerivative:
    def test_matches_analytic_derivative(self):
        grid = build_grid(0.5)
        r = grid.points
        y = np.exp(-0.3 * r) * r
        d = grid_derivative(y, grid)
        exact = np.exp(-0.3 * r) * (1.0 - 0.3 * r)
        ok = np.isfinite(d)
        assert ok.sum() > grid.count - 20
        assert np.max(np.abs(d[ok] - exact[ok])) < 1e-7


# --------------------------------------------------------------------------
# failure modes


class TestFailureModes:
    def test_weak_coupling_needs_long_tail(self, ch_s):
        # a grid built for kappa=1 is far too short for the u=0.05 ground
        # state (decay rate ~0.05); with the grid pinned the solver must
        # report the defect instead of silently rebuilding
        short = build_grid(1.0)
        with pytest.raises(ConvergenceError, match="too short"):
            solve_eigenvalue(PureCoulomb(0.05), ch_s, grid=short)

    def test_missing_excited_state(self):
        # the wall of a pinned short grid pushes all but two s_1/2 states of
        # the u=0.1 well out of the spectral window; asking for the third
        # must report how many actually exist there
        with pytest.raises(NoBoundStateError, match="supports 2 bound state"):
            solve_eigenvalue(
                PureCoulomb(0.1), Channel(tau=-1, two_j=1, n=3), grid=build_grid(1.0)
            )

    def test_excited_state_found_by_tail_extension(self):
        # without a pinned grid the solver stretches the tail until the same
        # n=3 state fits, and then nails it
        ch3 = Channel(tau=-1, two_j=1, n=3)
        sol = solve_eigenvalue(PureCoulomb(0.1), ch3)
        assert abs(sol.E - coulomb_eigenvalue(0.1, ch3)) < 1e-10
        assert (sol.nodes1, sol.nodes2) == (2, 2)

    def test_hint_outside_window_rejected(self, ch_s):
        with pytest.raises(ValueError, match="collapses"):
            solve_eigenvalue(PureCoulomb(0.5), ch_s, bracket_hint=(2.0, 3.0))

    def test_bad_n_target(self, ch_s):
        with pytest.raises(ValueError, match="n_target"):
            solve_eigenvalue(PureCoulomb(0.5), ch_s, n_target=0)

    def test_weakly_bound_state_found_automatically(self, ch_s):
        # same u=0.05 state as above, but with the rebuild loop enabled the
        # solver stretches the tail on its own
        exact = coulomb_eigenvalue(0.05, ch_s)
        sol = solve_eigenvalue(PureCoulomb(0.05), ch_s)
        assert abs(sol.E - exact) < 1e-8
