"""Shooting-solver tests against the closed-form Coulomb spectrum.

The pure and shifted Coulomb potentials have exactly known discrete
spectra, so every structural claim of the solver (eigenvalue accuracy,
node counts, component ratios, normalization, pointwise ODE residual)
can be checked against analytic oracles rather than against itself.
"""

from __future__ import annotations

import gc
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from diracbound import radial
from diracbound.channels import DEFAULT_CONSTANTS, Channel, parse_state_label
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
    reference_rate,
    solve_eigenvalue,
)
from diracbound.table1 import compute_state_pair


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
        st.floats(min_value=0.5, max_value=4.0),
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
            build_grid(0.25, 0.4)

    def test_reference_rate(self):
        pot = ShiftedCoulomb(shift=0.1, coupling=0.5)
        assert reference_rate(pot, None) == 0.25
        # the slower decay of the two ends: w = E - V(inf) = 0.6 gives 0.8
        assert reference_rate(pot, (0.0, 0.7)) == pytest.approx(0.8)
        # clamped into build_grid's range at the window edges
        assert reference_rate(pot, (0.5, 1.1)) == 1e-3
        assert reference_rate(pot, (0.1, 0.1)) == 1.0


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

    @pytest.mark.parametrize("u", [0.2, 0.5])
    @pytest.mark.parametrize("label", ["2s_1/2", "2p_1/2", "3s_1/2", "3p_3/2", "3d_3/2"])
    def test_states_with_nodes_at_round_off(self, label, u):
        ch = parse_state_label(label)
        sol = solve_eigenvalue(PureCoulomb(u), ch, tol_e=1e-14)
        assert abs(sol.E - coulomb_eigenvalue(u, ch)) < 2e-15

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
# search: phase-isolated bracket, Brent hand-off, fallback and its records


@pytest.fixture
def sweep_calls(monkeypatch):
    """Energies of the phase counts and Wronskian evaluations made by the solver."""
    calls = {"count": [], "wronskian": []}
    ws_cls = radial._ShootingWorkspace
    for name in calls:
        inner = getattr(ws_cls, name)

        def wrapped(self, E, *args, _inner=inner, _name=name):
            calls[_name].append(E)
            return _inner(self, E, *args)

        monkeypatch.setattr(ws_cls, name, wrapped)
    return calls


class TestSearch:
    def test_hinted_table_solve_sweep_budget(self, sweep_calls):
        # the envelope hint already holds exactly the target state: three
        # verifying counts, then Brent on the Wronskian, which evaluates the
        # bracket ends itself
        numeric = compute_state_pair(40, "1s_1/2")[1]
        assert not numeric.failed
        assert len(sweep_calls["count"]) <= 3
        energies = sweep_calls["wronskian"]
        assert len(energies) <= 6
        assert len(set(energies)) == len(energies)

    def test_unhinted_sweep_budget(self, ch_s, sweep_calls):
        # bisection stops once the bracket isolates the state, not at a fixed width
        sol = solve_eigenvalue(PureCoulomb(0.4), ch_s)
        assert abs(sol.E - coulomb_eigenvalue(0.4, ch_s)) < 1e-10
        assert len(sweep_calls["count"]) <= 8

    @pytest.mark.parametrize("hinted", [False, True], ids=["unhinted", "hinted"])
    def test_fallback_bisection_when_wronskian_keeps_sign(
        self, ch_s, monkeypatch, caplog, hinted
    ):
        wronskian = radial._ShootingWorkspace.wronskian
        monkeypatch.setattr(
            radial._ShootingWorkspace,
            "wronskian",
            lambda self, E, i_match: abs(wronskian(self, E, i_match)) + 1e-300,
        )
        exact = coulomb_eigenvalue(0.5, ch_s)
        hint = (exact - 1e-4, exact + 3e-4) if hinted else None
        tol_e = 1e-10
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            sol = solve_eigenvalue(PureCoulomb(0.5), ch_s, tol_e=tol_e, bracket_hint=hint)
        assert abs(sol.E - exact) < tol_e
        assert any("keeps one sign" in r.getMessage() for r in caplog.records)

    def test_wrong_hint_is_logged(self, ch_s, caplog):
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            sol = solve_eigenvalue(PureCoulomb(0.6), ch_s, bracket_hint=(0.93, 0.97))
        assert sol.E == pytest.approx(0.8, abs=1e-8)
        (record,) = [r for r in caplog.records if "rejected" in r.getMessage()]
        assert record.levelno == logging.DEBUG
        assert record.name.startswith("diracbound")
        # the hint holds the 2s_1/2 level (about 0.9487), one state above the
        # target: the counts place one state below it and two below its top
        c_bot, c_lo, c_hi = record.args[2:]
        assert (c_bot - c_lo, c_bot - c_hi) == (1, 2)

    def test_grid_rebuild_is_logged(self, ch_s, caplog):
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            solve_eigenvalue(PureCoulomb(0.05), ch_s)
        rebuilds = [r for r in caplog.records if "rebuilding with kappa_ref" in r.getMessage()]
        assert rebuilds
        new_ref, old_ref = rebuilds[-1].args[-2:]
        assert new_ref < old_ref


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

    def test_carries_potential_on_grid(self, coulomb_half):
        r = coulomb_half.grid.points
        assert np.array_equal(coulomb_half.V, coulomb_half.potential.evaluate(r))

    def test_screened_state_residual_small(self, z20_ground):
        assert ode_residual(z20_ground) < 1e-6

    def test_excited_state_node_counts(self):
        # second s_1/2 state: one interior node in each component
        sol = solve_eigenvalue(PureCoulomb(0.5), Channel(tau=-1, two_j=1, n=2))
        assert (sol.nodes1, sol.nodes2) == (1, 1)

    def test_match_radius_inside_grid(self, coulomb_half):
        g = coulomb_half.grid
        assert g.points[0] < coulomb_half.match_radius < g.points[-1]

    @pytest.mark.parametrize("u", [0.5, 0.6])
    def test_match_radius_at_turning_point(self, ch_s, u):
        # for the Coulomb ground state (E + u/r)^2 - 1 - 1/r^2 peaks at zero at
        # r = E/u, so the sweeps join there whatever bracket the search used
        sol = solve_eigenvalue(PureCoulomb(u), ch_s)
        r_turn = math.sqrt(1.0 - u * u) / u
        assert sol.match_radius == pytest.approx(r_turn, rel=0.005)

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
# propagator kernel

def _magnus_generator(pot, ch, r0, r1, E):
    """Sixth-order Magnus generator of the step r0 -> r1, from A(r) itself."""
    h, tk = r1 - r0, ch.tau * ch.k
    rs = r0 + (0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0) * h
    A1, A2, A3 = (
        np.array([[-tk / r, 1.0 + E - v], [1.0 - E + v, tk / r]])
        for r, v in zip(rs, pot.evaluate(rs))
    )
    a1 = h * A2
    a2 = math.sqrt(15.0) * h / 3.0 * (A3 - A1)
    a3 = 10.0 * h / 3.0 * (A3 - 2.0 * A2 + A1)

    def comm(x, y):
        return x @ y - y @ x

    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


@pytest.fixture(scope="module")
def z80_workspace(ch_s):
    """Workspace on the grid of the unhinted Z = 80 1s_1/2 solve."""
    pot = ScreenedCoulomb.from_charge(80)
    return radial._ShootingWorkspace(pot, ch_s, solve_eigenvalue(pot, ch_s).grid)


WINDOW_ENERGIES = [-0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999]


class TestPropagatorKernel:
    @pytest.mark.parametrize("E", [-0.5, 0.5, 0.9])
    def test_columns_match_expm_of_generator(self, z80_workspace, E):
        ws = z80_workspace
        r = ws.grid.points
        for table, ends in ((ws.fwd, (r[:-1], r[1:])), (ws.bwd, (r[:0:-1], r[-2::-1]))):
            m = radial._propagators(table, E, ws.n_int)
            for i in range(0, ws.n_int, 97):
                exact = expm(_magnus_generator(ws.pot, ws.ch, ends[0][i], ends[1][i], E))
                for j in range(2):
                    scale = max(1.0, np.abs(exact[:, j]).max())
                    np.testing.assert_allclose(m[:, j, i], exact[:, j], rtol=0, atol=4e-15 * scale)

    @pytest.mark.parametrize("E", WINDOW_ENERGIES)
    def test_unit_determinant(self, z80_workspace, E):
        # tr A = 0, so each exact propagator has det 1 (Liouville); so does
        # the exponential of each traceless Magnus generator, up to round-off
        ws = z80_workspace
        for table in (ws.fwd, ws.bwd):
            m = radial._propagators(table, E, ws.n_int)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert np.max(np.abs(det - 1.0)) < 4e-15

    @pytest.mark.parametrize("E", [-0.5, 0.5, 0.9])
    def test_end_value_matches_scan(self, z80_workspace, E):
        ws = z80_workspace
        i_match = ws.match_index(E)
        seed = ws._seed_out(E)
        Y, _ = radial._trajectory(ws.fwd, E, seed, i_match)
        end = radial._end_value(ws.fwd, E, seed, i_match)
        np.testing.assert_allclose(
            end / np.abs(end).sum(), Y[:, -1] / np.abs(Y[:, -1]).sum(), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "pot", [ScreenedCoulomb.from_charge(136), PureCoulomb(0.3)], ids=["Z=136", "u=0.3"]
    )
    def test_determinant_at_round_off_on_coarsest_grid(self, ch_s, pot):
        # the longest, coarsest grid has the largest steps: hyperbolic steps
        # in the log section's outer end and elliptic ones in the tail
        ws = radial._ShootingWorkspace(pot, ch_s, build_grid(1e-3, 0.5))
        for E in (-1.0 + 1e-9, -0.5, 0.5, 1.0 - 1e-9):
            for table in (ws.fwd, ws.bwd):
                m = radial._propagators(table, E, ws.n_int)[..., ::7]
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                assert np.max(np.abs(det - 1.0) / np.abs(m).max(axis=(0, 1)) ** 2) < 4e-15

    def test_no_workspace_outlives_its_solve(self, ch_s):
        # brentq keeps its callable in a reference cycle, so a workspace the
        # callable holds strongly would stay alive until a full gc pass
        def workspaces():
            return {id(o) for o in gc.get_objects() if isinstance(o, radial._ShootingWorkspace)}

        pot = ScreenedCoulomb.from_charge(40)
        gc.collect()
        gc.disable()
        try:
            before = workspaces()  # e.g. those held by fixtures
            E = solve_eigenvalue(pot, ch_s).E
            solve_eigenvalue(pot, ch_s, bracket_hint=(E - 1e-3, E + 1e-3))
            alive = workspaces() - before
        finally:
            gc.enable()
        assert alive == set()


def _scan_phase(ws, E):
    """Matching phase from every sample of the outward sweep: seed angle plus winding."""
    Y, _ = radial._trajectory(ws.fwd, E, ws._seed_out(E), ws.n_int)
    return math.atan2(Y[1, 0], Y[0, 0]) + radial._winding(Y) - decaying_tail_angle(E - ws.v_inf)


def _near_identity_step(phi, a, b, c, d):
    """Rotation by phi after a det > 0 distortion of the identity."""
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return rot @ np.array([[1.0 + a, b], [c, 1.0 + d]])


_distortion = st.floats(min_value=-0.3, max_value=0.3)
_step = st.tuples(
    st.one_of(
        st.floats(min_value=-0.2, max_value=0.2),
        st.floats(min_value=1.5, max_value=1.5707),
        st.floats(min_value=-1.5707, max_value=-1.5),
    ),
    _distortion,
    _distortion,
    _distortion,
    _distortion,
)


class TestHalfTurnReduction:
    """Phase counts from the half-turn reduction agree with the full scan."""

    @pytest.mark.parametrize("E", WINDOW_ENERGIES)
    def test_phase_matches_scan_z80(self, z80_workspace, E):
        ws = z80_workspace
        assert abs(ws.phase(E) - _scan_phase(ws, E)) < 1e-10

    @pytest.mark.parametrize("kappa", [1e-3, 0.25, 1.0])
    @pytest.mark.parametrize(
        "ch",
        [Channel(tau=-1, two_j=1), Channel(tau=1, two_j=1), parse_state_label("4f_7/2")],
        ids=["tau=-1", "tau=+1", "4f_7/2"],
    )
    def test_phase_matches_scan_across_grids(self, kappa, ch):
        pot = ScreenedCoulomb.from_charge(80)
        ws = radial._ShootingWorkspace(pot, ch, build_grid(kappa, 0.5))
        for E in WINDOW_ENERGIES:
            new, old = ws.phase(E), _scan_phase(ws, E)
            assert abs(new - old) < 1e-10
            assert math.floor(new / math.pi) == math.floor(old / math.pi)

    @given(
        st.lists(_step, min_size=1, max_size=65),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_lifted_angle_is_sum_of_step_angles(self, steps, seed_angle):
        stack = np.stack([_near_identity_step(*s) for s in steps], axis=-1)
        y0 = (math.cos(seed_angle), math.sin(seed_angle))
        y = np.array(y0)
        expected = math.atan2(y[1], y[0])
        for i in range(stack.shape[-1]):
            nxt = stack[..., i] @ y
            expected += math.atan2(y[0] * nxt[1] - y[1] * nxt[0], y @ nxt)
            y = nxt / np.abs(nxt).sum()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "_propagators", lambda table, E, n: stack)
            got = radial._end_angle(None, 0.0, y0, len(steps))
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "turns, expected",
        [("++++", 2.0), ("----", -2.0), ("++--", 0.0), ("--++", 0.0), ("+++", 1.5)],
    )
    def test_exact_quarter_turns(self, turns, expected):
        # pairs of exact quarter turns land on the negative x axis, the
        # boundary between the two half-planes
        quarter = {"+": [[0.0, -1.0], [1.0, 0.0]], "-": [[0.0, 1.0], [-1.0, 0.0]]}
        stack = np.stack([np.array(quarter[t]) for t in turns], axis=-1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "_propagators", lambda table, E, n: stack)
            got = radial._end_angle(None, 0.0, (1.0, 0.0), len(turns))
        assert got == pytest.approx(expected * math.pi, abs=1e-12)

    def test_counts_do_not_scan(self, monkeypatch):
        # a hinted solve scans only for the eigenfunction's two sweeps; its
        # three phase counts are reductions
        calls = {"_trajectory": 0, "_end_angle": 0}
        for name in calls:
            inner = getattr(radial, name)

            def wrapped(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(radial, name, wrapped)
        assert not compute_state_pair(40, "1s_1/2")[1].failed
        assert calls == {"_trajectory": 2, "_end_angle": 3}


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

    def test_weakly_bound_state_found_automatically(self, ch_s):
        # same u=0.05 state as above, but with the rebuild loop enabled the
        # solver stretches the tail on its own
        exact = coulomb_eigenvalue(0.05, ch_s)
        sol = solve_eigenvalue(PureCoulomb(0.05), ch_s)
        assert abs(sol.E - exact) < 1e-8


# --------------------------------------------------------------------------
# weakly bound edge inputs: the grid is rebuilt until it holds the state and
# reaches 30 of its decay lengths, down to the kappa = 1e-3 floor


class TestWeaklyBoundEdges:
    @pytest.mark.parametrize("label", ["2s_1/2", "2p_1/2", "2p_3/2", "3d_5/2", "4f_7/2"])
    def test_hydrogen_is_exact_coulomb(self, label):
        # at Z = 1 the screening term vanishes, so V = -alpha/r exactly
        ch = parse_state_label(label)
        sol = solve_eigenvalue(ScreenedCoulomb.from_charge(1), ch)
        assert abs(sol.E - coulomb_eigenvalue(DEFAULT_CONSTANTS.alpha, ch)) < 1e-12

    @pytest.mark.parametrize(
        "label, nodes",
        [("2s_1/2", (1, 1)), ("2p_1/2", (0, 1)), ("3d_5/2", (0, 0))],
        ids=["2s_1/2", "2p_1/2", "3d_5/2"],
    )
    def test_helium_excited_states(self, label, nodes):
        ch = parse_state_label(label)
        pot = ScreenedCoulomb.from_charge(2)
        sol = solve_eigenvalue(pot, ch)
        assert (sol.nodes1, sol.nodes2) == nodes
        # -v/r lies below the screened potential, so its level is a floor
        assert coulomb_eigenvalue(pot.coupling, ch) <= sol.E < 1.0

    @pytest.mark.parametrize("u", [1.0e-3, 1.02e-3, 1.2e-3, 2e-3])
    def test_weak_coulomb_ground_state(self, ch_s, u):
        sol = solve_eigenvalue(PureCoulomb(u), ch_s)
        assert abs(sol.E - coulomb_eigenvalue(u, ch_s)) < 1e-12

    @pytest.mark.parametrize(
        "pot, label",
        [(ShiftedCoulomb(shift=0.0, coupling=1e-3), "2s_1/2"), (PureCoulomb(1e-3), "3s_1/2")],
        ids=["shifted-2s_1/2", "pure-3s_1/2"],
    )
    def test_rebuild_hint_stays_in_isolating_bracket(self, caplog, pot, label):
        # near threshold E +- 1e-5 spans several levels; clipped to the bracket
        # that isolated the state, the hint holds it alone on the rebuilt grid
        with caplog.at_level(logging.DEBUG, logger="diracbound.radial"):
            with pytest.raises(ConvergenceError, match="too weakly bound"):
                solve_eigenvalue(pot, parse_state_label(label))
        messages = [r.getMessage() for r in caplog.records]
        assert any("grid tail too short" in m for m in messages)
        assert not any("rejected" in m for m in messages)

    @pytest.mark.parametrize("u, label", [(9e-4, "1s_1/2"), (1e-3, "3s_1/2")])
    def test_below_grid_floor_is_typed(self, u, label):
        with pytest.raises(ConvergenceError, match="too weakly bound"):
            solve_eigenvalue(PureCoulomb(u), parse_state_label(label))
