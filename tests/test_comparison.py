"""Spectral-ordering verification: identity quadrature, weights, guard rails.

Exactly solvable Coulomb pairs validate the quadrature against closed
forms; screened-vs-tangent pairs exercise the genuinely different-shape
case where the choice of weight in the integral identity matters.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from diracbound import comparison
from diracbound.channels import Channel
from diracbound.comparison import (
    ComparisonReport,
    IdentityCheck,
    assert_ordering,
    derivative_identity_check,
    identity_residual,
    predicted_bracket,
    random_screened_tangent_pair,
)
from diracbound.coulomb import coulomb_eigenvalue
from diracbound.envelope import minimize_bound
from diracbound.errors import HypothesisViolationError
from diracbound.potentials import (
    PureCoulomb,
    ScreenedCoulomb,
    ShiftedCoulomb,
    ordering_gap,
    tangent_at,
)
from diracbound.radial import build_grid, solve_eigenvalue


@pytest.fixture(scope="module")
def shared_pair(z20_optimal_pair, ch_s):
    """Screened Z=20 and its optimal tangent, solved on one shared grid."""
    screened, tangent, bound = z20_optimal_pair
    grid = build_grid(0.12)  # long enough for both decay rates (~0.13)
    sol_a = solve_eigenvalue(screened, ch_s, grid=grid, bracket_hint=bound.bracket)
    sol_b = solve_eigenvalue(
        tangent, ch_s, grid=grid, bracket_hint=predicted_bracket(tangent, ch_s)
    )
    return screened, tangent, sol_a, sol_b


# --------------------------------------------------------------------------
# quadrature identity against exactly solvable pairs


class TestCoulombPairs:
    def test_coulomb_pair_report(self, ch_s):
        report = assert_ordering(PureCoulomb(0.6), PureCoulomb(0.55), ch_s)
        assert isinstance(report, ComparisonReport)
        assert report.verdict == "PASS"
        assert report.hypothesis_ok and report.ordered
        assert report.E_a == pytest.approx(0.8, abs=1e-9)
        assert report.E_b == pytest.approx(math.sqrt(1.0 - 0.55**2), abs=1e-9)
        assert report.identity.relative < 1e-8
        assert report.derivative_residual < 1e-4
        assert report.min_gap >= 0.0
        assert report.max_gap > 0.0
        assert report.nodes_a == (0, 0) and report.nodes_b == (0, 0)

    def test_constant_shift_pair(self, ch_s):
        # V_b = V_a + c: the gap is constant and the spectrum translates by c
        c = 1e-3
        pot_a = PureCoulomb(0.5)
        pot_b = ShiftedCoulomb(shift=c, coupling=0.5)
        report = assert_ordering(pot_a, pot_b, ch_s)
        assert report.verdict == "PASS"
        assert report.E_b - report.E_a == pytest.approx(c, abs=1e-9)
        # the mesh gap subtracts O(1/r_min) potential values, so ~7 digits
        # of the 1e-3 difference survive at the inner mesh points
        assert report.min_gap == pytest.approx(c, rel=1e-7)
        assert report.max_gap == pytest.approx(c, rel=1e-7)
        assert report.identity.relative < 1e-9

    def test_coulomb_below_screened(self, screened_z20, ch_s):
        # the unscreened point charge pulls harder than the screened one
        report = assert_ordering(PureCoulomb(screened_z20.coupling), screened_z20, ch_s)
        assert report.verdict == "PASS"
        assert report.E_a == pytest.approx(
            coulomb_eigenvalue(screened_z20.coupling, ch_s), abs=1e-9
        )


# --------------------------------------------------------------------------
# screened vs tangent: weights and negative controls


class TestScreenedTangentPair:
    def test_identity_and_ordering(self, shared_pair):
        screened, tangent, sol_a, sol_b = shared_pair
        assert sol_a.E < sol_b.E
        check = identity_residual(sol_a, sol_b)
        assert check.relative < 1e-6
        assert derivative_identity_check(sol_a, sol_b) < 1e-4

    def test_diagonal_weight_has_single_sign(self, shared_pair):
        _, _, sol_a, sol_b = shared_pair
        S = sol_a.psi1 * sol_b.psi1 + sol_a.psi2 * sol_b.psi2
        bulk = np.abs(S) > 1e-8 * np.max(np.abs(S))
        signs = np.sign(S[bulk])
        assert np.all(signs == signs[0])

    def test_cross_weight_has_opposite_sign(self, shared_pair):
        # psi2/psi1 < 0 with magnitude < 1 for these states, so the diagonal
        # and cross bilinears carry opposite signs pointwise (a fact that is
        # invariant under the arbitrary overall sign of each solution)
        _, _, sol_a, sol_b = shared_pair
        S = sol_a.psi1 * sol_b.psi1 + sol_a.psi2 * sol_b.psi2
        X = sol_a.psi1 * sol_b.psi2 + sol_a.psi2 * sol_b.psi1
        bulk = np.abs(S) > 1e-6 * np.max(np.abs(S))
        assert np.all(S[bulk] * X[bulk] < 0.0)

    def test_only_the_diagonal_weight_balances(self, shared_pair):
        # on a pair with genuinely different shapes the identity singles out
        # the diagonal weight; the cross bilinear misses by orders of magnitude
        screened, tangent, sol_a, sol_b = shared_pair
        r = sol_a.grid.points
        dv = screened.evaluate(r) - tangent.evaluate(r)
        de = sol_a.E - sol_b.E

        def rel_residual(w):
            lhs = float(simpson(w * dv, x=r))
            rhs = de * float(simpson(w, x=r))
            return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

        diag = rel_residual(sol_a.psi1 * sol_b.psi1 + sol_a.psi2 * sol_b.psi2)
        cross = rel_residual(sol_a.psi1 * sol_b.psi2 + sol_a.psi2 * sol_b.psi1)
        assert diag < 1e-6
        assert cross > 1e3 * diag

    def test_negative_control_detects_wrong_eigenvalue(self, shared_pair):
        # corrupting E_a by 1e-4 must blow the relative residual up by >= 1e3
        _, _, sol_a, sol_b = shared_pair
        honest = identity_residual(sol_a, sol_b)
        corrupted = identity_residual(dataclasses.replace(sol_a, E=sol_a.E + 1e-4), sol_b)
        assert corrupted.relative > 1e3 * honest.relative

    def test_different_grids_rejected(self, shared_pair, ch_s):
        # both identity checks need the pair on one shared grid
        _, tangent, sol_a, _ = shared_pair
        sol_b = solve_eigenvalue(
            tangent, ch_s, grid=build_grid(0.11), bracket_hint=predicted_bracket(tangent, ch_s)
        )
        assert len(sol_a.grid.points) != len(sol_b.grid.points)
        for check in (identity_residual, derivative_identity_check):
            with pytest.raises(ValueError, match="shared grid"):
                check(sol_a, sol_b)

    def test_screened_bracket_computed_once(self, z20_optimal_pair, ch_s, monkeypatch):
        # the envelope bracket sizes the shared grid and hints the solve
        screened, tangent, _ = z20_optimal_pair
        calls = []
        real = comparison.minimize_bound

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(comparison, "minimize_bound", counting)
        assert assert_ordering(screened, tangent, ch_s).verdict == "PASS"
        assert len(calls) == 1

    def test_potentials_evaluated_once_on_shared_grid(self, ch_s, monkeypatch):
        # the solves keep V on the grid; the identity checks read it back
        screened = ScreenedCoulomb.from_charge(40)
        tangent = tangent_at(screened, minimize_bound(screened, ch_s).t_star)
        grids = []
        real_build = comparison.build_grid

        def recording_build(*args):
            grids.append(real_build(*args))
            return grids[-1]

        monkeypatch.setattr(comparison, "build_grid", recording_build)
        on_grid = {ScreenedCoulomb: 0, ShiftedCoulomb: 0}
        for cls in on_grid:

            def counting(self, r, _cls=cls, _real=cls.evaluate):
                if grids and np.array_equal(r, grids[0].points):
                    on_grid[_cls] += 1
                return _real(self, r)

            monkeypatch.setattr(cls, "evaluate", counting)
        report = assert_ordering(screened, tangent, ch_s)
        assert report.verdict == "PASS"
        assert len(grids) == 1
        assert on_grid == {ScreenedCoulomb: 1, ShiftedCoulomb: 1}

    def test_channel_mismatch_rejected(self, shared_pair, ch_p):
        _, _, sol_a, _ = shared_pair
        other = solve_eigenvalue(
            PureCoulomb(0.3), ch_p, bracket_hint=predicted_bracket(PureCoulomb(0.3), ch_p)
        )
        with pytest.raises(ValueError, match="channel mismatch"):
            identity_residual(sol_a, other)


# --------------------------------------------------------------------------
# hypothesis guards


class TestHypothesisGuards:
    def test_wrong_order_rejected(self, z20_optimal_pair, ch_s):
        screened, tangent, _ = z20_optimal_pair
        with pytest.raises(HypothesisViolationError, match="swap the pair"):
            assert_ordering(tangent, screened, ch_s)

    def test_crossing_pair_rejected(self, ch_s):
        # 0.001 - 0.5/r and -0.49/r cross at r = 100
        with pytest.raises(HypothesisViolationError, match="cross"):
            assert_ordering(
                ShiftedCoulomb(shift=1e-3, coupling=0.5),
                ShiftedCoulomb(shift=0.0, coupling=0.49),
                ch_s,
            )

    def test_identical_potentials_rejected(self, screened_z20, ch_s):
        with pytest.raises(HypothesisViolationError, match="strict gap"):
            assert_ordering(screened_z20, screened_z20, ch_s)

    def test_noded_channel_rejected_by_default(self, ch_s):
        ch2 = Channel(tau=-1, two_j=1, n=2)
        with pytest.raises(HypothesisViolationError, match="noded"):
            assert_ordering(PureCoulomb(0.6), PureCoulomb(0.55), ch2)


# --------------------------------------------------------------------------
# predicted brackets


class TestPredictedBracket:
    def test_pure_coulomb(self, ch_s):
        lo, hi = predicted_bracket(PureCoulomb(0.6), ch_s)
        assert lo < 0.8 < hi
        assert hi - lo == pytest.approx(2e-5)

    def test_shifted_and_tangent(self, z20_optimal_pair, ch_s):
        _, tangent, _ = z20_optimal_pair
        expected = tangent.shift + coulomb_eigenvalue(tangent.coupling, ch_s)
        lo, hi = predicted_bracket(tangent, ch_s)
        assert lo < expected < hi
        shifted = ShiftedCoulomb(shift=tangent.shift, coupling=tangent.coupling)
        lo, hi = predicted_bracket(shifted, ch_s)
        assert lo < expected < hi

    def test_screened_uses_rigorous_bracket(self, screened_z20, z20_ground, ch_s):
        lo, hi = predicted_bracket(screened_z20, ch_s)
        assert lo < z20_ground.E < hi

    def test_no_bracket_for_excited_screened_states(self, screened_z20):
        assert predicted_bracket(screened_z20, Channel(tau=-1, two_j=1, n=2)) is None


# --------------------------------------------------------------------------
# random pair generator


class TestRandomPairs:
    def test_deterministic_given_seed(self):
        a = random_screened_tangent_pair(np.random.default_rng(7))
        b = random_screened_tangent_pair(np.random.default_rng(7))
        assert a[0] == b[0]
        assert a[1] == b[1]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_pairs_are_ordered_by_construction(self, seed):
        pot, tangent = random_screened_tangent_pair(np.random.default_rng(seed))
        assert isinstance(pot, ScreenedCoulomb)
        assert isinstance(tangent, ShiftedCoulomb)
        assert tangent.parent == pot
        assert 20 <= pot.Z <= 80
        assert 0.3 <= tangent.contact_radius <= 30.0
        r = np.geomspace(1e-6, 1e4, 400)
        assert np.all(tangent.evaluate(r) - pot.evaluate(r) >= -1e-16)
        assert np.all(ordering_gap(pot, tangent.contact_radius, r) >= 0.0)

    def test_charge_range_is_respected(self):
        rng = np.random.default_rng(123)
        zs = {random_screened_tangent_pair(rng, 30, 40)[0].Z for _ in range(60)}
        assert zs <= set(range(30, 41))
        assert len(zs) > 5


class TestIdentityCheckShape:
    def test_to_dict_keys(self, ch_s):
        report = assert_ordering(PureCoulomb(0.6), PureCoulomb(0.58), ch_s)
        d = report.to_dict()
        assert set(d) == {
            "channel",
            "potential_a",
            "potential_b",
            "E_a",
            "E_b",
            "identity_lhs",
            "identity_rhs",
            "identity_residual",
            "identity_relative_residual",
            "derivative_residual",
            "min_potential_gap",
            "max_potential_gap",
            "nodes_a",
            "nodes_b",
            "hypothesis_ok",
            "ordered",
            "verdict",
        }
        assert d["channel"] == "1s_1/2"
        assert d["verdict"] == "PASS"
        assert isinstance(d["nodes_a"], list)
        assert isinstance(report.identity, IdentityCheck)
