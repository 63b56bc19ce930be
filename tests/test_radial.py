"""Shooting-solver tests against the closed-form Coulomb spectrum.

The pure and shifted Coulomb potentials have exactly known discrete
spectra, so every structural claim of the solver (eigenvalue accuracy,
node counts, component ratios, normalization) can be checked against
analytic oracles rather than against itself.
"""

from __future__ import annotations

import gc
import logging
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from diracbound import radial
from diracbound.channels import DEFAULT_CONSTANTS, Channel, parse_state_label
from diracbound.coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from diracbound.errors import ConvergenceError, NoBoundStateError
from diracbound.potentials import PureCoulomb, ScreenedCoulomb, ShiftedCoulomb
from diracbound.radial import (
    RadialGrid,
    build_grid,
    count_nodes,
    grid_derivative,
    grid_integral,
    integrate_radial,
    matching_mismatch,
    normalize,
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
        # both ends exact, and one section: uniform in xi = a ln r + r/rho,
        # rho = 3.125/kappa (tail step 0.025/(kappa scale) over xi step 0.008/scale)
        assert pts[0] == 1e-6 and pts[-1] == 35.0 / kappa
        xi = radial.GRID_LOG_WEIGHT * np.log(pts) + pts * kappa / 3.125
        dxi = np.diff(xi)
        assert np.max(np.abs(dxi - dxi.mean())) < 1e-12 * np.max(np.abs(xi))

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @example(1e-3)
    @example(1.0)
    @settings(max_examples=30)
    def test_point_count_range(self, kappa):
        # the count falls as kappa_ref grows: the 1e-3 grid is the longest,
        # and kappa_ref = 1 at the scale floor the sparsest (1244 points),
        # still above the 1000 points the quadratures need
        assert build_grid(kappa, 1.0).count <= 4000
        assert build_grid(kappa, 0.5).count >= 1000

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

    def test_grids_are_shared_and_read_only(self):
        # a grid depends only on (kappa_ref, scale): each solve at the default
        # kappa_ref takes the one kept, which no caller may write
        grid = build_grid(0.05)
        assert build_grid(0.05) is grid
        for kept in (grid.points, grid.xi_map[1]):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 2e-6

    def test_reference_rate(self):
        # two grids for every solve: the first (kappa_ref = 0.05, r_max = 700),
        # or the longest when the slower decay rate at the hint's ends lies
        # below 30/700, where the first grid's tail rule refuses a level
        pot = ShiftedCoulomb(shift=0.1, coupling=0.5)
        assert reference_rate(pot, None) == 0.05
        # w = E - V(inf) = 0.6 decays at 0.8, and w = 0 at 1
        assert reference_rate(pot, (0.0, 0.7)) == 0.05
        assert reference_rate(pot, (0.1, 0.1)) == 0.05
        # a hint end near the window's top or bottom
        assert reference_rate(pot, (0.5, 1.1)) == radial.LONGEST_KAPPA_REF
        assert reference_rate(pot, (-0.8999, 0.5)) == radial.LONGEST_KAPPA_REF
        # above V(inf), the longest exactly when the hint's top passes the first
        # grid's search top E_30, where r_max kappa = 30 (see solve_eigenvalue)
        grid = build_grid(0.05)
        e_30 = 0.1 + math.sqrt(1.0 - (30.0 / grid.r_max) ** 2)
        for top in (e_30 - 1e-9, e_30 - 1e-12, e_30 + 1e-12, e_30 + 1e-9):
            expected = grid.kappa_ref if top < e_30 else radial.LONGEST_KAPPA_REF
            assert reference_rate(pot, (0.5, top)) == expected


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

# a workspace of -0.5/r, whose V(inf) = 0 makes E the tail's w = E - V(inf)
_COULOMB_WS = radial._ShootingWorkspace(PureCoulomb(0.5), Channel(-1, 1), build_grid(1.0))


def _tail_angle(w):
    """Angle atan2(psi2, psi1) of the inward sweep's decaying-tail seed at w."""
    y1, y2 = _COULOMB_WS._seed_in(w)
    return math.atan2(y2, y1)


class TestTailAngle:
    def test_zero_energy_value(self):
        assert _tail_angle(0.0) == pytest.approx(-math.pi / 4.0)

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_range(self, w):
        a = _tail_angle(w)
        assert -math.pi / 2.0 < a < 0.0

    @given(
        st.floats(min_value=-0.99, max_value=0.98),
        st.floats(min_value=1e-3, max_value=0.01),
    )
    def test_monotone_in_w(self, w, dw):
        if w + dw >= 1.0:
            return
        assert _tail_angle(w + dw) > _tail_angle(w)


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

    def test_sign_changes_count_at_any_amplitude(self):
        # no amplitude floor: a sign change far below the peak is still one
        assert count_nodes([1.0, -1e-12, 1.0]) == 2
        assert count_nodes([1.0, -1e-9, 1.0]) == 2

    def test_small_samples_dropped_before_pairing(self):
        # a small sample between two signs takes one side; an exact zero
        # (an underflowed sample) is dropped, so neither masks the flip
        assert count_nodes([1.0, 1e-12, -1.0]) == 1
        assert count_nodes([1.0, 0.0, -1.0]) == 1

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
NODED_LABELS = ["2s_1/2", "2p_1/2", "3s_1/2", "3p_3/2", "3d_3/2"]
# with the acceptance oracle's other six combinations, its worst 2s_1/2 at u = 0.58 among them
BAR_CASES = ORACLE_CASES + [
    (Channel(tau=-1, two_j=3, n=1), 0.58),
    (Channel(tau=-1, two_j=1, n=2), 0.58),
    (Channel(tau=+1, two_j=1, n=1), 0.1),
    (Channel(tau=+1, two_j=1, n=1), 0.58),
    (Channel(tau=+1, two_j=3, n=1), 0.3),
    (Channel(tau=-1, two_j=3, n=2), 0.3),
] + [(parse_state_label(label), u) for u in (0.2, 0.5) for label in NODED_LABELS]
# mc^2: the accuracy the default grid scale is chosen by, 5e-10 keV
BAR_TARGET = 1e-12


def residual_bar(sol, gap: float) -> float:
    """An error bar on sol.E from the residual of its normalized psi, gap the
    distance to the rest of the spectrum (Kato-Temple: T. Kato, J. Phys. Soc.
    Japan 4 (1949) 334).  (H - E) psi = (-r2, r1), r1 = psi1' + (tau k/r) psi1
    - (1 + E - V) psi2 and r2 = psi2' - (tau k/r) psi2 - (1 + V - E) psi1, so
    the Rayleigh quotient rho has rho - E = <psi, (H - E) psi>, and with eps^2
    = ||(H - E) psi||^2 - (rho - E)^2 the level lies within |rho - E| +
    eps^2/gap of E, to which four ulps of 1 are added for round-off.  psi' is
    the sixth-order central difference in xi times dxi/dr; the residual is
    taken as 0 on the three points at either end, where psi is negligible."""
    grid, E, V, p1, p2 = sol.grid, sol.E, sol.V, sol.psi1, sol.psi2
    h, dxi = grid.xi_map
    tk_r = sol.ch.tau * sol.ch.k / grid.points

    def derivative(y):
        d = np.zeros_like(y)
        d[3:-3] = (-y[:-6] + 9.0 * y[1:-5] - 45.0 * y[2:-4] + 45.0 * y[4:-2]
                   - 9.0 * y[5:-1] + y[6:]) / (60.0 * h)
        return d * dxi

    r1 = derivative(p1) + tk_r * p1 - (1.0 + E - V) * p2
    r2 = derivative(p2) - tk_r * p2 - (1.0 + V - E) * p1
    r1[:3] = r1[-3:] = r2[:3] = r2[-3:] = 0.0
    rho_e = grid_integral(p2 * r1 - p1 * r2, grid)
    eps2 = grid_integral(r1 * r1 + r2 * r2, grid) - rho_e**2
    return abs(rho_e) + eps2 / gap + 4.0 * math.ulp(1.0)


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
    @pytest.mark.parametrize("label", NODED_LABELS)
    def test_states_with_nodes_at_round_off(self, label, u):
        ch = parse_state_label(label)
        sol = solve_eigenvalue(PureCoulomb(u), ch)
        assert abs(sol.E - coulomb_eigenvalue(u, ch)) < 2e-15

    @pytest.mark.parametrize("ch,u", BAR_CASES, ids=[f"{c}-u{u}" for c, u in BAR_CASES])
    def test_error_within_residual_bar(self, ch, u):
        # on the default grid: measured bars run from 8.9e-16 (nodeless, the
        # round-off term) to 4.2e-13 (3s_1/2 at u = 0.5, error 1.44e-15; 2s_1/2
        # at 0.58 reads 3.7e-13, error 3.44e-15); the worst is 7.6e-14 at scale
        # 1, 6.4e-13 at 0.7 and 1.6e-12 at 0.6.  The gap is the distance to the
        # neighbouring closed-form levels, the negative continuum below n = 1
        exact = coulomb_eigenvalue(u, ch)
        below = coulomb_eigenvalue(u, Channel(ch.tau, ch.two_j, ch.n - 1)) if ch.n > 1 else -1.0
        above = coulomb_eigenvalue(u, Channel(ch.tau, ch.two_j, ch.n + 1))
        sol = solve_eigenvalue(PureCoulomb(u), ch)
        assert sol.grid.scale == radial.DEFAULT_GRID_SCALE
        bar = residual_bar(sol, min(exact - below, above - exact))
        assert abs(sol.E - exact) <= bar <= BAR_TARGET

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

    @pytest.mark.parametrize("u", [0.1, 0.3, 0.58, 0.8, 0.9, 0.95, 0.98, 0.99])
    @pytest.mark.parametrize("label", ["1s_1/2", "2p_3/2", "3d_5/2"])
    @pytest.mark.parametrize("shift", [0.0, 0.003])
    def test_hinted_solves_at_round_off(self, shift, label, u):
        # a hint of the level +- 1e-5 picks the first grid, or the longest
        # where it decays slower than 30/700 (3d_5/2 at u = 0.1): either lands
        # on the closed form to the oracle's round-off for states with nodes
        ch = parse_state_label(label)
        exact = shift + coulomb_eigenvalue(u, ch)
        pot = ShiftedCoulomb(shift=shift, coupling=u)
        sol = solve_eigenvalue(pot, ch, bracket_hint=(exact - 1e-5, exact + 1e-5))
        assert abs(sol.E - exact) <= 2e-15

    def test_wrong_hint_is_discarded(self, ch_s):
        # (0.93, 0.97) does not contain E = 0.8; the solver must fall back
        # to the full-window search and still land on the right state
        sol = solve_eigenvalue(PureCoulomb(0.6), ch_s, bracket_hint=(0.93, 0.97))
        assert sol.E == pytest.approx(0.8, abs=1e-8)


# --------------------------------------------------------------------------
# search: phase-isolated bracket, Brent hand-off, the end taken and the records


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


@pytest.fixture
def passes(monkeypatch):
    """Energies of the passes made (see _ShootingWorkspace.sweep)."""
    energies = []
    sweep = radial._ShootingWorkspace.sweep

    def recorded(self, E, i, end=None):
        energies.append(E)
        return sweep(self, E, i, end)

    monkeypatch.setattr(radial._ShootingWorkspace, "sweep", recorded)
    return energies


class TestSearch:
    def test_hinted_table_solve_sweep_budget(self, sweep_calls, passes):
        # the envelope hint already holds exactly the target state: three
        # verifying counts, whose sweeps also give Brent its bracket-end
        # Wronskians, then Brent, whose probes keep the eigenfunction's
        # states; no pass sweeps an energy twice
        numeric = compute_state_pair(40, "1s_1/2")[1]
        assert not numeric.failed
        assert len(sweep_calls["count"]) <= 3
        # the eigenfunction takes the states of Brent's probe at its root
        assert len(passes) <= 7
        assert len(set(passes)) == len(passes)

    def test_count_keeps_its_wronskian_per_energy(self, ch_s, passes):
        # a count at E keeps the Wronskian of its sweeps met at E's match
        # index, which serves a Wronskian at E without a pass; a sweep at
        # another split makes a pass of its own and keeps nothing
        pot, grid, E = PureCoulomb(0.5), build_grid(0.5), 0.9
        ws = radial._ShootingWorkspace(pot, ch_s, grid)
        i, j = ws.match_index(E), ws.n_int // 2
        ws.count(E)
        assert list(ws.probes) == [E] and ws.probes[E][0] == i
        fresh = radial._ShootingWorkspace(pot, ch_s, grid)
        expected = fresh.sweep(E, i)[1], fresh.sweep(E, j)[1]
        passes.clear()
        assert ws.wronskian(E) == expected[0] and passes == []
        assert ws.sweep(E, j)[1] == expected[1] != expected[0] and len(passes) == 1
        assert list(ws.probes) == [E]

    @pytest.mark.parametrize(
        "pot, label",
        [
            (ScreenedCoulomb.from_charge(80), "1s_1/2"),
            (PureCoulomb(0.5), "2p_3/2"),
            (ShiftedCoulomb(shift=0.3, coupling=0.9), "3d_5/2"),
            (PureCoulomb(0.99), "1s_1/2"),
        ],
        ids=["Z=80-1s_1/2", "u=0.5-2p_3/2", "A=0.3-u=0.9-3d_5/2", "u=0.99-1s_1/2"],
    )
    def test_wronskian_has_one_sign_at_every_join(self, pot, label):
        # det M_i = 1 and every scale is positive, so the scaled Wronskian of
        # the sweeps at E has the same sign wherever they meet: every pass
        # may join at its own energy's match index, and Brent still sees one
        # sign-correct function of E.  Energies across the window, each at
        # least 1e-7 from a level (the count is the same on both sides)
        ch = parse_state_label(label)
        ws = radial._ShootingWorkspace(pot, ch, build_grid(0.05))
        splits = [*range(0, ws.n_int, ws.n_int // 30), ws.n_int]
        for w in np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 21):
            E = pot.value_at_infinity + w
            assert ws.count(E - 1e-7) == ws.count(E + 1e-7)
            signs = {math.copysign(1.0, ws.sweep(E, i)[1]) for i in splits}
            assert signs == {math.copysign(1.0, ws.wronskian(E))}

    @pytest.mark.parametrize(
        "pot", [PureCoulomb(0.4), ScreenedCoulomb.from_charge(40)], ids=["u=0.4", "Z=40"]
    )
    def test_unhinted_solve_sweeps_no_energy_twice(self, ch_s, pot, passes):
        # every count, Wronskian and the eigenfunction at one energy join at
        # its match index, so the counts at the isolating bracket's ends
        # serve Brent and its root serves the eigenfunction
        solve_eigenvalue(pot, ch_s)
        assert len(set(passes)) == len(passes)

    def test_unhinted_sweep_budget(self, ch_s, sweep_calls):
        # bisection stops once the bracket isolates the state, not at a fixed
        # width, and splits it in ln(1 - E): counts at the window's ends and one
        # between them isolate the level at E = 0.9165 (7 counts splitting in E)
        sol = solve_eigenvalue(PureCoulomb(0.4), ch_s)
        assert abs(sol.E - coulomb_eigenvalue(0.4, ch_s)) < 1e-10
        assert len(sweep_calls["count"]) <= 3

    def test_weak_rebuilding_solve_pass_budget(self, ch_s, passes):
        # kappa = 0.02 lies below 30/r_max on the first grid, which is searched
        # only up to where r_max kappa = 30: two counts find no state there and
        # the longest grid is searched at once (30 passes when the first grid
        # ran a whole Brent search before its tail rule refused the level)
        sol = solve_eigenvalue(PureCoulomb(0.02), ch_s)
        assert abs(sol.E - coulomb_eigenvalue(0.02, ch_s)) < 1e-12
        assert len(passes) <= 15

    @pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
    def test_end_on_the_root_is_taken(self, ch_s, monkeypatch, caplog, end):
        # an isolating bracket has one sign change of W, so only round-off at an
        # end lying on the root can give both ends one sign: W is altered there only
        brackets = []
        bisect_count = radial._ShootingWorkspace.bisect_count
        wronskian = radial._wronskian

        def recorded(self, *args):
            brackets.append(bisect_count(self, *args))
            return brackets[-1]

        def on_the_root(E, ws):
            if E == brackets[-1][end]:
                return math.copysign(1e-17, wronskian(brackets[-1][1 - end], ws))
            return wronskian(E, ws)

        monkeypatch.setattr(radial._ShootingWorkspace, "bisect_count", recorded)
        monkeypatch.setattr(radial, "_wronskian", on_the_root)
        exact = coulomb_eigenvalue(0.5, ch_s)
        hint = (exact - 1e-4, exact + 3e-4)
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            sol = solve_eigenvalue(PureCoulomb(0.5), ch_s, bracket_hint=hint)
        assert any("keeps one sign" in r.getMessage() for r in caplog.records)
        # the end taken gets the same shooting correction, kept in the bracket
        lo, hi = brackets[-1]
        assert lo <= sol.E <= hi
        assert abs(sol.E - exact) < abs(brackets[-1][end] - exact)

    def test_brent_error_is_reraised_when_ends_differ_in_sign(self, ch_s, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise ValueError("brentq failed")

        monkeypatch.setattr(radial, "brentq", failing)
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            with pytest.raises(ValueError, match="brentq failed"):
                solve_eigenvalue(PureCoulomb(0.5), ch_s)
        assert not any("keeps one sign" in r.getMessage() for r in caplog.records)

    def test_bisection_stops_on_adjacent_floats(self, ch_s, monkeypatch):
        # counts 3 and 0 at the ends do not isolate level 2, but no float lies
        # strictly between lo and its successor: the bracket comes back whole,
        # with no count made
        ws = radial._ShootingWorkspace(PureCoulomb(0.5), ch_s, build_grid(0.5))

        def no_count(E):
            pytest.fail(f"a count at {E!r}")

        monkeypatch.setattr(ws, "count", no_count)
        lo = 0.5
        hi = math.nextafter(lo, 1.0)
        assert ws.bisect_count(2, lo, hi, 3, 0) == (lo, hi)

    @pytest.mark.parametrize(
        "pot",
        [PureCoulomb(0.5), PureCoulomb(0.3), ScreenedCoulomb.from_charge(40)],
        ids=["u=0.5", "u=0.3", "Z=40"],
    )
    def test_hint_end_near_the_root_keeps_the_root(self, ch_s, pot):
        # hints with one end within 3 ulps of the root, on either side: the
        # counts reject those that miss the state, and no end taken or kept
        # moves the answer by more than round-off
        root = solve_eigenvalue(pot, ch_s).E
        ulp = math.ulp(root)
        for k in range(-3, 4):
            e = root + k * ulp
            for hint in ((e, root + 1e-4), (root - 1e-4, e)):
                E = solve_eigenvalue(pot, ch_s, bracket_hint=hint).E
                assert abs(E - root) <= 4 * ulp, (hint, E - root)

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

    def test_rejected_hint_is_logged_once_across_rebuilds(self, caplog):
        # the hint misses the 3s_1/2 level (about 0.999994); the first grid
        # holds fewer than three states, and the one rebuild searches the whole
        # window
        ch = parse_state_label("3s_1/2")
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            sol = solve_eigenvalue(PureCoulomb(0.01), ch, bracket_hint=(0.5, 0.6))
        messages = [r.getMessage() for r in caplog.records]
        assert sum("rejected" in m for m in messages) == 1
        assert sum("rebuilding with kappa_ref" in m for m in messages) == 1
        assert abs(sol.E - coulomb_eigenvalue(0.01, ch)) < 1e-10

    def test_grid_rebuild_is_logged(self, ch_s, caplog):
        # kappa = u = 0.01 decays too slowly for the tail of the first grid
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            solve_eigenvalue(PureCoulomb(0.01), ch_s)
        rebuilds = [r for r in caplog.records if "rebuilding with kappa_ref" in r.getMessage()]
        assert rebuilds
        new_ref, old_ref = rebuilds[-1].args[-2:]
        assert new_ref < old_ref

    @pytest.mark.parametrize(
        "u, label", [(0.1, "2s_1/2"), (0.1, "1s_1/2"), (0.3, "3d_5/2")], ids=str
    )
    def test_unhinted_solve_builds_one_grid(self, caplog, u, label):
        # decay rates 0.05, 0.1 and 0.1: the default grid's tail holds each
        # state, so no search is repeated on a rebuilt grid
        ch = parse_state_label(label)
        with caplog.at_level(logging.DEBUG, logger="diracbound"):
            sol = solve_eigenvalue(PureCoulomb(u), ch)
        assert not [r for r in caplog.records if "rebuilding" in r.getMessage()]
        assert sol.grid.kappa_ref == reference_rate(sol.potential, None)
        assert abs(sol.E - coulomb_eigenvalue(u, ch)) < 1e-12


# --------------------------------------------------------------------------
# tail cut: a pass ends TAIL_CUT decay lengths past its match point


# the acceptance oracle's 12 pure-Coulomb (tau, 2j, n, u), then a shifted potential
TAIL_CASES = [
    *((PureCoulomb(u), Channel(tau=tau, two_j=two_j, n=n)) for tau, two_j, n, u in (
        (-1, 1, 1, 0.1), (-1, 1, 1, 0.3), (-1, 1, 1, 0.58), (-1, 3, 1, 0.3),
        (-1, 3, 1, 0.58), (-1, 1, 2, 0.3), (-1, 1, 2, 0.58), (1, 1, 1, 0.1),
        (1, 1, 1, 0.3), (1, 1, 1, 0.58), (1, 3, 1, 0.3), (-1, 3, 2, 0.3),
    )),
    (ShiftedCoulomb(shift=0.3, coupling=0.5), parse_state_label("2s_1/2")),
]


def _full_pass(ws, E):
    """A workspace on ws's grid holding a pass at E over the whole grid, met at
    E's match index."""
    full = radial._ShootingWorkspace(ws.pot, ws.ch, ws.grid)
    full.probes[E] = full.sweep(E, full.match_index(E))
    return full


class TestTailCut:
    @pytest.mark.parametrize("pot, ch", TAIL_CASES, ids=[f"{p!r}-{c}" for p, c in TAIL_CASES])
    def test_cut_passes_count_and_sample_as_full_ones(self, pot, ch, monkeypatch):
        # every probe of an unhinted solve gives the Wronskian of a pass over
        # the whole grid to round-off (3.3e-16 measured), so the same phase
        # count and sign but where round-off decides them, at Brent's last
        # probes; the eigenfunction completes a cut pass's psi on the whole
        # grid (1.7e-13 of the peak measured)
        made, solved = [], []
        sweep, eigenfunction = radial._ShootingWorkspace.sweep, radial._ShootingWorkspace.eigenfunction

        def recorded(self, E, i, end=None):
            made.append((self, E, end))
            return sweep(self, E, i, end)

        def kept(self, E):
            solved.append((self, E))
            return eigenfunction(self, E)

        monkeypatch.setattr(radial._ShootingWorkspace, "sweep", recorded)
        monkeypatch.setattr(radial._ShootingWorkspace, "eigenfunction", kept)
        solve_eigenvalue(pot, ch)
        monkeypatch.undo()
        assert any(end < ws.n_int for ws, _, end in made)
        at_round_off = 0
        for ws, E, _ in made:
            full = _full_pass(ws, E)
            w, w_full = ws.wronskian(E), full.wronskian(E)
            assert abs(w - w_full) <= 1e-15
            if abs(w_full) <= 1e-15:
                at_round_off += 1
                continue
            assert ws.count(E) == full.count(E) and np.sign(w) == np.sign(w_full)
        assert at_round_off <= 2
        [(ws, E)] = solved
        psi, ref = (np.array(w.eigenfunction(E)[1:3]) for w in (ws, _full_pass(ws, E)))
        assert psi.shape == ref.shape == (2, ws.n_int + 1)
        assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(np.abs(ref))
        # past the pass's end e, psi is the whole pass's tail up to its scale:
        # the seed at r_e, off the decaying solution by up to 1% (not for the
        # nodeless states, whose psi2/psi1 is constant), sets the join
        e = ws.probes[E][3].size
        if e < ws.n_int:
            shape = psi[:, e + 1 :] / psi[0, e + 1] - ref[:, e + 1 :] / ref[0, e + 1]
            assert np.max(np.abs(shape)) <= 1e-12

    def test_window_counts_span_the_grid_and_hinted_passes_are_cut(self, monkeypatch):
        # a pass is cut only TAIL_CUT decay lengths past its match point: an
        # unhinted solve's counts at the window bottom and at the search top
        # are not; the hinted Z = 40 1s_1/2 table solve runs on the same first
        # grid, its count at the window bottom spans it too, and every other
        # pass, at the hint's ends and Brent's, ends where that rule puts it
        made = []
        sweep = radial._ShootingWorkspace.sweep

        def recorded(self, E, i, end=None):
            made.append((self, E, i, end))
            return sweep(self, E, i, end)

        monkeypatch.setattr(radial._ShootingWorkspace, "sweep", recorded)
        solve_eigenvalue(ScreenedCoulomb.from_charge(40), parse_state_label("1s_1/2"))
        spans = [end == ws.n_int for ws, _, _, end in made]
        assert spans[:2] == [True, True] and not all(spans)
        first = made[0][0].grid
        made.clear()
        compute_state_pair(40, "1s_1/2")
        (bottom, _, _, end), *rest = made
        assert bottom.grid is first and end == bottom.n_int and rest
        for ws, E, i, end in rest:
            r, reach = ws.grid.points, radial.TAIL_CUT / radial._decay_rate(E - ws.v_inf)
            assert ws.grid is first and i + 8 < end < ws.n_int
            assert r[end - 1] < r[i] + reach <= r[end]

    def test_steps_write_no_interval_twice(self, ch_s, passes, monkeypatch):
        # a cut pass writes the steps up to its end only, and the eigenfunction
        # writes only the intervals its pass left, so an unhinted solve writes
        # no interval twice at one energy and fewer than a whole grid per pass
        written = []
        steps = radial._steps

        def recorded(table, E, band):
            start = 0 if table.base is None else (table.ctypes.data - table.base.ctypes.data) // 8
            written.extend((E, j) for j in range(start, start + table.shape[-1]))
            return steps(table, E, band)

        monkeypatch.setattr(radial, "_steps", recorded)
        sol = solve_eigenvalue(ScreenedCoulomb.from_charge(40), ch_s)
        assert len(set(written)) == len(written)
        assert len(written) < len(passes) * (sol.grid.count - 1)


# --------------------------------------------------------------------------
# solved-state structure (exact Coulomb ground state has constant psi2/psi1)


@pytest.fixture(scope="module")
def coulomb_half(ch_s):
    return solve_eigenvalue(PureCoulomb(0.5), ch_s)


# 13 channels, nodeless and noded, up to l = 5
NODE_LABELS = (
    "1s_1/2", "2s_1/2", "3s_1/2", "4s_1/2", "2p_1/2", "3p_1/2", "2p_3/2",
    "3p_3/2", "3d_3/2", "3d_5/2", "4f_7/2", "5g_9/2", "6h_11/2",
)


class TestSolutionStructure:
    def test_unit_norm(self, coulomb_half):
        quad = grid_integral(coulomb_half.psi1**2 + coulomb_half.psi2**2, coulomb_half.grid)
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

    def test_carries_potential_on_grid(self, coulomb_half):
        r = coulomb_half.grid.points
        assert np.array_equal(coulomb_half.V, coulomb_half.potential.evaluate(r))

    def test_excited_state_node_counts(self):
        # second s_1/2 state: one interior node in each component
        sol = solve_eigenvalue(PureCoulomb(0.5), Channel(tau=-1, two_j=1, n=2))
        assert (sol.nodes1, sol.nodes2) == (1, 1)

    @pytest.mark.parametrize(
        "pot",
        [
            ScreenedCoulomb.from_charge(1),
            ScreenedCoulomb.from_charge(136),
            PureCoulomb(0.05),
            PureCoulomb(0.95),
        ],
        ids=["Z1", "Z136", "u0.05", "u0.95"],
    )
    def test_node_counts_match_the_unwrapped_angle(self, pot):
        # an independent reference for count_nodes: psi1 vanishes where theta =
        # atan2(psi2, psi1) passes pi/2 mod pi, psi2 where it passes 0 mod pi.
        # A component underflowed to 0 in the tail puts theta on such a line
        # with no sign change, so those samples are skipped
        for label in NODE_LABELS:
            sol = solve_eigenvalue(pot, parse_state_label(label))
            keep = (sol.psi1 != 0.0) & (sol.psi2 != 0.0)
            theta = np.unwrap(np.arctan2(sol.psi2[keep], sol.psi1[keep]))
            # index of the psi1 and the psi2 zero line last passed, per sample
            lines = np.floor((theta - [[0.5 * math.pi], [0.0]]) / math.pi)
            assert (sol.nodes1, sol.nodes2) == tuple(np.abs(np.diff(lines)).sum(axis=1)), label

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


def _sweep_samples(ws, E, direction):
    """Samples in grid order of the outward sweep over the whole grid, or of
    the inward one (met at n_int or 0; see _samples)."""
    i = ws.n_int if direction == "outward" else 0
    _, _, Y, x = ws.sweep(E, i)
    return radial._samples(Y, x, i)[direction == "inward"]


class TestSweeps:
    def test_outward_fills_prefix(self, ch_s):
        grid = build_grid(0.5)
        psi1, psi2 = integrate_radial(PureCoulomb(0.5), ch_s, 0.8, grid)
        assert psi1.shape == psi2.shape == (grid.count,)
        assert np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))

    def test_inward_seed_ratio(self, ch_s):
        # the inward sweep starts from the decaying-tail direction
        pot = PureCoulomb(0.5)
        ws = radial._ShootingWorkspace(pot, ch_s, build_grid(0.5))
        E = 0.8
        psi1, psi2 = _sweep_samples(ws, E, "inward")
        w = E - pot.value_at_infinity
        expected = -math.sqrt((1.0 - w) / (1.0 + w))
        assert psi2[-1] / psi1[-1] == pytest.approx(expected, rel=1e-12)

    def test_outward_phase_accumulates(self, ch_s):
        ws = radial._ShootingWorkspace(PureCoulomb(0.5), ch_s, build_grid(0.5))
        # the phase count drops as E grows (levels in between), at every split
        assert ws.count(0.999) < ws.count(0.2)
        for i in (0, ws.n_int // 2, ws.n_int):
            assert _count_at(ws, 0.999, i) < _count_at(ws, 0.2, i)

    @pytest.mark.parametrize("direction", ["outward", "inward"])
    def test_rescaled_samples_stay_continuous(self, ch_s, direction):
        # off an eigenvalue a 35000-unit tail rescales the sweep many times;
        # stored samples are rescaled with it, so the far side underflows to
        # exact zeros and no rescale seam shows as a jump between neighbours:
        # no jump exceeds the tail's own change over its longest step,
        # e^(kappa dr), by more than a decade
        grid = build_grid(1e-3)
        ws = radial._ShootingWorkspace(PureCoulomb(0.5), ch_s, grid)
        step = radial._decay_rate(0.5) * np.max(np.diff(grid.points)) / math.log(10.0)
        for y in _sweep_samples(ws, 0.5, direction):
            assert np.all(np.isfinite(y))
            assert np.any(y == 0.0)
            decades = np.log10(np.abs(y[y != 0.0]))
            assert np.max(np.abs(np.diff(decades))) <= step + 1.0

    @pytest.mark.parametrize("E", [1.5, -1.0])
    @pytest.mark.parametrize("helper", [integrate_radial, matching_mismatch],
                             ids=["integrate_radial", "matching_mismatch"])
    def test_energy_window_validated(self, ch_s, helper, E):
        # every pass checks the window, before the tail seed's square root
        # (E = 1.5) or its division by 1 + w (E = -1)
        with pytest.raises(ValueError, match="outside the bound-state window"):
            helper(PureCoulomb(0.5), ch_s, E, build_grid(0.05))

    def test_mismatch_vanishes_at_eigenvalue(self, ch_s):
        pot = PureCoulomb(0.5)
        grid = build_grid(0.5)
        exact = math.sqrt(3.0) / 2.0
        at_exact = matching_mismatch(pot, ch_s, exact, grid)
        off = matching_mismatch(pot, ch_s, exact + 1e-3, grid)
        assert abs(at_exact) < 1e-8
        assert abs(off) > 10.0 * abs(at_exact)

    def test_empty_side_of_sweep_is_its_seed(self, ch_s):
        # met at an end of the grid, one sweep takes no step and its one
        # sample is its seed: the Wronskian pairs it with the other full sweep
        ws = radial._ShootingWorkspace(PureCoulomb(0.5), ch_s, build_grid(0.5))
        E = 0.9
        for i in (ws.n_int, 0):
            _, w, Y, x = ws.sweep(E, i)
            out, inw = radial._samples(Y, x, i)
            # the (outward, inward) end states at the join
            o, n = (out[:, -1], ws._seed_in(E)) if i else (ws._seed_out(E), inw[:, 0])
            empty, seed = (inw, n) if i else (out, o)
            assert empty.shape == (2, 1)
            assert empty[1, 0] / empty[0, 0] == pytest.approx(seed[1] / seed[0], rel=1e-12)
            assert w == pytest.approx(radial._scaled_wronskian(*o, *n, E), rel=1e-10)

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
    """Sixth-order Magnus generator of the step r0 -> r1, from A(r) itself, by
    2x2 matrix products; for arrays r0, r1 of steps, a (n, 2, 2) stack of them.
    A = B(r) + [[0, 1 + E], [1 - E, 0]]: the differences of A at the nodes are
    those of B, taken before 1 +- E is added and rounds away digits of V."""
    h, tk = np.subtract(r1, r0), ch.tau * ch.k
    rs = r0 + np.multiply.outer(0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0, h)
    B1, B2, B3 = (
        np.moveaxis(np.array([[-tk / r, -v], [v, tk / r]]), (0, 1), (-2, -1))
        for r, v in zip(rs, pot.evaluate(rs))
    )
    h = h[..., None, None]
    a1 = h * (B2 + np.array([[0.0, 1.0 + E], [1.0 - E, 0.0]]))
    a2 = math.sqrt(15.0) * h / 3.0 * (B3 - B1)
    a3 = 10.0 * h / 3.0 * (B3 - 2.0 * B2 + B1)

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


def _adjugates(m):
    """Adjugates [[d, -b], [-c, a]] of a (2, 2, n) stack."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _band_steps(band):
    """The steps M_j a pass wrote into a band (see radial._steps), read back as
    its negated slots: a (2, 2, n) stack."""
    b = band[:-1]
    return -np.array([[b[:, 0, 2], b[:, 1, 1]], [b[:, 0, 3], b[:, 1, 2]]])


def _band(steps):
    """A band (see radial._trajectory) holding the steps of a (2, 2, n) stack."""
    band = np.zeros((steps.shape[-1] + 1, 2, 4))
    b = band[:-1]
    b[:, 0, 2], b[:, 0, 3] = -steps[0, 0], -steps[1, 0]
    b[:, 1, 1], b[:, 1, 2] = -steps[0, 1], -steps[1, 1]
    return band


def _sweeps(ws, E):
    """Full-grid outward and inward step stacks of a pass at E, each in sweep
    order, with their log-scales."""
    x = ws.sweep(E, ws.match_index(E))[3]
    m = _band_steps(ws.band)
    return (m, x), (_adjugates(m)[..., ::-1], x[::-1])


def _scan(steps, y0):
    """Every state from y0 over steps, a (2, 2, n) stack, by the plain loop: a
    (2, n + 1) array."""
    ys = [np.array(y0, dtype=float)]
    for j in range(steps.shape[-1]):
        ys.append(steps[..., j] @ ys[-1])
    return np.array(ys).T


def _table_solve_calls(monkeypatch, names):
    """Calls of the radial functions named made by the hinted Z = 40 1s_1/2
    table solve, counted apart outside the eigenfunction and inside it, the
    eigenfunction's own inward sweep past its pass's end e: ({name: calls
    outside}, {name: calls inside}, [(e, n_int) per eigenfunction], [(first,
    last + 1) of the intervals each _steps call inside it writes])."""
    outside, inside = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    ends, written, active = [], [], []
    for name in names:
        inner = getattr(radial, name)

        def counted(*args, _inner=inner, _name=name):
            (inside if active else outside)[_name] += 1
            if active and _name == "_steps":
                table = args[0]  # a view of the workspace's table from interval e on
                start = (table.ctypes.data - table.base.ctypes.data) // 8
                written.append((start, start + table.shape[-1]))
            return _inner(*args)

        monkeypatch.setattr(radial, name, counted)
    eigenfunction = radial._ShootingWorkspace.eigenfunction

    def tracked(self, E):
        ends.append((self._probe(E)[3].size, self.n_int))
        active.append(E)
        try:
            return eigenfunction(self, E)
        finally:
            active.pop()

    monkeypatch.setattr(radial._ShootingWorkspace, "eigenfunction", tracked)
    assert not compute_state_pair(40, "1s_1/2")[1].failed
    return outside, inside, ends, written


class TestPropagatorKernel:
    # the E^3 term of the generator weighs most at the window edges
    @pytest.mark.parametrize("E", [-1.0 + 1e-9, -0.5, 0.5, 0.9, 1.0 - 1e-9])
    def test_columns_match_expm_of_generator(self, z80_workspace, E):
        # each step is exp(Omega) scaled by e^(-x), x its log-scale
        ws = z80_workspace
        r = ws.grid.points
        for (m, x), ends in zip(_sweeps(ws, E), ((r[:-1], r[1:]), (r[:0:-1], r[-2::-1]))):
            m = m * np.exp(x)
            for i in range(0, ws.n_int, 97):
                exact = expm(_magnus_generator(ws.pot, ws.ch, ends[0][i], ends[1][i], E))
                for j in range(2):
                    scale = max(1.0, np.abs(exact[:, j]).max())
                    np.testing.assert_allclose(m[:, j, i], exact[:, j], rtol=0, atol=4e-15 * scale)

    @pytest.mark.parametrize("E", WINDOW_ENERGIES)
    def test_unit_determinant(self, z80_workspace, E):
        # tr A = 0, so each exact propagator has det 1 (Liouville); so does
        # the exponential of each traceless Magnus generator, up to round-off,
        # and a step scaled by e^(-x) has det e^(-2x)
        for m, x in _sweeps(z80_workspace, E):
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert np.max(np.abs(det * np.exp(2.0 * x) - 1.0)) < 4e-15

    @pytest.mark.parametrize("E", [-0.5, 0.5, 0.9])
    def test_inward_steps_are_adjugates_of_outward_ones(self, z80_workspace, E):
        # the symmetric Gauss nodes make the generator of each step back
        # exactly -Omega: compare with propagators built from the inward
        # generator itself, on the reversed intervals
        ws = z80_workspace
        r = ws.grid.points
        i = ws.match_index(E)
        _, _, Y, x = ws.sweep(E, i)
        full = _band_steps(ws.band)
        inw = _adjugates(full[..., i:])[..., ::-1]
        back = radial._stage_tables(ws.pot, ws.ch.tau * ws.ch.k, r[:0:-1], -np.diff(r)[::-1])
        band = np.zeros_like(ws.band)
        x_back = radial._steps(back, E, band)
        direct, x_back = _band_steps(band)[..., : ws.n_int - i], x_back[: ws.n_int - i]
        np.testing.assert_allclose(x_back, x[i:][::-1], rtol=1e-14, atol=1e-15)
        scale = np.maximum(1.0, np.abs(direct).max(axis=(0, 1)))
        assert np.max(np.abs(inw - direct) / scale) < 1e-15
        # M_in M_out = I for each interval, to round-off: e^(-2x) I once scaled
        prod = np.einsum("ijn,jkn->ikn", inw, full[..., i:][..., ::-1])
        eye = np.eye(2)[..., None] * np.exp(-2.0 * x[i:][::-1])
        assert np.max(np.abs(prod - eye) / scale**2) < 4e-15
        # and the pass takes them: its inward end state is their product
        seed = ws._seed_in(E)
        end = _scan(inw, seed)[:, -1]
        np.testing.assert_allclose(Y[:, i + 1], end / np.abs(seed).sum(), rtol=1e-12)

    @pytest.mark.parametrize("label", ["1s_1/2", "6h_11/2"])
    @pytest.mark.parametrize(
        "pot",
        [
            ScreenedCoulomb.from_charge(136),
            PureCoulomb(0.99),
            ShiftedCoulomb(shift=-0.5, coupling=0.99),
            ShiftedCoulomb(shift=0.5, coupling=0.99),
        ],
        ids=["Z=136", "u=0.99", "A=-0.5", "A=+0.5"],
    )
    def test_table_is_the_generator_as_a_cubic_in_E(self, pot, label):
        # Omega_i(E) = P0 + E P1 + E^2 P2 + E^3 P3 on the coarsest grid (the
        # largest steps), the default one and the finest, each outward and
        # reversed (negative steps, as the inward generator is built), from
        # E = -1.5 to 1.5 across the shifts and at the window edges, to a few
        # ulps of |Omega_i|
        ch = parse_state_label(label)
        for kappa_ref, scale in ((1e-3, 0.5), (0.05, 1.0), (1.0, 4.0)):
            r = build_grid(kappa_ref, scale).points
            for r0, r1 in ((r[:-1], r[1:]), (r[:0:-1], r[-2::-1])):
                p0, p1, p2, p3 = radial._stage_tables(pot, ch.tau * ch.k, r0, r1 - r0)
                for w in (-1.0 + 1e-9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0 - 1e-9):
                    E = pot.value_at_infinity + w
                    a, b, c = ((p3 * E + p2) * E + p1) * E + p0
                    exact = _magnus_generator(pot, ch, r0, r1, E)
                    ulp = np.finfo(float).eps * np.abs(exact).max(axis=(1, 2))
                    for got, want in ((a, exact[:, 0, 0]), (b, exact[:, 0, 1]), (c, exact[:, 1, 0])):
                        assert np.max(np.abs(got - want) / ulp) < 8.0

    def test_no_commutator_per_energy(self, ch_s, monkeypatch):
        # the generator's cubic is staged once per workspace, so a hinted solve
        # (about 7 passes) and an unhinted one (about 15) stage one table per
        # workspace: none in any pass
        calls = dict.fromkeys(["_stage_tables", "sweep", "__init__"], 0)
        ws_cls = radial._ShootingWorkspace
        for owner, name in ((radial, "_stage_tables"), (ws_cls, "sweep"), (ws_cls, "__init__")):
            inner = getattr(owner, name)

            def wrapped(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(owner, name, wrapped)

        def per_workspace(solve):
            calls.update(dict.fromkeys(calls, 0))
            solve()
            return calls["_stage_tables"] / calls["__init__"], calls["sweep"]

        staged_hinted, passes_hinted = per_workspace(lambda: compute_state_pair(40, "1s_1/2"))
        pot = ScreenedCoulomb.from_charge(40)
        staged_unhinted, passes_unhinted = per_workspace(lambda: solve_eigenvalue(pot, ch_s))
        assert passes_hinted <= 12 and passes_unhinted > passes_hinted
        assert staged_hinted == staged_unhinted == 1

    def test_one_propagator_pass_per_energy(self, monkeypatch):
        # every count and Wronskian not found in probes writes the steps into
        # the band once and solves both sweeps on it; the eigenfunction takes
        # the states Brent's probe at its root kept, and its own inward sweep
        # writes only the intervals past that pass's end e, once
        counts = []
        count = radial._ShootingWorkspace.count

        def counted(self, E):
            counts.append(E)
            return count(self, E)

        monkeypatch.setattr(radial._ShootingWorkspace, "count", counted)
        outside, inside, ends, written = _table_solve_calls(monkeypatch, ("_steps", "_trajectory"))
        assert len(counts) == 3
        assert outside["_steps"] == outside["_trajectory"] <= 7
        [(e, n_int)] = ends
        assert e < n_int and inside == {"_steps": 1, "_trajectory": 1}
        assert written == [(e, n_int)]

    def test_eigenfunction_reuses_the_probe(self, ch_s, monkeypatch):
        # a probed E gives, with no pass of its own, the same eigenfunction
        # as a fresh pass, joined at E's match index
        pot, grid, E = PureCoulomb(0.5), build_grid(0.5), 0.9
        ws = radial._ShootingWorkspace(pot, ch_s, grid)
        ws.wronskian(E)
        fresh = radial._ShootingWorkspace(pot, ch_s, grid).eigenfunction(E)
        def no_pass(*args):
            pytest.fail("a second pass")

        monkeypatch.setattr(radial._ShootingWorkspace, "sweep", no_pass)
        kept = ws.eigenfunction(E)
        for a, b in zip(kept, fresh):
            np.testing.assert_array_equal(a, b)
        assert kept[0] == ws.match_index(E) and list(ws.probes) == [E]

    @pytest.mark.parametrize("E", [-0.5, 0.5, 0.9])
    def test_end_value_matches_scan(self, z80_workspace, E):
        # the pass's end states, as the Wronskian uses them, against a plain
        # loop over the same steps from the same seeds
        ws = z80_workspace
        i_match = ws.match_index(E)
        seeds = ws._seed_out(E), ws._seed_in(E)
        _, _, Y, _ = ws.sweep(E, i_match)
        m = _band_steps(ws.band)
        sweeps = (m[..., :i_match], _adjugates(m[..., i_match:])[..., ::-1])
        for end, steps, seed in zip((Y[:, i_match], Y[:, i_match + 1]), sweeps, seeds):
            want = _scan(steps, seed)[:, -1]
            want /= np.abs(want).sum()
            np.testing.assert_allclose(end / np.abs(end).sum(), want, rtol=1e-12)

    @pytest.mark.parametrize("E", [-0.5, 0.5, 0.9])
    def test_every_state_matches_scan(self, z80_workspace, E):
        # every state of both sweeps, not only the ends, against the plain
        # loop over the same float steps: M_j outward from y_out, adj M_j
        # inward from y_in.  At n_int, the join integrate_radial takes, the
        # transposed system holds only the inward seed
        ws = z80_workspace
        seeds = ws._seed_out(E), ws._seed_in(E)
        for i in (0, ws.match_index(E), ws.n_int):
            _, _, Y, _ = ws.sweep(E, i)
            m = _band_steps(ws.band)
            out = _scan(m[..., :i], seeds[0])
            inw = _scan(_adjugates(m[..., i:])[..., ::-1], seeds[1])[:, ::-1]
            for got, want in ((Y[:, : i + 1], out), (Y[:, i + 1 :], inw)):
                assert got.shape == want.shape
                np.testing.assert_allclose(
                    got / np.abs(got).sum(axis=0), want / np.abs(want).sum(axis=0), rtol=1e-12
                )

    @pytest.mark.parametrize(
        "pot, label, kappa",
        [(ScreenedCoulomb.from_charge(40), "1s_1/2", None), (PureCoulomb(0.99), "2p_1/2", 1e-3)],
        ids=["Z=40-1s_1/2", "u=0.99-2p_1/2"],
    )
    def test_end_direction_matches_exact_product(self, pot, label, kappa):
        # against a 40-digit product of the same float steps from the same
        # seeds, at the level and 1e-3 off it, each sweep to the match index:
        # sequential products round once per step, so the direction errors
        # of n steps add up like a random walk, within 4 sqrt(n) ulps
        ch = parse_state_label(label)
        grid = None if kappa is None else build_grid(kappa)
        level = solve_eigenvalue(pot, ch, grid=grid)
        ws = radial._ShootingWorkspace(pot, ch, level.grid)
        with mpmath.workdps(40):
            for E in (level.E - 1e-3, level.E, level.E + 1e-3):
                i = ws.match_index(E)
                seeds = ws._seed_out(E), ws._seed_in(E)
                _, _, Y, _ = ws.sweep(E, i)
                m = _band_steps(ws.band)
                sweeps = (m[..., :i], _adjugates(m[..., i:])[..., ::-1])
                for end, steps, seed in zip((Y[:, i], Y[:, i + 1]), sweeps, seeds):
                    y = [mpmath.mpf(v) for v in seed]
                    for a, b, c, d in steps.reshape(4, -1).T.tolist():
                        y = [a * y[0] + b * y[1], c * y[0] + d * y[1]]
                    norm = abs(y[0]) + abs(y[1])
                    exact = np.array([float(v / norm) for v in y])
                    miss = np.max(np.abs(end / np.abs(end).sum() - exact))
                    assert miss <= 4.0 * math.sqrt(steps.shape[-1]) * np.finfo(float).eps

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 1.0])
    def test_trajectory_amplitude_stays_bounded(self, kappa):
        # the e^(-x) scale of growing steps keeps every state O(1), so one
        # unscaled forward substitution neither under- nor overflows: across
        # the grid family, the window edges and the strongest and weakest
        # couplings, each state's 1-norm stays within 10^+-8 of its seed's
        edge = 1.0 - radial.WINDOW_EDGE
        pots = [ScreenedCoulomb.from_charge(136), ScreenedCoulomb.from_charge(1), PureCoulomb(0.99)]
        lo, hi = math.inf, -math.inf
        for scale in (0.5, 1.0):
            grid = build_grid(kappa, scale)
            for pot in pots:
                for ch in map(parse_state_label, ("1s_1/2", "2p_1/2", "6h_11/2")):
                    ws = radial._ShootingWorkspace(pot, ch, grid)
                    for E in (-edge, -0.5, 0.5, 0.9, edge):
                        for i in {0, ws.match_index(E), ws.n_int}:
                            decades = np.log10(np.abs(ws.sweep(E, i)[2]).sum(axis=0))
                            lo, hi = min(lo, decades.min()), max(hi, decades.max())
        assert -8.0 < lo and hi < 8.0

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["outward", "inward"])
    def test_nan_step_is_a_convergence_error(self, z80_workspace, where, monkeypatch):
        ws = z80_workspace
        E = 0.5
        table = [p.copy() for p in ws.table]
        table[0][1, int(where * ws.n_int)] = np.nan
        monkeypatch.setattr(ws, "table", table)
        with pytest.raises(ConvergenceError, match="sweep lost finiteness"):
            ws.sweep(E, ws.n_int // 2)

    @pytest.mark.parametrize("n", [1, 2, 1024, 1001, None], ids=lambda n: f"n={n}")
    def test_kernel_leaves_its_inputs_unchanged(self, z80_workspace, n):
        # a pass may write only its band and the arrays it makes: a table
        # changed in place would corrupt every later pass, and the solves
        # only read the band.  Odd lengths and every split, on the
        # workspace's band and on one of the reversed adjugates
        ws = z80_workspace
        E = 0.5
        table = [t.copy() for t in ws.table]
        x = radial._steps(ws.table, E, ws.band)
        for t, t0 in zip(ws.table, table):
            np.testing.assert_array_equal(t, t0)
        seed = np.array(ws._seed_out(E))
        full = _band_steps(ws.band)
        m = full[..., :n].shape[-1]
        for band in (ws.band[: m + 1], _band(_adjugates(full)[..., ::-1][..., :n])):
            before = band.copy()
            for i in sorted({0, 1, m // 3, m - 1, m}):
                Y = radial._trajectory(band, i, seed, seed)
                Y_before = Y.copy()
                radial._half_turns(Y, i)
                radial._samples(Y, x[:m], i)
                np.testing.assert_array_equal(Y, Y_before)
                np.testing.assert_array_equal(band, before)
                np.testing.assert_array_equal(seed, ws._seed_out(E))

    def test_band_never_aliases_a_probe(self, ch_s):
        # the band is every pass's scratch: a kept probe's states and
        # log-scales are its own, untouched by a later pass
        ws = radial._ShootingWorkspace(PureCoulomb(0.5), ch_s, build_grid(0.5))
        _, _, Y, x = ws._probe(0.5)
        kept = Y.copy(), x.copy()
        ws._probe(0.9)
        np.testing.assert_array_equal(Y, kept[0])
        np.testing.assert_array_equal(x, kept[1])
        assert not np.shares_memory(Y, ws.band) and not np.shares_memory(x, ws.band)

    def test_zero_generator_gives_identity_steps(self):
        # s^2 = 0 and x = 0 on every interval: sinh(x)/x takes its limit 1
        # with no 0/0, which pytest would raise as a RuntimeWarning
        n = 17
        band = np.zeros((n + 1, 2, 4))
        x = radial._steps([np.zeros((3, n))] * 4, 0.5, band)
        np.testing.assert_array_equal(x, np.zeros(n))
        eye = np.repeat(np.eye(2)[..., None], n, axis=-1)
        np.testing.assert_array_equal(_band_steps(band), eye)

    @pytest.mark.parametrize(
        "pot", [ScreenedCoulomb.from_charge(136), PureCoulomb(0.3)], ids=["Z=136", "u=0.3"]
    )
    def test_determinant_at_round_off_on_coarsest_grid(self, ch_s, pot):
        # the longest, coarsest grid has the largest steps: hyperbolic steps
        # in the log section's outer end and elliptic ones in the tail.
        # Scaled by e^(-x), det is e^(-2x), to round-off of |M|^2
        ws = radial._ShootingWorkspace(pot, ch_s, build_grid(1e-3, 0.5))
        for E in (-1.0 + 1e-9, -0.5, 0.5, 1.0 - 1e-9):
            for m, x in _sweeps(ws, E):
                m, x = m[..., ::7], x[::7]
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                miss = np.abs(det - np.exp(-2.0 * x)) / np.abs(m).max(axis=(0, 1)) ** 2
                assert np.max(miss) < 4e-15

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
    """Matching phase from every sample of the outward sweep: seed angle plus
    winding, the sum of the angles turned between neighbouring samples."""
    u = ws.sweep(E, ws.n_int)[2][:, : ws.n_int + 1]
    a, b = u[:, :-1], u[:, 1:]
    winding = np.arctan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]).sum()
    w = E - ws.v_inf  # less the decaying tail's angle, -atan(sqrt((1 - w)/(1 + w)))
    return math.atan2(u[1, 0], u[0, 0]) + winding + math.atan(math.sqrt((1.0 - w) / (1.0 + w)))


def _count_at(ws, E, i):
    """The phase count at E by the rule of _ShootingWorkspace.count, with the
    sweeps met at grid index i in place of E's match index."""
    _, w, Y, _ = ws.sweep(E, i)
    k_o, k_i = radial._half_turns(Y, i)
    return k_o - k_i - int((-1) ** (k_o + k_i) * w > 0.0)


def _angle(y, k):
    """Unwound angle of an end state y with half-turn index k (see _half_turns)."""
    u = (-1) ** k * np.asarray(y)
    return k * math.pi + math.atan2(u[1], u[0])


def _lifted_angle(stack, y0, i=None):
    """Unwound angle of the state after the steps of stack[..., :i] from y0, by
    the half-turns of the trajectory split at i."""
    i = stack.shape[-1] if i is None else i
    Y = radial._trajectory(_band(stack), i, y0, (1.0, 0.0))
    return _angle(Y[:, i], radial._half_turns(Y, i)[0])


def _half_turn_phase(ws, E):
    """Matching phase from the half-turns at i = n_int: the outward sweep's
    unwound angle at r_max less the tail angle."""
    Y = ws.sweep(E, ws.n_int)[2]
    w = E - ws.v_inf  # the tail angle as in _scan_phase
    angle = _angle(Y[:, ws.n_int], radial._half_turns(Y, ws.n_int)[0])
    return angle + math.atan(math.sqrt((1.0 - w) / (1.0 + w)))


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
    """Phase counts from the half-turns of the trajectory agree with the full scan."""

    @pytest.mark.parametrize("E", WINDOW_ENERGIES)
    def test_phase_matches_scan_z80(self, z80_workspace, E):
        ws = z80_workspace
        assert abs(_half_turn_phase(ws, E) - _scan_phase(ws, E)) < 1e-10

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 0.25, 1.0])
    @pytest.mark.parametrize(
        "ch",
        [Channel(tau=-1, two_j=1), Channel(tau=1, two_j=1), parse_state_label("4f_7/2")],
        ids=["tau=-1", "tau=+1", "4f_7/2"],
    )
    def test_phase_matches_scan_across_grids(self, kappa, ch):
        pot = ScreenedCoulomb.from_charge(80)
        ws = radial._ShootingWorkspace(pot, ch, build_grid(kappa, 0.5))
        for E in WINDOW_ENERGIES:
            new, old = _half_turn_phase(ws, E), _scan_phase(ws, E)
            assert abs(new - old) < 1e-10
            assert ws.count(E) == _count_at(ws, E, ws.n_int) == math.floor(new / math.pi)
            assert math.floor(new / math.pi) == math.floor(old / math.pi)

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 0.25, 1.0])
    def test_count_is_the_same_at_every_split(self, kappa):
        # the outward steps past i map the inward angle at i to the tail's and
        # keep angle differences in their half-turn band, so the count at any
        # split equals the count at r_max, on a mesh of energies that crosses
        # every level of three channels
        pot = ScreenedCoulomb.from_charge(80)
        energies = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 41)
        for ch in (Channel(tau=-1, two_j=1), Channel(tau=1, two_j=1), parse_state_label("4f_7/2")):
            ws = radial._ShootingWorkspace(pot, ch, build_grid(kappa, 0.5))
            splits = (0, 1, 8, ws.n_int // 3, ws.n_int // 2 + 1, ws.n_int - 8, ws.n_int - 1)
            for E in energies:
                at_r_max = _count_at(ws, E, ws.n_int)
                assert [_count_at(ws, E, i) for i in splits] == [at_r_max] * len(splits)
                assert ws.count(E) == at_r_max

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
        assert _lifted_angle(stack, y0) == pytest.approx(expected, abs=1e-9)
        # the outward sweep of a split trajectory does not see the steps past the split
        i = stack.shape[-1] // 2
        assert _lifted_angle(stack, y0, i) == pytest.approx(_lifted_angle(stack[..., :i], y0))

    @pytest.mark.parametrize(
        "turns, expected",
        [("++++", 2.0), ("----", -2.0), ("++--", 0.0), ("--++", 0.0), ("+++", 1.5)],
    )
    def test_exact_quarter_turns(self, turns, expected):
        # pairs of exact quarter turns land on the negative x axis, the
        # boundary between the two half-planes
        quarter = {"+": [[0.0, -1.0], [1.0, 0.0]], "-": [[0.0, 1.0], [-1.0, 0.0]]}
        stack = np.stack([np.array(quarter[t]) for t in turns], axis=-1)
        got = _lifted_angle(stack, (1.0, 0.0))
        assert got == pytest.approx(expected * math.pi, abs=1e-12)

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 1.0])
    def test_elliptic_steps_turn_less_than_a_quarter(self, kappa):
        # _half_turns needs every step to turn each direction by less than pi.
        # An elliptic step is conjugate to a rotation by sqrt(-s^2); near
        # threshold this peaks at about sqrt(u h Delta/(2a)) for a -u/r tail
        grid = build_grid(kappa, 0.5)
        r = grid.points
        h = 0.008 / grid.scale
        tail_step = 0.025 / (kappa * grid.scale)
        bound = math.sqrt(0.99 * h * tail_step / (2.0 * radial.GRID_LOG_WEIGHT))
        edge = 1.0 - radial.WINDOW_EDGE
        pots = [ScreenedCoulomb.from_charge(136), ScreenedCoulomb.from_charge(1), PureCoulomb(0.99)]
        worst = 0.0
        for pot in pots:
            for ch in map(parse_state_label, ("1s_1/2", "2p_1/2", "6h_11/2")):
                for E in (-edge, *WINDOW_ENERGIES, edge):
                    om = _magnus_generator(pot, ch, r[:-1], r[1:], E)
                    s2 = -np.linalg.det(om)  # Omega = [[a, b], [c, -a]], s^2 = a^2 + bc
                    worst = max(worst, np.sqrt(-s2[s2 < 0.0]).max(initial=0.0))
        assert worst < min(math.pi / 2.0, 1.001 * bound)

    def test_counts_do_not_scan(self, monkeypatch):
        # a hinted solve takes half-turns only in its three phase counts; its
        # Wronskians and the eigenfunction read the end states and samples of
        # the same trajectories, the eigenfunction without a pass of its own:
        # it sweeps inward only the intervals its pass left, and counts nothing
        outside, inside, ends, _ = _table_solve_calls(monkeypatch, ("_half_turns", "_trajectory"))
        assert outside["_half_turns"] == 3 and outside["_trajectory"] <= 7
        [(e, n_int)] = ends
        assert e < n_int and inside == {"_half_turns": 0, "_trajectory": 1}


# --------------------------------------------------------------------------
# the per-pass kernel against the bodies it replaced: the same floating-point
# operations in fewer numpy calls, so every result is equal bit for bit


def _reference_steps(table, E, band):
    """radial._steps with the elliptic patch run on every pass, empty or not."""
    p0, p1, p2, p3 = table
    omega = p3 * E
    for p in (p2, p1):
        omega += p
        omega *= E
    omega += p0
    a, b, c = omega
    s2 = a * a + b * c
    x = np.sqrt(np.abs(s2))
    ell = np.flatnonzero(s2 <= 0.0)
    xe = x[ell]
    x[ell] = np.inf
    ht = 0.5 * np.expm1(-2.0 * x)
    nch, nsh = -1.0 - ht, ht / x
    nch[ell] = -np.cos(xe)
    nsh[ell] = -np.divide(np.sin(xe), xe, out=np.ones(xe.size), where=xe > 0.0)
    x[ell] = 0.0
    out, nsha = band[: x.size], nsh * a
    np.add(nch, nsha, out=out[:, 0, 2])
    np.multiply(nsh, c, out=out[:, 0, 3])
    np.multiply(nsh, b, out=out[:, 1, 1])
    np.subtract(nch, nsha, out=out[:, 1, 2])
    return x


def _reference_half_turns(Y, i):
    """radial._half_turns by a 2-D gather and masks on either side of i, with
    the half-plane rule of radial._half written out."""
    h = (Y[1] < 0.0) | ((Y[1] == 0.0) & (Y[0] < 0.0))
    d = np.flatnonzero(h[1:] != h[:-1])
    a, b = Y[:, d], Y[:, d + 1]
    turn = np.sign(a[0] * b[1] - a[1] * b[0])
    return int(turn[d < i].sum()) - int(h[0]), -int(turn[d > i].sum()) - int(h[-1])


def _reference_match_index(ws, E):
    """radial._ShootingWorkspace.match_index from the list of every allowed index."""
    Q = (E - ws.v_grid) ** 2 - ws.q_edge
    allowed = np.flatnonzero(Q >= 0.0)
    i = int(allowed[-1]) if len(allowed) else int(np.argmax(Q))
    return min(max(i, 8), ws.n_int - 8)


# states (psi1, psi2) of made-up trajectories: exactly on both axes, signed
# zeros among them, on the diagonals and off them
_axis_state = st.sampled_from([
    (1.0, 0.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0),
    (1.0, 1.0), (-1.0, -1.0), (0.5, -2.0), (-2.0, 0.5), (3.0, -1e-300),
])


class TestKernelMatchesReference:
    @pytest.mark.parametrize("E, elliptic", [(-0.5, False), (0.9, True)])
    def test_steps_write_the_reference_band(self, z80_workspace, E, elliptic):
        # a whole pass and a 12-interval tail, as the eigenfunction's own sweep
        # takes; elliptic steps, and only they, keep log-scale 0
        ws = z80_workspace
        for table in (ws.table, ws.table[..., -12:]):
            band, ref = np.zeros_like(ws.band), np.zeros_like(ws.band)
            x, x_ref = radial._steps(table, E, band), _reference_steps(table, E, ref)
            assert x.tobytes() == x_ref.tobytes() and band.tobytes() == ref.tobytes()
            if table is ws.table:
                assert (np.count_nonzero(x == 0.0) > 50) == elliptic

    @pytest.mark.parametrize("E", WINDOW_ENERGIES)
    def test_half_turns_match_reference_z80(self, z80_workspace, E):
        ws = z80_workspace
        for i in sorted({0, 1, ws.match_index(E), ws.n_int // 2, ws.n_int - 1, ws.n_int}):
            Y = ws.sweep(E, i)[2]
            assert radial._half_turns(Y, i) == _reference_half_turns(Y, i)

    def test_half_turns_match_reference_at_78_changes(self):
        # the most changes seen in a pass: PureCoulomb(0.35) 2s_1/2 just below
        # the window top on the longest grid, where the pass's own join, the
        # clamp at n_int - 8, holds a change; every split on the same states
        ws = radial._ShootingWorkspace(
            PureCoulomb(0.35), parse_state_label("2s_1/2"), build_grid(radial.LONGEST_KAPPA_REF)
        )
        E = 0.99999
        i = ws.match_index(E)
        Y = ws.sweep(E, i)[2]
        h = radial._half(Y[1], Y[0])
        d = np.flatnonzero(h[1:] != h[:-1])
        assert d.size == 78 and i == ws.n_int - 8 and i in d
        for j in sorted({0, i, Y.shape[1] - 2, *d, *(d + 1), *(d - 1)}):
            assert radial._half_turns(Y, j) == _reference_half_turns(Y, j)

    @given(st.lists(_axis_state, min_size=2, max_size=40), st.integers(min_value=0, max_value=38))
    @example([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)], 0)  # a change exactly at i
    @example([(-1.0, 0.0), (1.0, 0.0), (-1.0, -0.0), (0.0, -1.0)], 1)  # p = 0, q < 0
    @settings(max_examples=300, deadline=None)
    def test_half_turns_match_reference_on_axis_states(self, states, i):
        Y = np.array(states).reshape(-1, 2).T  # the layout _trajectory returns
        i = min(i, Y.shape[1] - 2)
        assert radial._half_turns(Y, i) == _reference_half_turns(Y, i)

    @pytest.mark.parametrize("kappa_ref", [0.05, radial.LONGEST_KAPPA_REF], ids=["first", "longest"])
    @pytest.mark.parametrize("label", ["1s_1/2", "2s_1/2"])
    def test_match_index_matches_reference(self, kappa_ref, label):
        # 200 energies crowding toward the window top, where a Coulomb tail's
        # allowed region reaches the end of the grid: allowed points or none,
        # each with and without the clamp at n_int - 8
        ch = parse_state_label(label)
        seen = set()
        for pot in (ScreenedCoulomb.from_charge(80), PureCoulomb(0.35)):
            ws = radial._ShootingWorkspace(pot, ch, build_grid(kappa_ref))
            for E in 1.0 - np.geomspace(2.0 - 1e-9, 1e-9, 200):
                i = ws.match_index(E)
                assert i == _reference_match_index(ws, E)
                allowed = bool(np.any((E - ws.v_grid) ** 2 >= ws.q_edge))
                seen.add((allowed, i == ws.n_int - 8))
        assert seen == {(True, False), (True, True), (False, False), (False, True)}

    @given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5]), min_size=17, max_size=40))
    @example([0.5, 0.5] + [-1.0] * 20)  # allowed only below index 8: the clamp at 8
    @example([-1.0, -1.0, -0.5] + [-2.0] * 20)  # none allowed, Q peaks below index 8
    @settings(max_examples=300, deadline=None)
    def test_match_index_matches_reference_on_made_up_q(self, q):
        # V = 0 and E = 0 make Q = -q_edge: Q is q itself
        ws = SimpleNamespace(v_grid=np.zeros(len(q)), q_edge=-np.array(q), n_int=len(q) - 1)
        assert radial._ShootingWorkspace.match_index(ws, 0.0) == _reference_match_index(ws, 0.0)


# --------------------------------------------------------------------------
# normalization helper


class TestNormalize:
    def test_rescales_and_is_idempotent(self, coulomb_half):
        import dataclasses

        scaled = dataclasses.replace(
            coulomb_half, psi1=7.0 * coulomb_half.psi1, psi2=7.0 * coulomb_half.psi2
        )
        back = normalize(scaled)
        quad = grid_integral(back.psi1**2 + back.psi2**2, back.grid)
        assert quad == pytest.approx(1.0, abs=1e-12)
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
        # one stencil, no seam: finite everywhere but two points at each end
        n = grid.count
        assert np.flatnonzero(~np.isfinite(d)).tolist() == [0, 1, n - 2, n - 1]
        assert np.max(np.abs(d[2:-2] - exact[2:-2])) < 1e-7

    @pytest.mark.parametrize("kappa", [1e-3, 0.5])
    def test_power_law_at_the_origin(self, kappa):
        # r^gamma e^(-kappa r), the shape of a bound state, from the coarse
        # log steps near the origin out to the end of the tail
        grid = build_grid(kappa)
        r = grid.points
        gamma = math.sqrt(1.0 - 0.9**2)
        y = r**gamma * np.exp(-kappa * r)
        d = grid_derivative(y, grid)
        rel = np.abs(d - (gamma / r - kappa) * y) / ((gamma / r + kappa) * y)
        assert np.max(rel[2:-2]) < 1e-7

    def test_hand_built_grid_is_refused(self):
        # log-spaced points are not uniform in xi: the stencil would give d/dr r
        # between 0.48 and 11 instead of 1
        r = np.geomspace(1e-6, 700.0, 3000)
        grid = RadialGrid(1e-6, 700.0, r, 0.05, 1.0)
        for use in (grid_derivative, grid_integral):  # on every use: no map is kept
            with pytest.raises(ValueError, match="not uniform"):
                use(r, grid)


# --------------------------------------------------------------------------
# grid integral: Simpson in xi plus the power law below r_min


class TestGridIntegral:
    @pytest.mark.parametrize("kappa, odd", [(1e-3, False), (0.05, True)])
    @pytest.mark.parametrize("power", [0, -1], ids=["density", "density/r"])
    def test_bound_state_shape(self, kappa, odd, power):
        # r^(2 gamma + power) e^(-2 kappa r), gamma of v = 0.9, on a grid with
        # an even and one with an odd interval count (a closing 3/8 panel), as
        # the two grids have at scale 1; measured within 5.2e-14 relative
        grid = build_grid(kappa, 1.0)
        assert (grid.count - 1) % 2 == odd
        r = grid.points
        p = 2.0 * math.sqrt(1.0 - 0.9**2) + power
        exact = math.gamma(p + 1.0) / (2.0 * kappa) ** (p + 1.0)
        f = r**p * np.exp(-2.0 * kappa * r)
        assert grid_integral(f, grid) == pytest.approx(exact, rel=1e-12)


# Hellmann-Feynman for V = -u/r: dE/du = <dV/du> = -<1/r>.  Relative residuals
# of <1/r> on unhinted solves, measured: -1.0e-14, 2.8e-14, 1.2e-11 and 1.5e-7
# for 1s_1/2 at u = 0.1, 0.5, 0.9 and 0.99, 3.1e-7 for 2s_1/2 at 0.99; each
# bound is 7-12x that, 3x for 2s_1/2 under the cap 1e-6.  Simpson in r
# (scipy's simpson(x=r), no piece below r_min) reads -1.4e-10, -2.7e-9,
# -1.0e-5, -2.7e-2 and -2.9e-2.
HF_CASES = [
    ("1s_1/2", 0.1, 1e-13), ("1s_1/2", 0.5, 3e-13), ("1s_1/2", 0.9, 1e-10),
    ("1s_1/2", 0.99, 1e-6), ("2s_1/2", 0.99, 1e-6),
]


@pytest.mark.parametrize("label, u, tol", HF_CASES, ids=[f"{c}-u{u}" for c, u, _ in HF_CASES])
def test_inverse_r_is_minus_coupling_derivative(label, u, tol):
    ch = parse_state_label(label)
    sol = solve_eigenvalue(PureCoulomb(u), ch)
    inv_r = grid_integral((sol.psi1**2 + sol.psi2**2) / sol.grid.points, sol.grid)
    assert abs(inv_r / -coulomb_eigenvalue_derivative(u, ch) - 1.0) < tol


# --------------------------------------------------------------------------
# failure modes


class TestFailureModes:
    def test_weak_coupling_needs_long_tail(self, ch_s):
        # a grid built for kappa=1 is far too short for the u=0.05 ground
        # state (decay rate ~0.05); with the grid pinned the solver must
        # report the defect instead of silently rebuilding
        short = build_grid(1.0)
        with pytest.raises(ConvergenceError, match="too weakly bound") as err:
            solve_eigenvalue(PureCoulomb(0.05), ch_s, grid=short)
        assert "supplied grid (r_max=35)" in str(err.value)

    def test_missing_excited_state(self):
        # the wall of a pinned short grid pushes all but two s_1/2 states of
        # the u=0.1 well out of the spectral window; asking for the third
        # must report how many exist on that grid
        with pytest.raises(NoBoundStateError, match=r"\(r_max=35\) holds 2 bound state"):
            solve_eigenvalue(
                PureCoulomb(0.1), Channel(tau=-1, two_j=1, n=3), grid=build_grid(1.0)
            )

    @pytest.mark.parametrize(
        "pot, ch, grid, where, held",
        [
            (PureCoulomb(0.01), parse_state_label("3s_1/2"), build_grid(0.05),
             "supplied grid (r_max=700)", "holds 2"),
            (PureCoulomb(0.05), Channel(tau=-1, two_j=1, n=40), None,
             "longest grid (r_max=3.5e+04)", "holds 37"),
        ],
        ids=["supplied", "longest"],
    )
    def test_missing_state_names_the_grid_searched(self, pot, ch, grid, where, held):
        # a Coulomb tail has infinitely many levels in every channel (the
        # unpinned u = 0.01 3s_1/2 solve finds its level on the longest grid),
        # so the error counts the states of the grid searched last
        with pytest.raises(NoBoundStateError) as err:
            solve_eigenvalue(pot, ch, grid=grid)
        msg = str(err.value)
        assert where in msg and held in msg
        assert "supports" not in msg

    def test_excited_state_found_by_tail_extension(self):
        # without a pinned grid the solver stretches the tail until the same
        # n=3 state fits, and then nails it
        ch3 = Channel(tau=-1, two_j=1, n=3)
        sol = solve_eigenvalue(PureCoulomb(0.1), ch3)
        assert abs(sol.E - coulomb_eigenvalue(0.1, ch3)) < 1e-10
        assert (sol.nodes1, sol.nodes2) == (2, 2)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda ch: build_grid(0.5, math.inf), "grid scale"),
            (lambda ch: build_grid(0.5, math.nan), "grid scale"),
            (lambda ch: build_grid(math.nan), "kappa_ref"),
            (lambda ch: solve_eigenvalue(PureCoulomb(0.5), ch, grid_scale=math.inf), "grid scale"),
            (lambda ch: count_nodes([1.0, math.nan, -1.0]), "samples"),
            (lambda ch: count_nodes([1.0, math.inf, -1.0]), "samples"),
            (lambda ch: count_nodes([[1.0, -1.0], [1.0, -1.0]]), "samples"),
        ],
        ids=[
            "grid-scale-inf",
            "grid-scale-nan",
            "kappa-nan",
            "solve-grid-scale-inf",
            "samples-nan",
            "samples-inf",
            "samples-2d",
        ],
    )
    def test_non_finite_input_is_a_named_value_error(self, ch_s, call, name):
        with pytest.raises(ValueError, match=name):
            call(ch_s)

    def test_hint_outside_window_rejected(self, ch_s):
        with pytest.raises(ValueError, match="collapses"):
            solve_eigenvalue(PureCoulomb(0.5), ch_s, bracket_hint=(2.0, 3.0))

    def test_weakly_bound_state_found_automatically(self, ch_s):
        # same u=0.05 state as above, but without a pinned grid the solver
        # rebuilds a grid whose tail is too short
        exact = coulomb_eigenvalue(0.05, ch_s)
        sol = solve_eigenvalue(PureCoulomb(0.05), ch_s)
        assert abs(sol.E - exact) < 1e-8


# --------------------------------------------------------------------------
# weakly bound edge inputs: a grid that does not hold the state, or whose tail
# spans fewer than 30 of its decay lengths, is rebuilt once as the longest
# grid (r_max = 35000), which holds decay rates down to kappa = 30/35000 =
# 8.57e-4


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

    @pytest.mark.parametrize("u", [9e-4, 1.0e-3, 1.02e-3, 1.2e-3, 2e-3])
    def test_weak_coulomb_ground_state(self, ch_s, u):
        sol = solve_eigenvalue(PureCoulomb(u), ch_s)
        assert abs(sol.E - coulomb_eigenvalue(u, ch_s)) < 1e-12

    def test_kappa_1e3_level_solves_from_above(self):
        # the level of u = 1e-3 1s_1/2 above, E = sqrt(1 - 1e-6), kappa = 1e-3;
        # that search lands 1 ulp below it, this one on it (kappa just under
        # 1e-3), and both fit the longest grid's tail (35 decay lengths)
        ch = parse_state_label("2p_3/2")
        sol = solve_eigenvalue(PureCoulomb(2e-3), ch)
        assert abs(sol.E - coulomb_eigenvalue(2e-3, ch)) < 1e-12

    def test_rebuild_hint_stays_in_isolating_bracket(self, caplog):
        # u = 0.5 10s_1/2 (kappa = 0.0507) passes r_max kappa >= 30 on the first
        # grid (r_max = 700) but spans only 16 decay lengths past its match
        # point; the level found there, widened by 1e-5 and clipped to the
        # bracket that isolated it, holds the state alone on the longest grid
        ch = parse_state_label("10s_1/2")
        with caplog.at_level(logging.DEBUG, logger="diracbound.radial"):
            sol = solve_eigenvalue(PureCoulomb(0.5), ch)
        messages = [r.getMessage() for r in caplog.records]
        assert sum("grid tail too short" in m for m in messages) == 1
        assert not any("rejected" in m for m in messages)
        assert abs(sol.E - coulomb_eigenvalue(0.5, ch)) < 1e-12

    @pytest.mark.parametrize("u", [0.03, 0.02])
    def test_first_grid_makes_no_wronskian_pass(self, caplog, monkeypatch, ch_s, u):
        # decay rates 0.03 and 0.02 would span 21 and 14 decay lengths of the
        # first grid's tail (r_max = 700): no level there passes r_max kappa >=
        # 30, so the counts below that rule's top find no state and the solve
        # rebuilds with no Brent search on the first grid
        grids = []
        wronskian = radial._ShootingWorkspace.wronskian

        def recorded(self, E):
            grids.append(self.grid.r_max)
            return wronskian(self, E)

        monkeypatch.setattr(radial._ShootingWorkspace, "wronskian", recorded)
        with caplog.at_level(logging.DEBUG, logger="diracbound.radial"):
            sol = solve_eigenvalue(PureCoulomb(u), ch_s)
        (message,) = [r.getMessage() for r in caplog.records if "rebuilding" in r.getMessage()]
        assert message.startswith("grid holds 0 of 1 states below E=0.99908")
        assert grids and set(grids) == {35000.0}
        assert abs(sol.E - coulomb_eigenvalue(u, ch_s)) < 1e-12

    @pytest.mark.parametrize(
        "pot, label",
        [
            (PureCoulomb(0.01), "3s_1/2"),
            (PureCoulomb(0.01), "4f_5/2"),
            (ScreenedCoulomb.from_charge(5), "6h_11/2"),
            (PureCoulomb(0.002), "2s_1/2"),
        ],
        ids=["0.01-3s_1/2", "0.01-4f_5/2", "Z5-6h_11/2", "0.002-2s_1/2"],
    )
    def test_one_rebuild_per_solve(self, caplog, pot, label):
        # the first grid holds none of these states below where r_max kappa =
        # 30; the one rebuild is the longest grid, which fits each
        with caplog.at_level(logging.DEBUG, logger="diracbound.radial"):
            sol = solve_eigenvalue(pot, parse_state_label(label))
        assert sum("rebuilding" in r.getMessage() for r in caplog.records) == 1
        assert sol.grid.kappa_ref == 1e-3

    def test_one_rebuild_before_too_weakly_bound(self, caplog):
        # the longest grid holds the u = 0.002 4s_1/2 level but only 17.5 of
        # its decay lengths; the solve raises after one rebuild
        with caplog.at_level(logging.DEBUG, logger="diracbound.radial"):
            with pytest.raises(ConvergenceError, match="too weakly bound"):
                solve_eigenvalue(PureCoulomb(0.002), parse_state_label("4s_1/2"))
        assert sum("rebuilding" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("u, label", [(8e-4, "1s_1/2"), (1e-3, "3s_1/2")])
    def test_below_grid_floor_is_typed(self, u, label):
        # 28 and 11.7 decay lengths on the longest grid's tail, short of 30
        with pytest.raises(ConvergenceError, match="too weakly bound"):
            solve_eigenvalue(PureCoulomb(u), parse_state_label(label))

    @pytest.mark.parametrize("n", [26, 27, 28, 29, 30])
    def test_rydberg_level_at_the_wall_is_typed(self, n):
        # u = 0.05 ns_1/2 on the longest grid: r_max kappa is 58-67, but the
        # tail past the match point spans 15.4, 10.9, 6.5, 2.2 and 0.3 decay
        # lengths, short of 18; those levels lay 2.7e-13 to 2.5e-8 above the
        # closed form
        with pytest.raises(ConvergenceError, match=r"too weakly bound.* 18/\(r_max - r_match\)"):
            solve_eigenvalue(PureCoulomb(0.05), parse_state_label(f"{n}s_1/2"))

    def test_rydberg_level_clear_of_the_wall_solves(self):
        # 25s_1/2: 20.0 decay lengths past its match point, 1.8e-15 off
        ch = parse_state_label("25s_1/2")
        sol = solve_eigenvalue(PureCoulomb(0.05), ch)
        assert abs(sol.E - coulomb_eigenvalue(0.05, ch)) < 1e-14


class TestStrongCouplingEdge:
    def test_z137_ground_state_in_sandwich(self, ch_s):
        # Z = 137 (alpha Z = 0.99974) is the largest charge from_charge accepts:
        # its hinted 1s_1/2 solve lies between the level of -v/r, which lies
        # below V, and the envelope bound of the optimal tangent, which lies above
        pot = ScreenedCoulomb.from_charge(137)
        upper, numeric = compute_state_pair(137, "1s_1/2")
        assert not (upper.failed or numeric.failed)
        floor = coulomb_eigenvalue(pot.coupling, ch_s)
        assert floor <= numeric.energy <= upper.energy
        assert (floor, numeric.energy, upper.energy) == pytest.approx(
            (0.022920, 0.058827, 0.059477), abs=1e-6
        )
