"""Release gates: eight end-to-end criteria, one PASS/FAIL line each.

Every criterion is measured at its stated tolerance against independent
oracles (the embedded reference table, closed-form Coulomb spectra, exact
rational arithmetic); nothing here is allowed to self-certify.  Each test
prints a single ``CRITERION n: PASS/FAIL - <evidence>`` line and asserts
on exactly that condition.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from diracbound.channels import DEFAULT_CONSTANTS, Channel
from diracbound.comparison import (
    assert_ordering,
    identity_residual,
    predicted_bracket,
    random_screened_tangent_pair,
)
from diracbound.coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from diracbound.envelope import minimize_bound
from diracbound.potentials import (
    PureCoulomb,
    ScreenedCoulomb,
    g_transform,
    g_transform_derivative,
    ordering_gap,
    tangent_at,
)
from diracbound.radial import build_grid, solve_eigenvalue
from diracbound.table1 import DEFAULT_Z_VALUES, STATE_LABELS, compute_table

pytestmark = pytest.mark.acceptance

SEED = 20260825

# stated tolerances, keV-binding units
TOL_UPPER_KEV = {"1s_1/2": 5e-3, "2p_3/2": 2e-3}
TOL_NUMERIC_KEV = 5e-3
MIN_MARGIN_KEV = 0.04


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_table():
    """Complete reference table (both columns), timed once and shared."""
    t0 = time.perf_counter()
    result = compute_table()
    return result, time.perf_counter() - t0


# --------------------------------------------------------------------------


def test_criterion_01_envelope_column():
    """Envelope upper bounds reproduce the reference table, fast."""
    t0 = time.perf_counter()
    result = compute_table(upper_only=True)
    elapsed = time.perf_counter() - t0
    worst = {
        state: max(
            abs(result.cell(z, state, "upper").deviation_kev) for z in DEFAULT_Z_VALUES
        )
        for state in STATE_LABELS
    }
    ok = (
        result.ok
        and len(result.cells) == 14
        and all(worst[s] <= TOL_UPPER_KEV[s] for s in STATE_LABELS)
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"14 envelope cells: max|dev| 1s_1/2 {worst['1s_1/2']:.2e} keV (tol 5e-3), "
        f"2p_3/2 {worst['2p_3/2']:.2e} keV (tol 2e-3), runtime {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_02_numeric_column(full_table):
    """Shooting-solver eigenvalues reproduce the reference table."""
    result, elapsed = full_table
    devs = [
        abs(result.cell(z, state, "numeric").deviation_kev)
        for z in DEFAULT_Z_VALUES
        for state in STATE_LABELS
    ]
    ok = result.ok and len(devs) == 14 and max(devs) <= TOL_NUMERIC_KEV and elapsed < 120.0
    _report(
        2,
        ok,
        f"14 numeric cells: max|dev| {max(devs):.2e} keV (tol 5e-3), "
        f"full-table runtime {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_03_upper_bound_margin(full_table):
    """Every envelope bound sits above its eigenvalue by >= 0.04 keV."""
    result, _ = full_table
    margins = []
    for z in DEFAULT_Z_VALUES:
        for state in STATE_LABELS:
            up = result.cell(z, state, "upper").binding_kev
            num = result.cell(z, state, "numeric").binding_kev
            margins.append(up - num)
    ok = all(m >= MIN_MARGIN_KEV for m in margins)
    _report(
        3,
        ok,
        f"min(E_upper - E) = {min(margins):.4f} keV over 14 cells (>= 0.04 keV)",
    )


# 12 coupling/channel combinations, including tau=+1 and excited (n=2) states
COULOMB_COMBOS = [
    (Channel(tau=-1, two_j=1, n=1), 0.1),
    (Channel(tau=-1, two_j=1, n=1), 0.3),
    (Channel(tau=-1, two_j=1, n=1), 0.58),
    (Channel(tau=-1, two_j=3, n=1), 0.3),
    (Channel(tau=-1, two_j=3, n=1), 0.58),
    (Channel(tau=-1, two_j=1, n=2), 0.3),
    (Channel(tau=-1, two_j=1, n=2), 0.58),
    (Channel(tau=+1, two_j=1, n=1), 0.1),
    (Channel(tau=+1, two_j=1, n=1), 0.3),
    (Channel(tau=+1, two_j=1, n=1), 0.58),
    (Channel(tau=+1, two_j=3, n=1), 0.3),
    (Channel(tau=-1, two_j=3, n=2), 0.3),
]


def test_criterion_04_coulomb_oracle():
    """Solver matches the closed-form Coulomb spectrum to 1e-8 mc^2."""
    errors = []
    for ch, u in COULOMB_COMBOS:
        sol = solve_eigenvalue(PureCoulomb(u), ch)
        errors.append(abs(sol.E - coulomb_eigenvalue(u, ch)))
    has_plus = any(ch.tau == +1 for ch, _ in COULOMB_COMBOS)
    has_excited = any(ch.n == 2 for ch, _ in COULOMB_COMBOS)
    ok = len(errors) == 12 and max(errors) < 1e-8 and has_plus and has_excited
    _report(
        4,
        ok,
        f"12 (u, channel) combos incl tau=+1 and n=2: max|E - exact| "
        f"{max(errors):.2e} mc^2 (< 1e-8)",
    )


def _solve_pair_on_shared_grid(pot, tangent, ch):
    """Both states of a comparison pair on one grid (for the identity check)."""
    rates = []
    for p in (pot, tangent):
        lo, hi = predicted_bracket(p, ch)
        v_inf = p.value_at_infinity
        rates.extend(math.sqrt(max(1.0 - (e - v_inf) ** 2, 0.0)) for e in (lo, hi))
    grid = build_grid(min(max(0.95 * min(rates), 1e-3), 1.0))
    sol_a = solve_eigenvalue(pot, ch, grid=grid, bracket_hint=predicted_bracket(pot, ch))
    sol_b = solve_eigenvalue(
        tangent, ch, grid=grid, bracket_hint=predicted_bracket(tangent, ch)
    )
    return sol_a, sol_b


def test_criterion_05_identity_suite():
    """Integral and derivative identities close on five solved pairs."""
    ch = Channel(tau=-1, two_j=1)
    id_rels, deriv_max, verdicts = [], [], []
    control_ratio = None
    for z in (20, 35, 50, 65, 80):
        pot = ScreenedCoulomb.from_charge(z)
        t_star = minimize_bound(pot, ch).t_star
        tangent = tangent_at(pot, t_star)
        report = assert_ordering(pot, tangent, ch)
        id_rels.append(report.identity.relative)
        deriv_max.append(report.derivative_residual)
        verdicts.append(report.verdict)
        if z == 50:
            # negative control: corrupt one eigenvalue by 1e-4 and require
            # the relative residual to inflate by at least 1e3
            sol_a, sol_b = _solve_pair_on_shared_grid(pot, tangent, ch)
            honest = identity_residual(sol_a, sol_b).relative
            corrupted = identity_residual(
                dataclasses.replace(sol_a, E=sol_a.E + 1e-4), sol_b
            ).relative
            control_ratio = corrupted / honest
    ok = (
        max(id_rels) < 1e-6
        and max(deriv_max) < 1e-4
        and all(v == "PASS" for v in verdicts)
        and control_ratio is not None
        and control_ratio >= 1e3
    )
    _report(
        5,
        ok,
        f"5 pairs: max identity rel {max(id_rels):.2e} (< 1e-6), max derivative "
        f"residual {max(deriv_max):.2e} (< 1e-4), control inflation "
        f"{control_ratio:.1e}x (>= 1e3)",
    )


def test_criterion_06_ordering_sweep():
    """50 random screened-vs-tangent pairs all come out strictly ordered."""
    rng = np.random.default_rng(SEED)
    ch = Channel(tau=-1, two_j=1)
    failures = []
    min_split = math.inf
    max_tangent_err = 0.0
    for i in range(50):
        pot, tangent = random_screened_tangent_pair(rng)
        report = assert_ordering(pot, tangent, ch)
        nodeless = report.nodes_a == (0, 0) and report.nodes_b == (0, 0)
        # the tangent is a shifted Coulomb potential with a closed-form level
        tangent_err = abs(
            report.E_b - (tangent.shift + coulomb_eigenvalue(tangent.coupling, ch))
        )
        if (
            report.verdict != "PASS"
            or not report.ordered
            or not nodeless
            or tangent_err >= 1e-14
        ):
            failures.append((i, pot.Z, tangent.contact_radius, report.verdict, tangent_err))
        min_split = min(min_split, report.E_b - report.E_a)
        max_tangent_err = max(max_tangent_err, tangent_err)
    ok = not failures
    _report(
        6,
        ok,
        f"50 seeded pairs (Z in [20,80], log-uniform t): failures {len(failures)}, "
        f"min E_b - E_a = {min_split:.2e} mc^2, "
        f"max |E_b - closed form| = {max_tangent_err:.1e} mc^2"
        + (f"; first failures: {failures[:3]}" if failures else ""),
    )


DERIVATIVE_CHANNELS = [
    Channel(tau=-1, two_j=1, n=1),
    Channel(tau=-1, two_j=3, n=1),
    Channel(tau=-1, two_j=5, n=1),
    Channel(tau=-1, two_j=1, n=2),
    Channel(tau=+1, two_j=1, n=1),
    Channel(tau=+1, two_j=3, n=1),
]


def test_criterion_07_derivative_checks():
    """Analytic derivatives match high-order finite differences."""
    # eigenvalue derivative on a 10 x 6 (u, channel) grid
    rel_d = []
    for ch in DERIVATIVE_CHANNELS:
        lim = min(1.0, float(ch.k))
        for f in np.linspace(0.05, 0.95, 10):
            u = f * lim
            eps = min(1e-3, 0.2 * min(u, lim - u), 0.005 * (ch.k**2 - u * u))
            d = coulomb_eigenvalue
            fd = (
                -d(u + 2 * eps, ch) + 8 * d(u + eps, ch) - 8 * d(u - eps, ch) + d(u - 2 * eps, ch)
            ) / (12 * eps)
            exact = coulomb_eigenvalue_derivative(u, ch)
            rel_d.append(abs(exact - fd) / abs(exact))
    # transform slope g' for three charges over six decades of h
    rel_g = []
    for z in (20, 50, 80):
        pot = ScreenedCoulomb.from_charge(z)
        for h in -np.geomspace(1e-3, 1e3, 10):
            eps = 1e-4 * max(abs(h), pot.screening)
            g = lambda x: g_transform(pot, x)
            fd = (-g(h + 2 * eps) + 8 * g(h + eps) - 8 * g(h - eps) + g(h - 2 * eps)) / (
                12 * eps
            )
            exact = g_transform_derivative(pot, h)
            rel_g.append(abs(exact - fd) / abs(exact))
    ok = len(rel_d) == 60 and max(rel_d) < 1e-7 and max(rel_g) < 1e-8
    _report(
        7,
        ok,
        f"D'(u) on 10x6 grid: max rel {max(rel_d):.2e} (< 1e-7); "
        f"g'(h) on 3x10 grid: max rel {max(rel_g):.2e} (< 1e-8)",
    )


def _exact_direct_gap(pot: ScreenedCoulomb, t: float, r: float) -> Fraction:
    """Tangent(r) - V(r) in exact rational arithmetic.

    Both potentials are rational functions of their (float, hence rational)
    parameters, so the direct subtraction can be evaluated without any
    rounding; the float closed form is then tested against a noise-free
    oracle even where r ~ t makes float64 subtraction cancel badly.
    """
    v = Fraction(pot.coupling)
    lam = Fraction(pot.screening)
    one_m = Fraction(pot.Z - 1, pot.Z)
    rf, tf = Fraction(r), Fraction(t)
    h = Fraction(-1) / tf
    shift = v * lam * one_m * h * h / (h - lam) ** 2
    slope = v * (h * h - 2 * h * lam + lam * lam / pot.Z) / (h - lam) ** 2
    v_screened = -(v / rf) * (1 - rf * lam * one_m / (1 + lam * rf))
    return (shift - slope / rf) - v_screened


def test_criterion_08_gap_closed_form():
    """Closed-form ordering gap equals the direct subtraction, nonnegatively."""
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    negatives = 0
    for _ in range(1000):
        z = int(rng.integers(20, 81))
        t = float(10.0 ** rng.uniform(-3.0, 3.0))
        r = float(10.0 ** rng.uniform(-3.0, 3.0))
        pot = ScreenedCoulomb.from_charge(z)
        closed = ordering_gap(pot, t, r)
        direct = _exact_direct_gap(pot, t, r)
        if closed < 0.0 or direct < 0:
            negatives += 1
            continue
        err = abs(Fraction(closed) - direct)
        rel = float(err / direct) if direct else float(err)
        worst_rel = max(worst_rel, rel)
    ok = negatives == 0 and worst_rel <= 1e-12
    _report(
        8,
        ok,
        f"1000 seeded (r, t, Z) triples: max rel gap error {worst_rel:.2e} "
        f"(<= 1e-12, exact-rational oracle), negative gaps {negatives}",
    )
