"""Shooting solver for the coupled radial Dirac equations.

For a central potential V(r) and a channel with quantum numbers (tau, k),
the bound-state problem in rest-energy units (hbar = c = m = 1) reads

    psi1' = -(tau*k/r) psi1 + (1 + E - V) psi2,
    psi2' = +(tau*k/r) psi2 + (1 + V - E) psi1,

with psi1(0) = psi2(0) = 0 and unit L2 norm of the component pair.  The
discrete spectrum lives in the window |E - V(inf)| < 1.

The solver combines three classical ingredients:

* sixth-order Magnus steps over a graded radial grid (log-spaced near the
  origin, linear in the tail).  The system is linear, so each step is a 2x2
  propagator M_i(E), the exact exponential of a traceless generator built
  from A at three Gauss nodes (det M_i = 1); one vectorized pass builds them
  all from E-independent stage tables.  A normalized prefix scan composes
  them where every sample is needed (the eigenfunction), a pairwise
  reduction where only the end value is (the Wronskian) or the end angle
  (the phase count, which carries each product's whole half-turns as an
  integer);
* Pruefer phase counting: the continuously unwound rotation angle of
  (psi1, psi2) at r_max, minus the angle of the decaying tail solution, is
  strictly decreasing in E and drops through a multiple of pi at every
  eigenvalue of the truncated problem.  Counting those crossings from the
  bottom of the spectral window locates the n-th eigenvalue by index, so a
  bisection bracket can neither miss a state nor confuse neighbours.  The
  bisection stops as soon as the bracket holds the target state alone (a
  verified hint usually does from the start: 3 phase sweeps in all);
* Wronskian matching: inside the phase-isolated bracket the eigenvalue is
  found by a Brent root find on the normalized Wronskian of outward and
  inward sweeps evaluated at the outer classical turning point, where both
  sweeps are locally oscillatory and the mismatch is most sensitive.  The
  Wronskian is the sine of the angle between the two sweeps, which passes a
  multiple of pi only at eigenvalues, so an isolating bracket shows a sign
  change unless round-off puts an end on the root; then the phase count is
  bisected to tol_e instead.

The eigenfunction is assembled from the two sweeps joined at the matching
radius and normalized with Simpson quadrature on the grid.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .channels import Channel
from .errors import ConvergenceError, NoBoundStateError

_log = logging.getLogger(__name__)

# window edge margin: kappa = sqrt(1 - (E - V_inf)^2) degenerates at |w| = 1
WINDOW_EDGE = 1e-9
# grid rebuilds a solve may make before it gives up
MAX_GRID_REBUILDS = 5

# Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of a step
_GAUSS_C = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial mesh: log-spaced inner section, linear outer section.

    The inner radius is held at 1e-6 (<= 1e-6/kappa for every bound state,
    since kappa <= 1), while the tail extends to 35/kappa_ref.
    """

    r_min: float
    r_max: float
    points: np.ndarray
    split_index: int  # last index of the log-spaced section
    kappa_ref: float
    scale: float

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """A converged, normalized bound state."""

    ch: Channel
    E: float
    grid: RadialGrid
    psi1: np.ndarray
    psi2: np.ndarray
    nodes1: int
    nodes2: int
    norm: float
    potential: object
    V: np.ndarray  # the potential on grid.points
    match_radius: float
    mismatch: float  # Wronskian residual of the two sweeps at the eigenvalue


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Raw single-direction integration output on a grid."""

    direction: str
    psi1: np.ndarray
    psi2: np.ndarray
    first_index: int
    last_index: int
    theta: float  # unwound phase accumulated along the sweep (outward only)


def build_grid(kappa_ref: float, scale: float = 1.0) -> RadialGrid:
    """Mesh sized for states decaying like exp(-kappa_ref * r).

    scale multiplies the point density in both sections; scale >= 0.5
    keeps the grid above the 1000-point floor needed for the quadratures.
    """
    if not 1e-3 <= kappa_ref <= 1.0:
        raise ValueError(f"kappa_ref must lie in [1e-3, 1], got {kappa_ref}")
    if scale < 0.5:
        raise ValueError(f"grid scale must be >= 0.5, got {scale}")
    r_min = 1e-6
    r_cross = 2.0 / kappa_ref
    r_max = 35.0 / kappa_ref
    h_log = 0.008 / scale
    n_log = int(math.ceil(math.log(r_cross / r_min) / h_log))
    inner = np.geomspace(r_min, r_cross, n_log + 1)
    # cap the linear step so one step can never rotate the phase by ~pi
    dr = min(0.025 / (kappa_ref * scale), 1.0)
    n_lin = int(math.ceil((r_max - r_cross) / dr))
    outer = np.linspace(r_cross, r_max, n_lin + 1)
    points = np.concatenate([inner, outer[1:]])
    return RadialGrid(
        r_min=r_min,
        r_max=r_max,
        points=points,
        split_index=n_log,
        kappa_ref=kappa_ref,
        scale=scale,
    )


def origin_series_seed(pot, ch: Channel, E: float, r: float) -> tuple[float, float]:
    """Regular Frobenius solution r^gamma (a0 + a1 r, b0 + b1 r) at small r.

    Valid for potentials that are Coulombic at the origin,
    V(r) = -v/r + V1 + o(1), with subcritical strength v < k.
    """
    v = pot.origin_strength
    v1 = pot.origin_offset
    k = float(ch.k)
    tk = ch.tau * k
    if not 0.0 < v < k:
        raise ValueError(
            f"origin Coulomb strength {v} outside (0, {k}); "
            "the power-law seed needs a subcritical Coulombic origin"
        )
    gamma = math.sqrt((k - v) * (k + v))
    a0, b0 = v, gamma + tk
    ep = 1.0 + E - v1
    em = 1.0 - E + v1
    den = 2.0 * gamma + 1.0
    a1 = ((gamma + 1.0 - tk) * ep * b0 + v * em * a0) / den
    b1 = ((gamma + 1.0 + tk) * em * a0 - v * ep * b0) / den
    pref = r**gamma
    return pref * (a0 + a1 * r), pref * (b0 + b1 * r)


def decaying_tail_angle(w: float) -> float:
    """Phase angle atan2(psi2, psi1) of the decaying solution at large r.

    w = E - V(inf) must lie strictly inside (-1, 1)."""
    return -math.atan(math.sqrt((1.0 - w) / (1.0 + w)))


def _decay_rate(w: float) -> float:
    return math.sqrt(max((1.0 - w) * (1.0 + w), 0.0))


def reference_rate(pot, bracket: tuple[float, float] | None) -> float:
    """kappa_ref of a grid for a state expected in bracket (E_lo, E_hi): the
    slower decay rate at its ends, clamped to [1e-3, 1]; 0.25 without one."""
    if bracket is None:
        return 0.25
    v_inf = pot.value_at_infinity
    return min(max(min(_decay_rate(e - v_inf) for e in bracket), 1e-3), 1.0)


def _stage_tables(pot, tk: float, base: np.ndarray, step: np.ndarray):
    """E-free parts of each interval's Magnus generator (see _propagators): h and
    h A_2 less its E term, alpha_2, alpha_3 as (3, n) stacks (a, b, c) of the
    traceless [[a, b], [c, -a]]; E cancels in the differences alpha_2, alpha_3."""
    rs = base + _GAUSS_C[:, None] * step
    a1, a2, a3 = (step * np.stack([-tk / r, 1 - v, 1 + v]) for r, v in zip(rs, pot.evaluate(rs)))
    return step, a2, (math.sqrt(15.0) / 3.0) * (a3 - a1), (10.0 / 3.0) * (a3 - 2.0 * a2 + a1)


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Commutators [x_i, y_i] of two (3, n) stacks of traceless matrices (a, b, c)."""
    a, b, c = x[1] * y[2] - x[2] * y[1], x[0] * y[1] - x[1] * y[0], x[2] * y[0] - x[0] * y[2]
    return np.stack([a, 2.0 * b, 2.0 * c])


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_i of two (2, 2, n) stacks of 2x2 matrices."""
    return np.stack([a[0, 0] * b[0] + a[0, 1] * b[1], a[1, 0] * b[0] + a[1, 1] * b[1]])


def _unit(m: np.ndarray):
    """m_i scaled to unit 1-norm, and each scale."""
    nrm = np.abs(m).sum(axis=(0, 1))
    return m / nrm, nrm


def _half(v: np.ndarray):
    """1 where the vector v (each column, for a (2, n) stack) points into [pi, 2 pi), else 0."""
    return ((v[1] < 0.0) | ((v[1] == 0.0) & (v[0] < 0.0))).astype(np.int64)


def _propagators(table, E: float, n: int) -> np.ndarray:
    """Sixth-order Magnus propagators M_i(E) = exp(Omega_i) of the first n
    intervals, a (2, 2, n) stack (Blanes, Casas, Oteo and Ros, Phys. Rep. 470
    (2009) 151): from A_s = A(r + c_s h) at the three Gauss nodes, alpha_1 =
    h A_2, alpha_2 = (sqrt(15) h/3)(A_3 - A_1), alpha_3 = (10 h/3)(A_3 - 2 A_2 + A_1),
    C_1 = [alpha_1, alpha_2], C_2 = -[alpha_1, 2 alpha_3 + C_1]/60 and
    Omega = alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240.
    Omega = [[a, b], [c, -a]] squares to s^2 I, s^2 = a^2 + bc, so exp(Omega)
    = cosh(s) I + (sinh(s)/s) Omega, or cos/sin of sqrt(-s^2): det M_i = 1."""
    h, g1, g2, g3 = (x[..., :n] for x in table)
    a1 = g1 + np.multiply.outer([0.0, E, -E], h)  # A = [[., 1 + E - V], [1 - E + V, .]]
    c1 = _comm(a1, g2)
    c2 = _comm(a1, 2.0 * g3 + c1) / -60.0
    a, b, c = a1 + g3 / 12.0 + _comm(c1 - 20.0 * a1 - g3, g2 + c2) / 240.0
    s2 = a * a + b * c
    x = np.sqrt(np.abs(s2))
    hyp = s2 > 0.0
    ch = np.where(hyp, np.cosh(x), np.cos(x))
    sh = np.divide(np.where(hyp, np.sinh(x), np.sin(x)), x, out=np.ones_like(x), where=x > 0.0)
    return np.stack([np.stack([ch + sh * a, sh * b]), np.stack([sh * c, ch - sh * a])])


def _trajectory(table, E: float, y0, n: int):
    """States over the first n intervals of table from y0, shape (2, n + 1),
    as y_i = Y_i exp(ls_i); returns (Y, ls).

    P_i = M_i ... M_0 comes from a Hillis-Steele inclusive scan with doubling
    offsets, each level rescaled to unit 1-norm and its log-scale carried.
    O(n log n): it serves only callers that need every sample (eigenfunction,
    integrate_radial); phase counts use the O(n) reduction of _end_angle."""
    prod, nrm = _unit(_propagators(table, E, n))
    ls = np.log(nrm)
    d = 1
    while d < n:
        nxt, nrm = _unit(_mul(prod[..., d:], prod[..., :-d]))
        prod[..., d:] = nxt
        ls[d:] += ls[:-d] + np.log(nrm)
        d *= 2
    y0 = np.asarray(y0, dtype=float)
    Y = np.concatenate([y0[:, None], prod[:, 0] * y0[0] + prod[:, 1] * y0[1]], axis=1)
    ls = np.concatenate([[0.0], ls])
    if not (np.all(np.isfinite(Y[:, -1])) and math.isfinite(ls[-1])):
        raise ConvergenceError(f"sweep lost finiteness at E={E}")
    return Y, ls


def _reduce(prod: np.ndarray, k: np.ndarray | None = None):
    """Product M_{n-1} ... M_0 of a nonempty (2, 2, n) stack, up to a positive
    scale, by pairwise tree reduction; with the half-turn counts k of the M_i
    (see _end_angle), also that of the product, else None."""
    while prod.shape[-1] > 1:
        m = prod.shape[-1] // 2 * 2
        pairs, _ = _unit(_mul(prod[..., 1:m:2], prod[..., 0:m:2]))
        if k is not None:
            kp = k[0:m:2] + k[1:m:2]
            kp += (_half(pairs[:, 0]) - kp) % 2
            k = np.concatenate([kp, k[m:]])
        prod = np.concatenate([pairs, prod[..., m:]], axis=-1)
    return prod[..., 0], None if k is None else int(k[0])


def _end_value(table, E: float, y0, n: int) -> np.ndarray:
    """State after the first n intervals of table from y0, up to a positive scale."""
    y = _reduce(_propagators(table, E, n))[0] @ y0 if n else np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ConvergenceError(f"sweep lost finiteness at E={E}")
    return y


def _end_angle(table, E: float, y0, n: int) -> float:
    """Unwound angle of the state after the first n >= 1 intervals of table from
    y0, continued from atan2(y0) through every step: O(n), one atan2.

    Assumes each step turns every direction by less than pi: det M = 1, and
    elliptic steps rotate by at most 0.144 rad on the coarsest grids (Z = 136,
    kappa_ref = 1e-3, scale 0.5, E -> 1).  As det M > 0, a product P turns
    directions monotonically and P(-y) = -P y, so its lifted angle of e_0 pins
    the lift of every direction to within one half-turn.
    The reduction carries k = floor(that angle / pi) exactly: a leaf's angle is
    its principal value, in [-pi, pi), and G after F turns e_0 by k_F + k_G
    half-turns or one more, whichever matches the half-plane of GF e_0 (the
    parity of k).  The seed joins last, as a rotation by atan2(y0)."""
    prod = _propagators(table, E, n)
    p, k_p = _reduce(prod, -_half(prod[:, 0]))
    y = p @ y0
    if not np.all(np.isfinite(y)):
        raise ConvergenceError(f"sweep lost finiteness at E={E}")
    k_s = -int(_half(np.asarray(y0, dtype=float)))
    h = int(_half(y))
    k = k_p + k_s + (h - k_p - k_s) % 2
    u = -y if h else y  # turned into [0, pi): the angle within its half-turn
    return k * math.pi + math.atan2(u[1], u[0])


def _samples(Y: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Y_i exp(ls_i - max ls): the far side of a growing sweep underflows to zero."""
    return Y * np.exp(ls - ls.max())


def _winding(Y: np.ndarray) -> float:
    """Unwound rotation angle of the path through the columns of Y."""
    u = Y / np.abs(Y).sum(axis=0)
    a, b = u[:, :-1], u[:, 1:]
    return float(np.arctan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]).sum())


def _scaled_wronskian(o1, o2, i1, i2, E) -> float:
    """Wronskian of outward (o1, o2) and inward (i1, i2) end values, amplitude-scaled."""
    den = (abs(o1) + abs(o2)) * (abs(i1) + abs(i2))
    if den == 0.0:
        raise ConvergenceError(f"degenerate sweep amplitudes at E={E}")
    return float((o1 * i2 - o2 * i1) / den)


class _ShootingWorkspace:
    """Stage tables and sweep functionals for one (pot, ch, grid).

    Each direction's tables are built on first use, so a one-directional
    sweep pays only for its own."""

    def __init__(self, pot, ch: Channel, grid: RadialGrid):
        self.pot = pot
        self.ch = ch
        self.grid = grid
        self.n_int = grid.count - 1
        self.v_inf = pot.value_at_infinity
        self.v_grid = pot.evaluate(grid.points)

    @cached_property
    def fwd(self):
        """Outward stage tables."""
        r = self.grid.points
        return _stage_tables(self.pot, self.ch.tau * self.ch.k, r[:-1], np.diff(r))

    @cached_property
    def bwd(self):
        """Inward stage tables, stored in inward order."""
        r = self.grid.points
        return _stage_tables(self.pot, self.ch.tau * self.ch.k, r[:0:-1], -np.diff(r)[::-1])

    def _seed_out(self, E):
        return origin_series_seed(self.pot, self.ch, E, self.grid.points[0])

    def _seed_in(self, E):
        w = E - self.v_inf
        return 1.0, -math.sqrt((1.0 - w) / (1.0 + w))

    def phase(self, E: float) -> float:
        """Unwound matching phase; strictly decreasing in E."""
        theta = _end_angle(self.fwd, E, self._seed_out(E), self.n_int)
        return theta - decaying_tail_angle(E - self.v_inf)

    def count(self, E: float) -> int:
        """floor(phase/pi); drops by one at each eigenvalue as E grows."""
        return math.floor(self.phase(E) / math.pi)

    def bisect_count(
        self, level: int, lo: float, hi: float, c_lo: int, c_hi: int, width: float
    ) -> tuple[float, float]:
        """Bisect (lo, hi) with counts c_lo >= level > c_hi at its ends until it
        holds the crossing at level alone (c_lo == level == c_hi + 1) and is at
        most width wide, or cannot be split further."""
        while c_lo > level or c_hi < level - 1 or hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            c = self.count(mid)
            if c >= level:
                lo, c_lo = mid, c
            else:
                hi, c_hi = mid, c
        return lo, hi

    def match_index(self, E: float) -> int:
        """Outermost classically allowed grid index (fallback: least forbidden)."""
        r = self.grid.points
        Q = (E - self.v_grid) ** 2 - 1.0 - (self.ch.k / r) ** 2
        allowed = np.nonzero(Q >= 0.0)[0]
        i = int(allowed[-1]) if len(allowed) else int(np.argmax(Q))
        return int(min(max(i, 8), self.n_int - 8))

    def wronskian(self, E: float, i_match: int) -> float:
        """Scaled Wronskian of outward and inward sweeps at the match point."""
        o1, o2 = _end_value(self.fwd, E, self._seed_out(E), i_match)
        i1, i2 = _end_value(self.bwd, E, self._seed_in(E), self.n_int - i_match)
        return _scaled_wronskian(o1, o2, i1, i2, E)

    def eigenfunction(self, E: float, i_match: int):
        """Components on the full grid from both sweeps, plus their Wronskian."""
        Yo, ls_o = _trajectory(self.fwd, E, self._seed_out(E), i_match)
        Yi, ls_i = _trajectory(self.bwd, E, self._seed_in(E), self.n_int - i_match)
        out = _samples(Yo, ls_o)
        inw = _samples(Yi, ls_i)[:, ::-1]
        # join on the component the inward sweep resolves best
        (o1, o2), (i1, i2) = out[:, -1], inw[:, 0]
        scale = o1 / i1 if abs(i1) >= abs(i2) else o2 / i2
        psi = np.concatenate([out, scale * inw[:, 1:]], axis=1)
        return psi[0], psi[1], _scaled_wronskian(*Yo[:, -1], *Yi[:, -1], E)


def integrate_radial(
    pot,
    ch: Channel,
    E: float,
    grid: RadialGrid,
    direction: str = "outward",
    match_index: int | None = None,
) -> SweepResult:
    """One-directional sweep at trial energy E.

    Outward sweeps start from the origin series seed and run up to
    match_index (default: the whole grid); inward sweeps start from the
    decaying-tail seed at r_max and run down to match_index (default: 0).
    Samples outside the swept range are zero; inside it they are scaled so
    the largest log-amplitude is 0, with the far side of a growing sweep
    underflowing to zero.
    """
    v_inf = pot.value_at_infinity
    if not v_inf - 1.0 < E < v_inf + 1.0:
        raise ValueError(f"trial energy {E} outside the bound-state window of {pot!r}")
    ws = _ShootingWorkspace(pot, ch, grid)
    psi = np.zeros((2, ws.n_int + 1))
    if direction == "outward":
        i_stop = ws.n_int if match_index is None else int(match_index)
        Y, ls = _trajectory(ws.fwd, E, ws._seed_out(E), i_stop)
        psi[:, : i_stop + 1] = _samples(Y, ls)
        first, last, theta = 0, i_stop, _winding(Y)
    elif direction == "inward":
        i_stop = 0 if match_index is None else int(match_index)
        Y, ls = _trajectory(ws.bwd, E, ws._seed_in(E), ws.n_int - i_stop)
        psi[:, i_stop:] = _samples(Y, ls)[:, ::-1]
        first, last, theta = i_stop, ws.n_int, 0.0
    else:
        raise ValueError(f"direction must be 'outward' or 'inward', got {direction!r}")
    return SweepResult(direction, psi[0], psi[1], first, last, theta)


def matching_mismatch(
    pot, ch: Channel, E: float, grid: RadialGrid, match_index: int | None = None
) -> float:
    """Scaled Wronskian mismatch of the two sweeps; zero at eigenvalues."""
    ws = _ShootingWorkspace(pot, ch, grid)
    i_match = ws.match_index(E) if match_index is None else int(match_index)
    return ws.wronskian(E, i_match)


def count_nodes(samples, floor_ratio: float = 1e-10) -> int:
    """Strict interior sign changes, ignoring values below floor_ratio*max."""
    y = np.asarray(samples, dtype=float)
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak == 0.0:
        return 0
    y = y[np.abs(y) >= floor_ratio * peak]
    return int(np.count_nonzero(np.sign(y[1:]) * np.sign(y[:-1]) < 0))


def normalize(sol: RadialSolution) -> RadialSolution:
    """Rescale so the Simpson quadrature of psi1^2 + psi2^2 equals one."""
    r = sol.grid.points
    nrm = float(simpson(sol.psi1**2 + sol.psi2**2, x=r))
    if not math.isfinite(nrm) or nrm <= 0.0:
        raise ValueError(f"cannot normalize solution with norm integral {nrm}")
    s = 1.0 / math.sqrt(nrm)
    psi1 = s * sol.psi1
    psi2 = s * sol.psi2
    return replace(
        sol, psi1=psi1, psi2=psi2, norm=float(simpson(psi1**2 + psi2**2, x=r))
    )


def solve_eigenvalue(
    pot,
    ch: Channel,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
    bracket_hint: tuple[float, float] | None = None,
    grid: RadialGrid | None = None,
) -> RadialSolution:
    """The ch.n-th discrete eigenvalue of ch (counted from the bottom of the window).

    A bracket_hint (E_lo, E_hi) expected to contain the target state speeds
    up the search; it is clipped to the window, verified against the anchored
    phase count and discarded, with a DEBUG record on the "diracbound" logger,
    if it does not hold the requested state.  Unless the caller supplies a
    grid (e.g. one shared by the two solves of a comparison pair), the grid is
    rebuilt, with a DEBUG record, while it holds fewer than ch.n states or its
    tail spans fewer than 30 decay lengths of the state found.  The grid family
    reaches decay rates down to kappa = 1e-3, a binding of about 5e-7 mc^2.
    NoBoundStateError: even the longest grid, or the caller's, holds fewer
    than ch.n states.  ConvergenceError: the level found on the longest grid,
    or the caller's, decays slower than kappa = 1e-3 ("too weakly bound"), or
    the caller's grid is "too short".
    """
    v_inf = pot.value_at_infinity
    win_lo = v_inf - 1.0 + WINDOW_EDGE
    win_hi = v_inf + 1.0 - WINDOW_EDGE

    fixed_grid = grid
    hint, kappa_ref = bracket_hint, None
    last_bracket = None
    for _ in range(MAX_GRID_REBUILDS):
        if hint is not None:
            hint = (max(hint[0], win_lo), min(hint[1], win_hi))
            if not hint[0] < hint[1]:
                raise ValueError(f"bracket hint {bracket_hint} collapses inside the window")
        if kappa_ref is None:
            kappa_ref = reference_rate(pot, hint)
        grid = fixed_grid if fixed_grid is not None else build_grid(kappa_ref, grid_scale)
        ws = _ShootingWorkspace(pot, ch, grid)
        c_bot = ws.count(win_lo)
        if hint is not None:
            lo, hi = hint
            c_lo, c_hi = ws.count(lo), ws.count(hi)
            if not (c_bot - c_lo == ch.n - 1 and c_bot - c_hi >= ch.n):
                _log.debug(
                    "bracket hint %s rejected for %s: phase counts %d at the window "
                    "bottom, %d and %d at the hint ends",
                    hint,
                    ch,
                    c_bot,
                    c_lo,
                    c_hi,
                )
                hint = None
        if hint is None:
            lo, hi, c_lo = win_lo, win_hi, c_bot
            c_hi = ws.count(hi)
        n_found = c_bot - c_hi
        if n_found < ch.n:
            # the tail may simply be too short for a weakly bound state
            new_ref, reason = kappa_ref / 6.0, f"grid holds {n_found} of {ch.n} states"
        else:
            level = c_bot - (ch.n - 1)
            lo, hi = ws.bisect_count(level, lo, hi, c_lo, c_hi, math.inf)
            last_bracket = (lo, hi)
            i_match = ws.match_index(0.5 * (lo + hi))
            # brentq wraps f in a closure that refers to itself, so f stays
            # alive until a full gc pass; hold ws weakly so it dies with the solve
            ws_ref = weakref.ref(ws)
            try:
                # brentq evaluates both ends and returns one whose Wronskian is 0
                energy = brentq(
                    lambda e: ws_ref().wronskian(e, i_match),
                    lo,
                    hi,
                    xtol=max(0.01 * tol_e, 5e-16),
                    rtol=8.9e-16,
                )
            except ValueError:
                # the ends share a sign: the bracket isolates one state, so only
                # round-off at an end lying on the root can hide the sign change;
                # bisect the phase count instead
                _log.debug(
                    "Wronskian keeps one sign on (%r, %r); bisecting the phase count to %g",
                    lo,
                    hi,
                    tol_e,
                )
                lo, hi = ws.bisect_count(level, lo, hi, level, level - 1, tol_e)
                energy = 0.5 * (lo + hi)
            kappa_e = _decay_rate(energy - v_inf)
            if kappa_e >= 1e-3 and grid.r_max * kappa_e >= 30.0:
                break
            # tail too short for the state actually found: rebuild around it
            new_ref, reason = 0.95 * kappa_e, f"grid tail too short for E={energy!r}"
            # kept inside the isolating bracket: near threshold E +- 1e-5 spans several levels
            hint = (max(lo, energy - 1e-5), min(hi, energy + 1e-5))
        # kappa_e >= 1e-3 always fits the tail of a 1e-3 grid, so only a
        # missing state or one below the floor can stop a solve there
        if fixed_grid is not None or kappa_ref == 1e-3:
            if n_found < ch.n:
                raise NoBoundStateError(
                    f"{pot!r} supports {n_found} bound state(s) in channel {ch}, "
                    f"target was n={ch.n}"
                )
            if kappa_e < 1e-3:
                which = "supplied" if fixed_grid is not None else "longest"
                raise ConvergenceError(
                    f"{ch} state too weakly bound: the level found on the {which} grid "
                    f"(r_max={grid.r_max:.3g}) lies at E={energy!r}, so the state decays "
                    "slower than the grid family's kappa = 1e-3 floor"
                )
            raise ConvergenceError(
                f"supplied grid (r_max={grid.r_max:.3g}) is too short for the "
                f"state found at E={energy} (decay rate {kappa_e:.3g})"
            )
        new_ref = max(new_ref, 1e-3)
        _log.debug("%s: rebuilding with kappa_ref=%g (was %g)", reason, new_ref, kappa_ref)
        kappa_ref = new_ref
    else:
        raise ConvergenceError(
            f"grid did not stabilize after {MAX_GRID_REBUILDS} rebuilds; "
            f"last bracket {last_bracket}"
        )

    # an isolating bracket can be wide, so its midpoint's turning point may miss
    # the state's; join the sweeps at the turning point of the energy found
    i_match = ws.match_index(energy)
    psi1, psi2, mismatch = ws.eigenfunction(energy, i_match)
    sol = RadialSolution(
        ch=ch,
        E=energy,
        grid=grid,
        psi1=psi1,
        psi2=psi2,
        nodes1=0,
        nodes2=0,
        norm=0.0,
        potential=pot,
        V=ws.v_grid,
        match_radius=float(grid.points[i_match]),
        mismatch=mismatch,
    )
    sol = normalize(sol)
    return replace(sol, nodes1=count_nodes(sol.psi1), nodes2=count_nodes(sol.psi2))


def _uniform_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences on a uniformly spaced section."""
    d = np.full_like(y, np.nan)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    return d


def grid_derivative(y: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d/dr on the graded grid, section by section (NaN near section edges)."""
    s = grid.split_index
    r = grid.points
    d = np.full_like(y, np.nan)
    # inner section is uniform in x = log r: dy/dr = (dy/dx)/r
    x = np.log(r[: s + 1])
    d[: s + 1] = _uniform_derivative(y[: s + 1], x[1] - x[0]) / r[: s + 1]
    d[s:] = _uniform_derivative(y[s:], r[s + 1] - r[s])
    return d


def ode_residual(sol: RadialSolution) -> float:
    """Max pointwise residual of the radial system, scaled by local amplitude.

    Derivatives are fourth-order finite differences, whose own truncation
    error dominates the result: on PureCoulomb(0.5) 1s_1/2 it is 4.9e-7 at
    grid scale 1 and 3.4e-8 at scale 2, with the eigenvalue at round-off in
    both.
    """
    r, V = sol.grid.points, sol.V
    tk = sol.ch.tau * sol.ch.k
    d1 = grid_derivative(sol.psi1, sol.grid)
    d2 = grid_derivative(sol.psi2, sol.grid)
    r1 = d1 + (tk / r) * sol.psi1 - (1.0 + sol.E - V) * sol.psi2
    r2 = d2 - (tk / r) * sol.psi2 - (1.0 + V - sol.E) * sol.psi1
    amp = np.abs(sol.psi1) + np.abs(sol.psi2)
    denom = np.maximum(amp, 1e-3 * np.max(amp))
    scaled = np.maximum(np.abs(r1), np.abs(r2)) / denom
    return float(np.nanmax(scaled))
