"""Shooting solver for the coupled radial Dirac equations.

For a central potential V(r) and a channel with quantum numbers (tau, k),
the bound-state problem in rest-energy units (hbar = c = m = 1) reads

    psi1' = -(tau*k/r) psi1 + (1 + E - V) psi2,
    psi2' = +(tau*k/r) psi2 + (1 + V - E) psi1,

with psi1(0) = psi2(0) = 0 and unit L2 norm of the component pair.  The
discrete spectrum lives in the window |E - V(inf)| < 1.

The solver combines three classical ingredients:

* fixed Cash-Karp fifth-order sweeps over a graded radial grid (log-spaced
  near the origin, linear in the tail) with per-interval stage tables of
  tau*k/r and V precomputed once, so a full sweep is a cheap scalar
  function of the trial energy;
* Pruefer phase counting: the continuously unwound rotation angle of
  (psi1, psi2) at r_max, minus the angle of the decaying tail solution, is
  strictly decreasing in E and drops through a multiple of pi at every
  eigenvalue of the truncated problem.  Counting those crossings from the
  bottom of the spectral window locates the n-th eigenvalue by index, so a
  bisection bracket can neither miss a state nor confuse neighbours;
* Wronskian matching: inside the phase-isolated bracket the eigenvalue is
  polished by a Brent root find on the normalized Wronskian of outward and
  inward sweeps evaluated at the outer classical turning point, where both
  sweeps are locally oscillatory and the mismatch is most sensitive.

The eigenfunction is assembled from the two sweeps joined at the matching
radius and normalized with Simpson quadrature on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .channels import Channel
from .errors import ConvergenceError, NoBoundStateError

# window edge margin: kappa = sqrt(1 - (E - V_inf)^2) degenerates at |w| = 1
WINDOW_EDGE = 1e-9
# bracket width below which phase bisection hands over to Wronskian root finding
PHASE_BRACKET = 1e-6
# renormalization threshold for off-eigenvalue sweeps
RENORM_LIMIT = 1e250
RENORM_FACTOR = 1e-250

# Cash-Karp 5(4) tableau (fifth-order weights only; steps are fixed per
# grid interval, so no embedded error estimate is needed)
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0
_A51, _A52, _A53, _A54 = -11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0
_A61, _A62, _A63, _A64, _A65 = (
    1631.0 / 55296.0,
    175.0 / 512.0,
    575.0 / 13824.0,
    44275.0 / 110592.0,
    253.0 / 4096.0,
)
_B1, _B3, _B4, _B6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
_STAGE_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)


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
    match_ratio: float  # psi2/psi1 at the terminal point of the sweep


def build_grid(kappa_ref: float, scale: float = 1.0) -> RadialGrid:
    """Mesh sized for states decaying like exp(-kappa_ref * r).

    scale multiplies the point density in both sections; scale >= 0.25
    keeps the grid above the 1000-point floor needed for the quadratures.
    """
    if not 1e-3 <= kappa_ref <= 1.0:
        raise ValueError(f"kappa_ref must lie in [1e-3, 1], got {kappa_ref}")
    if scale < 0.25:
        raise ValueError(f"grid scale must be >= 0.25, got {scale}")
    r_min = 1e-6
    r_cross = 2.0 / kappa_ref
    r_max = 35.0 / kappa_ref
    h_log = 0.004 / scale
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


def _stage_tables(pot, tk: float, base: np.ndarray, step: np.ndarray) -> list:
    """Per-interval tuples of (tau*k/r, V) at the six stage radii."""
    cols = []
    for c in _STAGE_C:
        rs = base + c * step
        cols.append((tk / rs, pot.evaluate(rs)))
    out = []
    for i in range(len(base)):
        out.append(tuple((cols[s][0][i], cols[s][1][i]) for s in range(6)))
    return out


def _sweep(stages, hs, E, y1, y2, n_steps, winding=False, out1=None, out2=None):
    """Integrate the first n_steps intervals; returns (y1, y2, theta) at their end.

    Inward sweeps pass tables and steps in inward order and reversed output views."""
    theta = 0.0
    p = 1.0 + E
    q = 1.0 - E
    rescales = []
    if out1 is not None:
        out1[0] = y1
        out2[0] = y2
    for i in range(n_steps):
        st = stages[i]
        h = hs[i]
        tkr, V = st[0]
        k1a = (p - V) * y2 - tkr * y1
        k1b = (q + V) * y1 + tkr * y2
        tkr, V = st[1]
        t1 = y1 + h * (_A21 * k1a)
        t2 = y2 + h * (_A21 * k1b)
        k2a = (p - V) * t2 - tkr * t1
        k2b = (q + V) * t1 + tkr * t2
        tkr, V = st[2]
        t1 = y1 + h * (_A31 * k1a + _A32 * k2a)
        t2 = y2 + h * (_A31 * k1b + _A32 * k2b)
        k3a = (p - V) * t2 - tkr * t1
        k3b = (q + V) * t1 + tkr * t2
        tkr, V = st[3]
        t1 = y1 + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        t2 = y2 + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        k4a = (p - V) * t2 - tkr * t1
        k4b = (q + V) * t1 + tkr * t2
        tkr, V = st[4]
        t1 = y1 + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        t2 = y2 + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        k5a = (p - V) * t2 - tkr * t1
        k5b = (q + V) * t1 + tkr * t2
        tkr, V = st[5]
        t1 = y1 + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a)
        t2 = y2 + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b)
        k6a = (p - V) * t2 - tkr * t1
        k6b = (q + V) * t1 + tkr * t2
        ny1 = y1 + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B6 * k6a)
        ny2 = y2 + h * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B6 * k6b)
        if winding:
            # atan2 is scale-invariant; normalize first so the quadratic
            # products cannot overflow when |y| sits near RENORM_LIMIT
            s = 1.0 / (abs(y1) + abs(y2))
            u1, u2 = y1 * s, y2 * s
            theta += math.atan2(u1 * ny2 - u2 * ny1, u1 * ny1 + u2 * ny2)
        y1, y2 = ny1, ny2
        if out1 is not None:
            out1[i + 1] = y1
            out2[i + 1] = y2
        if abs(y1) + abs(y2) > RENORM_LIMIT:
            y1 *= RENORM_FACTOR
            y2 *= RENORM_FACTOR
            rescales.append(i + 1)
    if not (math.isfinite(y1) and math.isfinite(y2)):
        raise ConvergenceError(f"sweep lost finiteness at E={E}")
    if out1 is not None:
        for idx in rescales:
            out1[: idx + 1] *= RENORM_FACTOR
            out2[: idx + 1] *= RENORM_FACTOR
    return y1, y2, theta


class _ShootingWorkspace:
    """Stage tables and scalar sweep functionals for one (pot, ch, grid)."""

    def __init__(self, pot, ch: Channel, grid: RadialGrid):
        self.pot = pot
        self.ch = ch
        self.grid = grid
        r = grid.points
        h = np.diff(r)
        self.n_int = len(r) - 1
        tk = ch.tau * ch.k
        self.stages_fwd = _stage_tables(pot, tk, r[:-1], h)
        self.h_fwd = h.tolist()
        self.stages_bwd = _stage_tables(pot, tk, r[:0:-1], -h[::-1])
        self.h_bwd = (-h[::-1]).tolist()
        self.v_inf = pot.value_at_infinity
        self.v_grid = pot.evaluate(r)

    def _seed_out(self, E):
        return origin_series_seed(self.pot, self.ch, E, self.grid.points[0])

    def _seed_in(self, E):
        w = E - self.v_inf
        return 1.0, -math.sqrt((1.0 - w) / (1.0 + w))

    def phase(self, E: float) -> float:
        """Unwound matching phase; strictly decreasing in E."""
        s1, s2 = self._seed_out(E)
        _, _, theta = _sweep(self.stages_fwd, self.h_fwd, E, s1, s2, self.n_int, winding=True)
        return math.atan2(s2, s1) + theta - decaying_tail_angle(E - self.v_inf)

    def count(self, E: float) -> int:
        """floor(phase/pi); drops by one at each eigenvalue as E grows."""
        return math.floor(self.phase(E) / math.pi)

    def match_index(self, E: float) -> int:
        """Outermost classically allowed grid index (fallback: least forbidden)."""
        r = self.grid.points
        Q = (E - self.v_grid) ** 2 - 1.0 - (self.ch.k / r) ** 2
        allowed = np.nonzero(Q >= 0.0)[0]
        i = int(allowed[-1]) if len(allowed) else int(np.argmax(Q))
        return int(min(max(i, 8), self.n_int - 8))

    def wronskian(self, E: float, i_match: int) -> float:
        """Scaled Wronskian of outward and inward sweeps at the match point."""
        s1, s2 = self._seed_out(E)
        o1, o2, _ = _sweep(self.stages_fwd, self.h_fwd, E, s1, s2, i_match)
        t1, t2 = self._seed_in(E)
        i1, i2, _ = _sweep(self.stages_bwd, self.h_bwd, E, t1, t2, self.n_int - i_match)
        den = (abs(o1) + abs(o2)) * (abs(i1) + abs(i2))
        if den == 0.0:
            raise ConvergenceError(f"degenerate sweep amplitudes at E={E}")
        return (o1 * i2 - o2 * i1) / den

    def eigenfunction(self, E: float, i_match: int):
        """Assemble components on the full grid from both sweeps."""
        n = self.n_int + 1
        p1 = np.zeros(n)
        p2 = np.zeros(n)
        s1, s2 = self._seed_out(E)
        o1, o2, _ = _sweep(self.stages_fwd, self.h_fwd, E, s1, s2, i_match, out1=p1, out2=p2)
        q1 = np.zeros(n)
        q2 = np.zeros(n)
        t1, t2 = self._seed_in(E)
        i1, i2, _ = _sweep(
            self.stages_bwd, self.h_bwd, E, t1, t2, self.n_int - i_match,
            out1=q1[::-1], out2=q2[::-1],
        )
        # join on the component the inward sweep resolves best
        scale = o1 / i1 if abs(i1) >= abs(i2) else o2 / i2
        p1[i_match + 1 :] = scale * q1[i_match + 1 :]
        p2[i_match + 1 :] = scale * q2[i_match + 1 :]
        return p1, p2


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
    Samples outside the swept range are zero.
    """
    v_inf = pot.value_at_infinity
    if not v_inf - 1.0 < E < v_inf + 1.0:
        raise ValueError(f"trial energy {E} outside the bound-state window of {pot!r}")
    ws = _ShootingWorkspace(pot, ch, grid)
    n = ws.n_int + 1
    p1 = np.zeros(n)
    p2 = np.zeros(n)
    if direction == "outward":
        i_stop = ws.n_int if match_index is None else int(match_index)
        s1, s2 = ws._seed_out(E)
        y1, y2, theta = _sweep(
            ws.stages_fwd, ws.h_fwd, E, s1, s2, i_stop, winding=True, out1=p1, out2=p2
        )
        first, last = 0, i_stop
    elif direction == "inward":
        i_stop = 0 if match_index is None else int(match_index)
        t1, t2 = ws._seed_in(E)
        y1, y2, theta = _sweep(
            ws.stages_bwd, ws.h_bwd, E, t1, t2, ws.n_int - i_stop, out1=p1[::-1], out2=p2[::-1]
        )
        first, last = i_stop, ws.n_int
    else:
        raise ValueError(f"direction must be 'outward' or 'inward', got {direction!r}")
    ratio = y2 / y1 if y1 != 0.0 else math.copysign(math.inf, y2)
    return SweepResult(
        direction=direction,
        psi1=p1,
        psi2=p2,
        first_index=first,
        last_index=last,
        theta=theta,
        match_ratio=ratio,
    )


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
    n_target: int | None = None,
    *,
    grid_scale: float = 1.0,
    tol_e: float = 1e-10,
    bracket_hint: tuple[float, float] | None = None,
    max_grid_rebuilds: int = 5,
    grid: RadialGrid | None = None,
) -> RadialSolution:
    """n_target-th discrete eigenvalue (counted from the bottom of the window).

    A bracket_hint (E_lo, E_hi) expected to contain the target state speeds
    up the search; it is verified against the anchored phase count and
    silently discarded if it does not isolate the requested state.  A grid
    supplied by the caller (e.g. one shared between the two solves of a
    comparison pair) is used as-is instead of the rebuild loop.
    """
    if n_target is None:
        n_target = ch.n
    if n_target < 1:
        raise ValueError(f"n_target must be >= 1, got {n_target}")
    v_inf = pot.value_at_infinity
    win_lo = v_inf - 1.0 + WINDOW_EDGE
    win_hi = v_inf + 1.0 - WINDOW_EDGE

    hint = None
    if bracket_hint is not None:
        hint = (max(bracket_hint[0], win_lo), min(bracket_hint[1], win_hi))
        if not hint[0] < hint[1]:
            raise ValueError(f"bracket hint {bracket_hint} collapses inside the window")
        kappa_ref = min(_decay_rate(hint[0] - v_inf), _decay_rate(hint[1] - v_inf))
        kappa_ref = min(max(kappa_ref, 1e-3), 1.0)
    else:
        kappa_ref = 0.25

    fixed_grid = grid
    last_bracket = None
    for _ in range(max_grid_rebuilds):
        grid = fixed_grid if fixed_grid is not None else build_grid(kappa_ref, grid_scale)
        ws = _ShootingWorkspace(pot, ch, grid)
        c_bot = ws.count(win_lo)
        lo = hi = None
        if hint is not None:
            c_lo = ws.count(hint[0])
            c_hi = ws.count(hint[1])
            if c_bot - c_lo == n_target - 1 and c_bot - c_hi >= n_target:
                lo, hi = hint
            else:
                hint = None
        if lo is None:
            lo, hi = win_lo, win_hi
            c_hi = ws.count(hi)
            n_found = c_bot - c_hi
            if n_found < n_target:
                if n_found == 0 and kappa_ref > 6e-3 and fixed_grid is None:
                    # tail may simply be too short for a weakly bound state
                    kappa_ref = max(kappa_ref / 6.0, 1e-3)
                    continue
                raise NoBoundStateError(
                    f"{pot!r} supports {n_found} bound state(s) in channel {ch}, "
                    f"target was n={n_target}"
                )
        level = c_bot - (n_target - 1)
        while hi - lo > PHASE_BRACKET:
            mid = 0.5 * (lo + hi)
            if ws.count(mid) >= level:
                lo = mid
            else:
                hi = mid
        last_bracket = (lo, hi)
        i_match = ws.match_index(0.5 * (lo + hi))
        w_lo = ws.wronskian(lo, i_match)
        w_hi = ws.wronskian(hi, i_match)
        if w_lo == 0.0:
            energy = lo
        elif w_hi == 0.0:
            energy = hi
        elif w_lo * w_hi < 0.0:
            energy = brentq(
                lambda e: ws.wronskian(e, i_match),
                lo,
                hi,
                xtol=max(0.01 * tol_e, 5e-16),
                rtol=8.9e-16,
            )
        else:
            # the Wronskian failed to change sign (seen only with degenerate
            # brackets); fall back to phase bisection at full tolerance
            while hi - lo > tol_e:
                mid = 0.5 * (lo + hi)
                if ws.count(mid) >= level:
                    lo = mid
                else:
                    hi = mid
            energy = 0.5 * (lo + hi)
        kappa_e = _decay_rate(energy - v_inf)
        if kappa_e < 1e-3:
            raise ConvergenceError(
                f"state at E={energy} is too weakly bound for the grid family "
                f"(decay rate {kappa_e:.2e})"
            )
        if grid.r_max * kappa_e >= 30.0:
            break
        if fixed_grid is not None:
            raise ConvergenceError(
                f"supplied grid (r_max={grid.r_max:.3g}) is too short for the "
                f"state found at E={energy} (decay rate {kappa_e:.3g})"
            )
        # tail too short for the state actually found: rebuild around it
        kappa_ref = 0.95 * kappa_e
        hint = (energy - 1e-5, energy + 1e-5)
    else:
        raise ConvergenceError(
            f"grid did not stabilize after {max_grid_rebuilds} rebuilds; "
            f"last bracket {last_bracket}"
        )

    psi1, psi2 = ws.eigenfunction(energy, i_match)
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
        match_radius=float(grid.points[i_match]),
        mismatch=ws.wronskian(energy, i_match),
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


def ode_residual(sol: RadialSolution, pot=None) -> float:
    """Max pointwise residual of the radial system, scaled by local amplitude.

    Derivatives are fourth-order finite differences, so the result reflects
    the integrator and assembly accuracy rather than the stencil's own
    truncation error.
    """
    if pot is None:
        pot = sol.potential
    r = sol.grid.points
    V = pot.evaluate(r)
    tk = sol.ch.tau * sol.ch.k
    d1 = grid_derivative(sol.psi1, sol.grid)
    d2 = grid_derivative(sol.psi2, sol.grid)
    r1 = d1 + (tk / r) * sol.psi1 - (1.0 + sol.E - V) * sol.psi2
    r2 = d2 - (tk / r) * sol.psi2 - (1.0 + V - sol.E) * sol.psi1
    amp = np.abs(sol.psi1) + np.abs(sol.psi2)
    denom = np.maximum(amp, 1e-3 * np.max(amp))
    scaled = np.maximum(np.abs(r1), np.abs(r2)) / denom
    return float(np.nanmax(scaled))
