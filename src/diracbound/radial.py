"""Shooting solver for the coupled radial Dirac equations.

For a central potential V(r) and a channel with quantum numbers (tau, k),
the bound-state problem in rest-energy units (hbar = c = m = 1) reads

    psi1' = -(tau*k/r) psi1 + (1 + E - V) psi2,
    psi2' = +(tau*k/r) psi2 + (1 + V - E) psi1,

with psi1(0) = psi2(0) = 0, unit L2 norm and the discrete spectrum in the
window |E - V(inf)| < 1.  The solver combines:

* sixth-order Magnus steps over a mapped radial grid (log-spaced near the
  origin, linear in the tail): each step is the exact exponential M_i(E) of a
  traceless generator (det M_i = 1), a cubic in E built once per grid,
  scaled by e^-x where it grows like e^x, and the inward steps are
  adjugates.  A pass at E meets the outward sweep and the inward one at
  E's own match point: the outermost point where Q = (E - V)^2 - 1 -
  (k/r)^2 >= 0, else where Q peaks (every nodeless state); the inward sweep
  starts TAIL_CUT decay lengths past it if the grid reaches further (see
  _probe).  It writes -M_i(E) into the workspace's one band, a unit
  lower-triangular system that does not depend on the join; a BLAS dtbsv
  forward substitution on it gives the outward sweep and the transposed back
  substitution the inward one (see _trajectory): every state of both, for
  the Wronskian, the phase count and the eigenfunction alike, so one pass
  per energy serves all three;
* Pruefer phase counting: the unwound angle of (psi1, psi2) at r_max less
  that of the decaying tail, equally the outward angle less the inward one at
  any match point, drops through a multiple of pi at every eigenvalue of the
  truncated problem.  Counted from the window bottom (whole half-turns are
  the states' half-plane changes, as integers), it locates the n-th level by
  index; bisection, at midpoints in ln(V_inf + 1 - E) as a Coulomb tail's
  levels crowd toward the top, stops once the bracket holds that state
  alone.  On a grid the solve may still rebuild, the search stops where
  r_max kappa = 30, as no level above passes the tail rule (solve_eigenvalue);
* Wronskian matching: Brent (xtol BRENT_XTOL) on the sine of the angle
  between the sweeps, whose sign is the same at any match point (det M_i =
  1, positive scales).  It vanishes exactly where the count drops: an
  isolating bracket shows one sign change unless round-off puts an end on
  the root, and then the end with the smaller |W| is taken;
* one shooting correction (W. R. Johnson, Atomic Structure Theory, 2007,
  ch. 2): W(y, z)' = (E - E')(y1 z1 + y2 z2) for solutions at E and E', so the
  level is E - w/N, clamped to the bracket: w the sweeps' Wronskian at the join,
  N psi's norm by Simpson in xi plus the power law below r_min (grid_integral).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.optimize import brentq

from .channels import Channel
from .errors import ConvergenceError, NoBoundStateError

_log = logging.getLogger(__name__)

# window edge margin: kappa = sqrt(1 - (E - V_inf)^2) degenerates at |w| = 1
WINDOW_EDGE = 1e-9
# Brent's absolute tolerance on E; the shooting correction moves E the rest of the
# way, but psi stays sampled at Brent's root
BRENT_XTOL = 1e-14

LONGEST_KAPPA_REF = 1e-3  # the least kappa_ref, that of the longest grid (r_max = 35000)
# weight a of ln r in the grid coordinate xi = a ln r + r/rho (see build_grid)
GRID_LOG_WEIGHT = 0.5
# grid density multiplier of every solve that takes no other: the coarsest at which
# every accuracy gate holds, a residual error bar of 1e-12 mc^2 among them (README)
DEFAULT_GRID_SCALE = 0.75
# decay lengths kappa (r_e - r_i) a pass sweeps past its match point r_i, where the
# inward seed's error has fallen by e^-2 TAIL_CUT; the grid may end sooner (see _probe)
TAIL_CUT = 40.0
# Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of a step
_GAUSS_C = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial mesh uniform in xi = a ln r + r/rho (see build_grid), log-spaced
    near the origin and linear in the tail.  The inner radius is held at 1e-6
    (<= 1e-6/kappa for every bound state, as kappa <= 1), the outer one at
    35/kappa_ref."""

    r_min: float
    r_max: float
    points: np.ndarray
    kappa_ref: float
    scale: float

    @property
    def count(self) -> int:
        return len(self.points)

    @cached_property
    def xi_map(self) -> tuple[float, np.ndarray]:
        """The step h of the points in xi = a ln r + r/rho (see build_grid) and dxi/dr
        = a/r + 1/rho at each, kept once derived; a ValueError unless uniform in xi."""
        a, r = GRID_LOG_WEIGHT, self.points
        rho = _grid_map(self.kappa_ref, self.scale)[1]
        xi = a * np.log(r) + r / rho
        h = (xi[-1] - xi[0]) / (r.size - 1)
        if not np.max(np.abs(np.diff(xi) - h)) <= 1e-6 * h:  # built grids: within 2e-11 h
            raise ValueError("grid points are not uniform in xi; build the grid with build_grid")
        dxi = a / r + 1.0 / rho
        dxi.setflags(write=False)  # kept with a grid that build_grid shares
        return h, dxi


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """A converged, normalized bound state."""

    ch: Channel
    E: float  # Brent's root (or the end taken) plus the shooting correction
    grid: RadialGrid
    psi1: np.ndarray  # psi1, psi2 and mismatch: at E before the correction
    psi2: np.ndarray
    nodes1: int
    nodes2: int
    potential: object
    V: np.ndarray  # the potential on grid.points
    match_radius: float
    mismatch: float  # Wronskian residual of the two sweeps at that E


def _grid_map(kappa_ref: float, scale: float) -> tuple[float, float]:
    """The xi step h and length rho of the grid coordinate xi = a ln r + r/rho."""
    h = 0.008 / scale
    return h, (0.025 / (kappa_ref * scale)) / h


@lru_cache(maxsize=2)
def build_grid(kappa_ref: float, scale: float = DEFAULT_GRID_SCALE) -> RadialGrid:
    """Mesh for states decaying like exp(-kappa_ref r), uniform in xi = a ln r +
    r/rho (a = GRID_LOG_WEIGHT), step h = 0.008/scale, rho = 3.125/kappa_ref:
    dr/r -> h/a near the origin, dr -> h rho = 0.025/(kappa_ref scale) in the
    tail.  About 2490 (kappa_ref = 1) to 2920 (1e-3) points times scale, 1870
    to 2190 at the default 0.75, so scale >= 0.5 keeps the 1000 points the
    quadratures need (1244 at 1).  Shared, its arrays read-only: the last two
    grids built are kept, as every solve starts on the kappa_ref = 0.05 grid
    or the longest (see reference_rate)."""
    if not LONGEST_KAPPA_REF <= kappa_ref <= 1.0:
        raise ValueError(f"kappa_ref must lie in [1e-3, 1], got {kappa_ref}")
    if not 0.5 <= scale < math.inf:
        raise ValueError(f"grid scale must be finite and >= 0.5, got {scale}")
    a, r_min, r_max = GRID_LOG_WEIGHT, 1e-6, 35.0 / kappa_ref
    h, rho = _grid_map(kappa_ref, scale)
    xi_min, xi_max = (a * math.log(r) + r / rho for r in (r_min, r_max))
    xi = np.linspace(xi_min, xi_max, math.ceil((xi_max - xi_min) / h) + 1)
    # convex Newton in t = ln r, from above: a t < xi and e^t/rho <= xi - a ln r_min
    t = np.minimum(xi / a, np.log(rho * (xi - a * math.log(r_min))))
    dt = math.inf
    while np.max(np.abs(dt)) >= 1e-10:  # the error left is O(dt^2)
        e = np.exp(t) / rho
        dt = (a * t + e - xi) / (a + e)
        t -= dt
    points = np.exp(t)
    points[0], points[-1] = r_min, r_max
    points.setflags(write=False)
    return RadialGrid(r_min=r_min, r_max=r_max, points=points, kappa_ref=kappa_ref, scale=scale)


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


def _decay_rate(w: float) -> float:
    return math.sqrt(max((1.0 - w) * (1.0 + w), 0.0))


def reference_rate(pot, bracket: tuple[float, float] | None) -> float:
    """kappa_ref of a solve's first grid, for a state expected in bracket (E_lo,
    E_hi) or anywhere if None: 0.05, whose tail (r_max = 700) holds every state
    with kappa >= 30/700 = 0.043 (2006 points at the default scale), unless the
    slower decay rate at the bracket's ends lies below 30/700; then the longest
    grid (2190 points).  So every solve runs on the two grids build_grid keeps."""
    if bracket is None:
        return 0.05
    v_inf = pot.value_at_infinity
    return 0.05 if min(_decay_rate(e - v_inf) for e in bracket) >= 30.0 / 700.0 else LONGEST_KAPPA_REF


def _stage_tables(pot, tk: float, base: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each interval's Magnus generator as a cubic in E, Omega_i(E) = P0 + E P1 +
    E^2 P2 + E^3 P3: a (4, 3, n) array of (3, n) stacks (a, b, c) of traceless
    [[a, b], [c, -a]] (Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009) 151).
    From A_s = A(r + c_s h) at the three Gauss nodes, alpha_1 = h A_2, alpha_2 =
    (sqrt(15) h/3)(A_3 - A_1), alpha_3 = (10 h/3)(A_3 - 2 A_2 + A_1), C_1 =
    [alpha_1, alpha_2] and C_2 = -[alpha_1, 2 alpha_3 + C_1]/60, Omega = alpha_1
    + alpha_3/12 + [C_1 - 20 alpha_1 - alpha_3, alpha_2 + C_2]/240.  The
    commutators are written out in (a, s, t), b = s + t, c = s - t, where [x, y]
    = 2 (x_t y_s - x_s y_t, x_a y_t - x_t y_a, x_a y_s - x_s y_a): alpha_1 = (A,
    h, T) + E (0, 0, h), alpha_2 = (P, 0, -W) and alpha_3 = (R, 0, -U), so C_1 is
    linear in E, C_2 quadratic and P3 = (0, h^3 P/90, h^3 P^2/900) in (a, s,
    t).  P, W, R, U are differences of tau k/r and V at the nodes: A's entries
    would lose V's digits to the 1 +- E.  The leading part alpha_1 + alpha_3/12
    + E (0, h, -h) is added last, in (a, b, c): the commutators' round-off lies
    far below an ulp of Omega."""
    rs = base + _GAUSS_C[:, None] * h
    k, v = tk / rs, pot.evaluate(rs)
    f, g = (math.sqrt(15.0) / 3.0) * h, (10.0 / 3.0) * h
    A, T = -h * k[1], -h * v[1]
    P, W = f * (k[0] - k[2]), f * (v[2] - v[0])
    R, U = g * (2.0 * k[1] - k[2] - k[0]), g * (v[2] - 2.0 * v[1] + v[0])
    hP, hW = h * P, h * W
    Q, Rp, Up = A * W + T * P, R + hW, U + hP
    # C_1 = 2 (hW, -Q, -hP) + E (0, -2 hP, 0), so C_1 - 20 alpha_1 - alpha_3 = x0 + E
    # x1, x1 = (0, -2 hP, -20 h), 2 alpha_3 + C_1 = 2 (Rp, -Q, -Up) + E (0, -2 hP, 0)
    # and alpha_2 + C_2 = 120 (z0 + E z1 + E^2 (z2a, 0, 0))
    x0a, x0s, x0t = 2.0 * hW - 20.0 * A - R, -2.0 * Q - 20.0 * h, U - 2.0 * hP - 20.0 * T
    z0a, z0s, z0t = (P / 120.0 + (T * Q - h * Up) / 1800.0, (A * Up + T * Rp) / 1800.0,
                     (A * Q + h * Rp) / 1800.0 - W / 120.0)
    h1800 = h / 1800.0
    z1a, z1s, z1t, z2a = h1800 * (Q + P * T), h1800 * Rp, h1800 * (P * A), h1800 * hP
    # Omega = alpha_1 + alpha_3/12 + [x0 + E x1, z0 + E z1 + E^2 (z2a, 0, 0)]/2 by
    # powers of E: [x0, z]/2 = (x0_t z_s - x0_s z_t, ...), [x1, z]/2 = 2 h (P z_t -
    # 10 z_s, 10 z_a, P z_a)
    h2, h20, h2P = 2.0 * h, 20.0 * h, 2.0 * hP
    omega = (  # (a, s, t) of the commutator's share of P0, P1, P2 and P3
        (x0t * z0s - x0s * z0t, x0a * z0t - x0t * z0a, x0a * z0s - x0s * z0a),
        ((x0t * z1s - x0s * z1t) + h2 * (P * z0t - 10.0 * z0s),
         (x0a * z1t - x0t * z1a) + h20 * z0a, (x0a * z1s - x0s * z1a) + h2P * z0a),
        (h2 * (P * z1t - 10.0 * z1s), h20 * z1a - x0t * z2a, h2P * z1a - x0s * z2a),
        (0.0, h20 * z2a, h2P * z2a),
    )
    out = np.empty((4, 3, h.size))
    for o, (a, s, t) in zip(out, omega):
        o[0] = a
        np.add(s, t, out=o[1])
        np.subtract(s, t, out=o[2])
    # alpha_1 + alpha_3/12 + E (0, h, -h) in (a, b, c)
    u12 = U / 12.0
    out[0, 0] += A + R / 12.0
    out[0, 1] += h * (1.0 - v[1]) - u12
    out[0, 2] += h * (1.0 + v[1]) + u12
    out[1, 1] += h
    out[1, 2] -= h
    return out


def _half(p: np.ndarray, q: np.ndarray):
    """True where the vector (q, p) points into [pi, 2 pi): p < 0, or p = 0 and q < 0."""
    h = p < 0.0
    if np.count_nonzero(p) < p.size:  # on the x axis, only -x lies in [pi, 2 pi)
        h |= (p == 0.0) & (q < 0.0)
    return h


def _steps(table, E: float, band: np.ndarray) -> np.ndarray:
    """Write -M_j(E), the table's sixth-order Magnus steps M_j(E) = exp(Omega_j)
    negated, into their four slots of a band (see _trajectory), Omega_j(E) by
    one Horner pass over the table's cubic (see _stage_tables); return their
    log-scales x_j.  Omega = [[a, b], [c, -a]] squares to s^2 I, s^2 = a^2 +
    bc, so exp(Omega) = cosh(s) I + (sinh(s)/s) Omega, or cos/sin of sqrt(-s^2):
    det M_j = 1.  A hyperbolic step (s^2 > 0) is scaled by e^(-x), x = s, from
    one exp: with t = e^(-2x) - 1, e^(-x) cosh x = 1 + t/2 and e^(-x) sinh(x)/x
    = -t/(2x), so a sweep's states stay O(1); an elliptic step keeps x_j = 0.
    The nodes are symmetric, so the step back over interval j is exp(-Omega_j)
    = adj(M_j), with the same scale."""
    p0, p1, p2, p3 = table
    omega = p3 * E  # a new stack: the table serves every energy
    for p in (p2, p1):
        omega += p
        omega *= E
    omega += p0
    a, b, c = omega
    s2 = a * a + b * c
    x = np.sqrt(np.abs(s2))
    ell = (s2 <= 0.0).nonzero()[0]  # elliptic steps: the few in classically allowed regions
    if ell.size:  # none on a pass with no allowed point
        xe = x[ell]
        x[ell] = np.inf  # no 0/0 where s^2 = 0: the hyperbolic forms there are replaced
    nsh = np.expm1(x * -2.0)
    nsh *= 0.5
    nch = -1.0 - nsh  # -e^(-x) cosh x
    nsh /= x  # -e^(-x) sinh(x)/x
    if ell.size:
        nch[ell] = -np.cos(xe)
        nsh[ell] = -np.divide(np.sin(xe), xe, out=np.ones(xe.size), where=xe > 0.0)
        x[ell] = 0.0
    out = band[: x.size]
    a *= nsh
    np.add(nch, a, out=out[:, 0, 2])
    np.multiply(nsh, c, out=out[:, 0, 3])
    np.multiply(nsh, b, out=out[:, 1, 1])
    np.subtract(nch, a, out=out[:, 1, 2])
    return x


def _trajectory(band: np.ndarray, i: int, y_out, y_in) -> np.ndarray:
    """Every state of both sweeps over the n steps of a (n + 1, 2, 4) band (see
    _steps) met at grid index i, in grid order, each seed scaled to unit
    1-norm: a fresh (2, n + 2) array of the outward states y_0 ... y_i from
    y_out, then the inward states z_i ... z_n from y_in.

    Per state, the band holds its two columns of a unit lower-triangular
    matrix L with three subdiagonals in the interleaved unknowns (y_0[0],
    y_0[1], y_1[0], ...): the diagonal, then -M_j below it.  The outward
    recurrence y_(j+1) = M_j y_j is L y = (y_out, 0, ...), solved by a BLAS
    dtbsv forward substitution on the first 2i + 2 unknowns (Dongarra, Du
    Croz, Hammarling and Hanson, ACM TOMS 14 (1988) 1).  As adj M = J M^T J^-1,
    J = [[0, 1], [-1, 0]], the inward recurrence z_j = adj(M_j) z_(j+1) is L^T u
    = (0, ..., J^-1 y_in) in u = J^-1 z on the unknowns from 2i, solved by
    dtbsv's transposed back substitution and turned to z = J u in place:
    neither solve depends on the band past its own unknowns."""
    b = band.reshape(-1, 4)
    y = np.zeros(b.shape[0] + 2)
    (p, q), (r, s) = y_out, y_in
    y[:2] = p / (abs(p) + abs(q)), q / (abs(p) + abs(q))
    y[-2:] = -s / (abs(r) + abs(s)), r / (abs(r) + abs(s))
    dtbsv(3, b[: 2 * i + 2].T, y[: 2 * i + 2], lower=1, diag=1, overwrite_x=1)
    dtbsv(3, b[2 * i :].T, y[2 * i + 2 :], lower=1, trans=1, diag=1, overwrite_x=1)
    Y = y.reshape(-1, 2).T
    Y[0, i + 1 :], Y[1, i + 1 :] = Y[1, i + 1 :], -Y[0, i + 1 :]
    return Y


def _half_turns(Y: np.ndarray, i: int) -> tuple[int, int]:
    """Half-turn indices (k_o, k_i) of the end states of both sweeps of a
    trajectory Y (see _trajectory): the index k of the half-turn [k pi, (k +
    1) pi) holding the state's angle unwound from its seed's principal value
    in [-pi, pi); (-1)^k y points into [0, pi).

    Assumes each step turns every direction by less than pi: as det M = 1, a
    hyperbolic step (s^2 > 0, see _steps) keeps directions between its
    eigenlines, and an elliptic one is a rotation by x = sqrt(-s^2) < pi up to
    conjugation; x peaks near threshold at about sqrt(u h Delta/(2a)) for a
    -u/r tail (xi step h, tail step Delta): 0.89 rad for u = 0.99 on the
    coarsest grid.  So the angle passes a multiple of pi exactly where the
    state changes half-plane, upward if the cross product of the states on
    either side is positive; the states are O(1), so it neither under- nor overflows."""
    h = _half(Y[1], Y[0])
    d = (h[1:] != h[:-1]).nonzero()[0]
    (y1, y2), e = Y, d + 1
    turn = np.sign(y1[d] * y2[e] - y2[d] * y1[e])
    # the inward sweep runs against grid order, from its seed in the last column; a
    # change at i, between the sweeps' end states, belongs to neither
    lo, hi = d.searchsorted(i), d.searchsorted(i, "right")
    return int(turn[:lo].sum()) - int(h[0]), -int(turn[hi:].sum()) - int(h[-1])


def _samples(Y: np.ndarray, x: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sweeps of a trajectory Y met at grid index i (see _trajectory) as
    samples in grid order, outward on [0, i] and inward on [i, n_int]: each
    state times exp of the log-scales x of the steps between it and its seed,
    over its sweep's largest such factor, that of its state at i (each x_j >=
    0), so the far side of a growing sweep underflows to zero."""
    ls = np.zeros(i + 1)
    np.cumsum(x[:i], out=ls[1:])
    out = Y[:, : i + 1] * np.exp(ls - ls[-1])
    ls = np.zeros(x.size - i + 1)
    np.cumsum(x[i:][::-1], out=ls[-2::-1])
    return out, Y[:, i + 1 :] * np.exp(ls - ls[0])


def _scaled_wronskian(o1, o2, i1, i2, E) -> float:
    """Wronskian of outward (o1, o2) and inward (i1, i2) end values, amplitude-scaled."""
    den = (abs(o1) + abs(o2)) * (abs(i1) + abs(i2))
    if den == 0.0:
        raise ConvergenceError(f"degenerate sweep amplitudes at E={E}")
    return float((o1 * i2 - o2 * i1) / den)


def _joined(head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, float]:
    """Samples head, then tail[:, 1:] times the scale that puts tail[:, 0] on
    head[:, -1] in the component tail resolves best; and that scale."""
    (h1, h2), (t1, t2) = head[:, -1], tail[:, 0]
    scale = h1 / t1 if abs(t1) >= abs(t2) else h2 / t2
    return np.concatenate([head, scale * tail[:, 1:]], axis=1), scale


class _ShootingWorkspace:
    """Stage tables, one band and the sweep functionals for one (pot, ch,
    grid).  The band, allocated and zeroed once, is every pass's scratch: a
    pass at E writes its steps -M_j(E) into it (see _steps) and solves both
    sweeps on it (see _trajectory); what a pass keeps is its own.  A pass
    joins the sweeps at match_index(E), the one join rule: the scaled
    Wronskian has one sign at every join (det M_j = 1 and every scale is
    positive) and the phase count is the same at every join (see count), so
    one pass per E, kept in probes as (i, W, Y, x) (see sweep), serves a
    count, a Wronskian and the eigenfunction at E alike.  A pass may end
    where its own tail has converged (see _probe)."""

    def __init__(self, pot, ch: Channel, grid: RadialGrid):
        self.pot = pot
        self.ch = ch
        self.grid = grid
        self.n_int = grid.count - 1
        self.v_inf = pot.value_at_infinity
        r = grid.points
        self.v_grid = pot.evaluate(r)
        self.q_edge = 1.0 + (ch.k / r) ** 2  # Q = (E - V)^2 - q_edge (see match_index)
        self.table = _stage_tables(pot, ch.tau * ch.k, r[:-1], np.diff(r))
        self.band = np.zeros((self.n_int + 1, 2, 4))
        self.probes: dict[float, tuple[int, float, np.ndarray, np.ndarray]] = {}

    def _seed_out(self, E):
        return origin_series_seed(self.pot, self.ch, E, self.grid.points[0])

    def _seed_in(self, E):
        w = E - self.v_inf
        return 1.0, -math.sqrt((1.0 - w) / (1.0 + w))

    def sweep(self, E: float, i: int, end: int | None = None):
        """One pass at E with the sweeps met at grid index i in [0, n_int], kept
        nowhere: (i, their scaled Wronskian, their trajectory (see
        _trajectory), the steps' log-scales in grid order).  The inward sweep
        starts at grid index end (i < end <= n_int; the last point if None), so
        the pass covers end intervals.  ValueError off the bound-state window,
        which every pass checks here; ConvergenceError if an end state is not
        finite, as a step lost anywhere in a sweep reaches its end."""
        if not self.v_inf - 1.0 < E < self.v_inf + 1.0:
            raise ValueError(f"trial energy {E} outside the bound-state window of {self.pot!r}")
        table, band = self.table, self.band
        if end is not None and end < self.n_int:
            table, band = table[..., :end], band[: end + 1]
        x = _steps(table, E, band)
        Y = _trajectory(band, i, self._seed_out(E), self._seed_in(E))
        ends = Y.T[i : i + 2].ravel().tolist()  # the outward end state, then the inward one
        if not all(map(math.isfinite, ends)):
            raise ConvergenceError(f"sweep lost finiteness at E={E}")
        return i, _scaled_wronskian(*ends, E), Y, x

    def _probe(self, E: float):
        """The pass at E joined at i = match_index(E), made unless kept.  It ends
        TAIL_CUT decay lengths past r_i, at least 8 points, if the grid reaches
        further: the inward seed's error has fallen by e^-2 TAIL_CUT at the
        join, and the phase count, continuous in the seed's radius, can change
        only that close to a level."""
        probe = self.probes.get(E)
        if probe is None:
            i, r, kappa = self.match_index(E), self.grid.points, _decay_rate(E - self.v_inf)
            reach = r[i] + TAIL_CUT / kappa if kappa > 0.0 else math.inf  # 0 only off the window
            end = min(self.n_int, max(i + 8, int(r.searchsorted(reach))))
            probe = self.probes[E] = self.sweep(E, i, end)
        return probe

    def count(self, E: float) -> int:
        """floor((theta_out - theta_in)/pi) of the sweeps' unwound angles met at
        E's match index i: the same at any i, as the outward steps past i map
        the inward angle to the tail's and keep differences in their half-turn
        band.  Within it, theta_out is the smaller if the turned ends' cross
        product (the Wronskian's sign) is positive."""
        i, w, Y, _ = self._probe(E)
        k_o, k_i = _half_turns(Y, i)
        return k_o - k_i - int((-1) ** (k_o + k_i) * w > 0.0)

    def bisect_count(
        self, level: int, lo: float, hi: float, c_lo: int, c_hi: int
    ) -> tuple[float, float]:
        """Bisect (lo, hi) with counts c_lo >= level > c_hi at its ends until it
        holds the crossing at level alone (c_lo == level == c_hi + 1), or
        cannot be split further.  The split is the midpoint in ln(top - E), top
        = V_inf + 1, as the levels of a Coulomb tail crowd toward the top
        (1 - w ~ u^2/(2 nu^2)); it is the arithmetic one on narrow brackets."""
        top = self.v_inf + 1.0
        while c_lo > level or c_hi < level - 1:
            mid = top - math.sqrt((top - lo) * (top - hi))
            if not lo < mid < hi:
                break
            c = self.count(mid)
            if c >= level:
                lo, c_lo = mid, c
            else:
                hi, c_hi = mid, c
        return lo, hi

    def find_level(self, n: int, window: tuple[float, float], hint):
        """The n-th level of the grid inside window: (states counted, (E, isolating
        bracket)), or (states counted, None) when the grid holds fewer than n.

        A hint (E_lo, E_hi) inside window narrows the search if the phase counts,
        anchored at the window bottom, place the n-th state in it and no state
        below it; otherwise it is dropped with a DEBUG record.  The counts at
        the bracket ends leave Brent their Wronskians in probes."""
        c_bot = self.count(window[0])
        if hint is not None:
            lo, hi = hint
            c_lo, c_hi = self.count(lo), self.count(hi)
            if not (c_bot - c_lo == n - 1 and c_bot - c_hi >= n):
                _log.debug("bracket hint %s rejected for %s: phase counts %d at the window "
                           "bottom, %d and %d at the hint ends", hint, self.ch, c_bot, c_lo, c_hi)
                hint = None
        if hint is None:
            (lo, hi), c_lo = window, c_bot
            c_hi = self.count(hi)
        if c_bot - c_hi < n:
            return c_bot - c_hi, None
        lo, hi = self.bisect_count(c_bot - (n - 1), lo, hi, c_lo, c_hi)
        try:
            # brentq evaluates both ends and returns one whose Wronskian is 0
            energy = brentq(_wronskian, lo, hi, args=(self,), xtol=BRENT_XTOL, rtol=8.9e-16)
        except ValueError:
            # W vanishes only where the count drops, once in this bracket, so
            # ends of one sign mean round-off has put one of them on the root
            w_lo, w_hi = _wronskian(lo, self), _wronskian(hi, self)
            if np.sign(w_lo) != np.sign(w_hi):
                raise
            energy = lo if abs(w_lo) <= abs(w_hi) else hi
            _log.debug("Wronskian keeps one sign on (%r, %r); taking %r", lo, hi, energy)
        return c_bot - c_hi, (energy, (lo, hi))

    def match_index(self, E: float) -> int:
        """Outermost classically allowed grid index (fallback: least forbidden)."""
        Q = (E - self.v_grid) ** 2
        Q -= self.q_edge
        i = Q.size - 1 - int((Q[::-1] >= 0.0).argmax())  # the last allowed index, if any
        i = i if Q[i] >= 0.0 else int(Q.argmax())
        return min(max(i, 8), self.n_int - 8)

    def wronskian(self, E: float) -> float:
        """Scaled Wronskian of outward and inward sweeps at the match point."""
        return self._probe(E)[1]

    def eigenfunction(self, E: float):
        """The match index i, the components on the full grid from both sweeps
        met at i, their scaled Wronskian, and their Wronskian at the join in
        psi's scale over |psi(r_i)|^2; from the probe at E if Brent or a count
        made one.  Past the probe's end e, psi comes from an inward sweep over
        the intervals left, from the seed at r_max, joined at e."""
        i, w, Y, x = self._probe(E)
        out, inw = _samples(Y, x, i)
        psi, scale = _joined(out, inw)
        (o1, o2), (i1, i2) = out[:, -1], inw[:, 0]
        join = float((o1 * scale * i2 - o2 * scale * i1) / (o1 * o1 + o2 * o2))
        if x.size < self.n_int:
            e = x.size
            x = _steps(self.table[..., e:], E, self.band)
            # met at 0: the outward sweep is its seed alone, and only the inward one is kept
            Y = _trajectory(self.band[: self.n_int - e + 1], 0, (1.0, 0.0), self._seed_in(E))
            psi = _joined(psi, _samples(Y, x, 0)[1])[0]
        return i, psi[0], psi[1], w, join


def _wronskian(E: float, ws: _ShootingWorkspace) -> float:
    """ws.wronskian as brentq's callable, taking ws in args: scipy keeps its
    callable in a reference cycle, so a closure over ws would outlive the solve."""
    return ws.wronskian(E)


def integrate_radial(pot, ch: Channel, E: float, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Outward sweep at trial energy E over the whole grid, from the origin
    series seed: (psi1, psi2) sharing one positive scale (see _samples), the
    inner samples of a growing sweep underflowing to zero.  A ValueError if E
    lies outside the bound-state window (see _ShootingWorkspace.sweep)."""
    ws = _ShootingWorkspace(pot, ch, grid)
    _, _, Y, x = ws.sweep(E, ws.n_int)
    psi1, psi2 = _samples(Y, x, ws.n_int)[0]
    return psi1, psi2


def matching_mismatch(pot, ch: Channel, E: float, grid: RadialGrid) -> float:
    """Scaled Wronskian of the sweeps met at match_index(E); 0 at eigenvalues."""
    return _ShootingWorkspace(pot, ch, grid).wronskian(E)


def count_nodes(samples) -> int:
    """Sign changes between the nonzero samples of a finite 1-D sequence: exact on
    an eigenfunction, as each step turns it monotonically by less than pi (_half_turns)."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("samples must be a finite 1-D sequence")
    s = np.sign(y[y != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def normalize(sol: RadialSolution) -> RadialSolution:
    """Rescale so the grid_integral of psi1^2 + psi2^2 equals one."""
    nrm = grid_integral(sol.psi1**2 + sol.psi2**2, sol.grid)
    if not math.isfinite(nrm) or nrm <= 0.0:
        raise ValueError(f"cannot normalize solution with norm integral {nrm}")
    s = 1.0 / math.sqrt(nrm)
    return replace(sol, psi1=s * sol.psi1, psi2=s * sol.psi2)


def solve_eigenvalue(
    pot,
    ch: Channel,
    *,
    grid_scale: float = DEFAULT_GRID_SCALE,
    bracket_hint: tuple[float, float] | None = None,
    grid: RadialGrid | None = None,
) -> RadialSolution:
    """The ch.n-th discrete eigenvalue of ch (counted from the bottom of the window).

    A bracket_hint (E_lo, E_hi) expected to contain the target state speeds
    up the search; it is clipped to the window, verified against the anchored
    phase count and discarded, with a DEBUG record on the "diracbound" logger,
    if it does not hold the requested state.  A level is accepted once the
    grid's tail spans 30 of its decay lengths, r_max * kappa >= 30, and 18
    past its match point, (r_max - r_match) kappa >= 18.  Unless the caller
    supplies a grid (e.g. one shared by a comparison pair), the search window
    of each grid but the longest ends where r_max * kappa = 30, and a grid
    that holds fewer than ch.n states below that or too short a tail for the
    level found is rebuilt once, with a DEBUG record, as the longest grid of the family
    (kappa_ref = 1e-3, r_max = 35000; kappa >= 8.57e-4, a binding of about
    3.7e-7 mc^2).  With no rebuild left, it raises NoBoundStateError if the
    grid searched last holds fewer than ch.n states, else ConvergenceError
    ("too weakly bound"); either names that grid, "supplied grid" or "longest
    grid", with its r_max."""
    v_inf = pot.value_at_infinity
    window = (v_inf - 1.0 + WINDOW_EDGE, v_inf + 1.0 - WINDOW_EDGE)
    hint = bracket_hint
    if hint is not None:
        hint = (max(hint[0], window[0]), min(hint[1], window[1]))
        if not hint[0] < hint[1]:
            raise ValueError(f"bracket hint {bracket_hint} collapses inside the window")
    kappa_ref = reference_rate(pot, hint)
    supplied = grid is not None
    while True:
        if not supplied:
            grid = build_grid(kappa_ref, grid_scale)
        last = supplied or kappa_ref == LONGEST_KAPPA_REF
        # a grid that can be rebuilt, the first, is searched only up to where r_max
        # kappa = 30 (E_30 = V_inf + 0.99908): no level above that passes the tail rule
        top = window[1] if last else v_inf + _decay_rate(30.0 / grid.r_max)
        ws = _ShootingWorkspace(pot, ch, grid)
        n_found, level = ws.find_level(ch.n, (window[0], top), hint)
        if level is not None:
            energy, (lo, hi) = level
            kappa_e = _decay_rate(energy - v_inf)
            r_match = float(grid.points[ws.match_index(energy)])
            if kappa_e >= max(30.0 / grid.r_max, 18.0 / (grid.r_max - r_match)):
                break
        if last:
            searched = f"{'supplied' if supplied else 'longest'} grid (r_max={grid.r_max:.3g})"
            if level is None:
                raise NoBoundStateError(
                    f"the {searched} holds {n_found} bound state(s) of {pot!r} in channel "
                    f"{ch}, target was n={ch.n}"
                )
            raise ConvergenceError(
                f"{ch} state too weakly bound: the level found on the {searched} lies at "
                f"E={energy!r}, so its decay rate {kappa_e:.3g} is below 30/r_max = "
                f"{30.0 / grid.r_max:.3g} or 18/(r_max - r_match) = "
                f"{18.0 / (grid.r_max - r_match):.3g}, its match point at r_match = {r_match:.3g}"
            )
        if level is None:
            reason = f"grid holds {n_found} of {ch.n} states below E={top!r}, where r_max*kappa = 30"
            hint = None
        else:
            reason = f"grid tail too short for E={energy!r}"
            # kept inside the isolating bracket: near threshold E +- 1e-5 spans several levels
            hint = (max(lo, energy - 1e-5), min(hi, energy + 1e-5))
        _log.debug("%s: rebuilding with kappa_ref=%g (was %g)", reason, LONGEST_KAPPA_REF, kappa_ref)
        kappa_ref = LONGEST_KAPPA_REF  # the longest grid: if it fails too, the check above raises

    i_match, psi1, psi2, mismatch, join = ws.eigenfunction(energy)
    # node counts are exact (see count_nodes) and scale-free
    sol = normalize(RadialSolution(
        ch=ch, E=energy, grid=grid, psi1=psi1, psi2=psi2, nodes1=count_nodes(psi1),
        nodes2=count_nodes(psi2), potential=pot, V=ws.v_grid,
        match_radius=float(grid.points[i_match]), mismatch=mismatch,
    ))
    # the shooting correction w/N (module docstring) is join |psi(r_m)|^2 once
    # psi is normalized; the isolating bracket holds the level
    shift = join * (sol.psi1[i_match] ** 2 + sol.psi2[i_match] ** 2)
    return replace(sol, E=float(min(max(energy - shift, lo), hi)))


def grid_derivative(y: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d/dr: fourth-order central differences in xi times dxi/dr; NaN at 2 points each end."""
    h, dxi = grid.xi_map
    d = np.full_like(y, np.nan)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    return d * dxi


def grid_integral(f: np.ndarray, grid: RadialGrid) -> float:
    """Integral of f over (0, r_max): composite Simpson in xi of f dr/dxi, ending
    on a 3/8 panel when the interval count is odd, plus, on (0, r_min), the power
    law through the first two samples (regular solutions go like r^gamma)."""
    h, dxi = grid.xi_map
    g, n = f / dxi, f.size - 1
    m = n - 3 * (n % 2)  # the intervals under Simpson's rule
    total = h / 3.0 * (g[0] + 4.0 * g[1:m:2].sum() + 2.0 * g[2:m:2].sum() + g[m])
    total += 0.375 * h * (g[m] + 3.0 * (g[m + 1] + g[m + 2]) + g[m + 3]) if n % 2 else 0.0
    r, f0, f1 = grid.points, float(f[0]), float(f[1])
    if f0 * f1 > 0.0:  # f_0 (r/r_0)^p, p from f_1; none for a zero or sign-changing start
        total += f0 * r[0] / (1.0 + math.log(f1 / f0) / math.log(r[1] / r[0]))
    return float(total)
