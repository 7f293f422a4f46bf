"""Optimal-design searches: full-power verification and best mismatch.

The transmit powers are provably best at their ceilings, so the power
sweep is a verification tool: it scans a (p1, p2) grid and reports any
finite-difference monotonicity violation.  The best normalized mismatch
tau* has no finite-frame closed form; it is located by an exhaustive
grid scan over [0, 1) followed by a golden-section refinement inside the
winning cell.  The grid optimum is the guarantee; refinement only ever
improves on it.  Both passes evaluate the closed form for a whole ladder
of frame lengths at once, and the refinement evaluates every point its
next _LOOKAHEAD steps could ask for in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError, FrameConfig, LinkConfig, _require_number
from .throughput import closed_rate

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is this narrow
_REFINE_TOL = 1e-6
# grid points per closed-form evaluation of the tau scan: the default
# scan (10 frame lengths, 1,000 taus) is one evaluation, and a fine
# grid_resolution cannot make the temporaries outgrow a few MB
_GRID_ENTRIES = 1 << 16
# golden-section steps per objective call in the refinement: a round
# evaluates 2^4 - 1 = 15 points per frame length, so the default
# ladder's 16 steps take 4 calls; depth 3 (6 calls) and depth 5 (still
# 4 calls, on 31-point trees) measured slower (README, "tau* search
# cost")
_LOOKAHEAD = 4


@dataclass(frozen=True)
class PowerSweepReport:
    """Finite-difference monotonicity scan of the (p1, p2) throughput grid."""

    throughput: np.ndarray
    violations: list[tuple[str, int, int]]
    argmax: tuple[float, float]


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Golden-section maximum of f on [lo, hi], every row in lockstep.

    f(rows, x) evaluates row ``rows[i]``'s objective at ``x[i]``.  A row
    stays open while its bracket is wider than tol, and each open row
    makes exactly the comparisons and updates of a one-row search, so
    its result does not depend on the other rows.  Returns the bracket
    midpoints and f there.

    The brackets and the values at their interior points are kept as
    lists of Python floats, whose + - * and comparisons round exactly as
    numpy float64's do.  Both first interior points are evaluated in one
    call, and then each round takes up to _LOOKAHEAD steps of every open
    row for one call of f (see _golden_round).  A round whose call
    raises DomainError is replayed one step per call, so the error
    raised is that of the first step whose own points f rejects, and a
    point that only a branch not taken would have asked for is never
    named.
    """
    m = len(lo)
    a, b = lo.tolist(), hi.tolist()
    c = [bi - (bi - ai) * _INV_PHI for ai, bi in zip(a, b)]
    d = [ai + (bi - ai) * _INV_PHI for ai, bi in zip(a, b)]
    rows = np.arange(m)
    f0 = f(np.concatenate((rows, rows)), np.array(c + d)).tolist()
    state = (a, b, c, d, f0[:m], f0[m:])
    live = [i for i in range(m) if b[i] - a[i] > tol]
    while live:
        try:
            live = _golden_round(f, state, live, tol, _LOOKAHEAD)
        except DomainError:
            for _ in range(_LOOKAHEAD):
                if live:
                    live = _golden_round(f, state, live, tol, 1)
    x = np.array([0.5 * (ai + bi) for ai, bi in zip(a, b)])
    return x, f(rows, x)


def _golden_round(f, state, live, tol, k):
    """Up to k golden-section steps of every row in live, for one call
    of f; returns the rows still open.

    A row's next step is known from its fc > fd, and each later step
    turns on how the value at the previous step's point compares with
    the value it is set against.  So the points a row's next k steps
    can ask for form a binary tree of 2^k - 1 points (see _subtree),
    each computed with the same float expressions as the step, and f
    evaluates every row's tree in one call.  The walk then takes each
    row's real branch at every step, so the values it consumes, and
    every comparison and bracket, are those of a search that asks f
    for one point per step.  A row that closes inside the round leaves
    the rest of its tree unread.  Nothing in state changes before f
    returns.
    """
    a, b, c, d, fc, fd = state
    x = []
    for i in live:
        ai, bi, ci, di = a[i], b[i], c[i], d[i]
        if fc[i] > fd[i]:
            # the maximum lies in [a, d]; d takes c's place
            ai, bi, ci, di = ai, di, di - (di - ai) * _INV_PHI, ci
            x.append(ci)
        else:
            # it lies in [c, b]; c takes d's place
            ai, bi, ci, di = ci, bi, di, ci + (bi - ci) * _INV_PHI
            x.append(di)
        if k > 1:
            _subtree(x, ai, bi, ci, di, k - 1)
    size = (1 << k) - 1
    values = f(np.array(live).repeat(size), np.array(x)).tolist()
    for row, i in enumerate(live):
        pos = row * size
        ai, bi, ci, di, fci, fdi = a[i], b[i], c[i], d[i], fc[i], fd[i]
        for h in range(k - 1, -1, -1):
            if fci > fdi:
                ai, bi, ci, di = ai, di, di - (di - ai) * _INV_PHI, ci
                fci, fdi = values[pos], fci
            else:
                ai, bi, ci, di = ci, bi, di, ci + (bi - ci) * _INV_PHI
                fci, fdi = fdi, values[pos]
            if not bi - ai > tol:
                break
            # the next step's fc > fd point follows this one, and its
            # fc <= fd point follows that point's 2^h - 2 descendants
            pos += 1 if fci > fdi else 1 << h
        a[i], b[i], c[i], d[i], fc[i], fd[i] = ai, bi, ci, di, fci, fdi
    return [i for i in live if b[i] - a[i] > tol]


def _subtree(x, a, b, c, d, h):
    """Append to x, in preorder, the 2^(h+1) - 2 points that the next
    h >= 1 golden-section steps from bracket [a, b] with interior points
    c < d can ask for: the fc > fd step's point and the points after it,
    then the fc <= fd step's point and the points after that."""
    cg = d - (d - a) * _INV_PHI
    dl = c + (b - c) * _INV_PHI
    if h == 1:
        x += cg, dl
    else:
        x.append(cg)
        _subtree(x, a, d, cg, c, h - 1)
        x.append(dl)
        _subtree(x, c, b, d, dl, h - 1)


def optimal_tau(link: LinkConfig, n,
                grid_resolution: float = 1e-3) -> float | np.ndarray:
    """Best normalized mismatch tau* for each frame length in n: a float
    for an int n, else an array of n's shape (n is 1-D).

    Scans tau = 0, res, 2*res, ... < 1 exhaustively, for all frame
    lengths at once (one closed-form evaluation per _GRID_ENTRIES grid
    points), then runs a golden-section pass one grid cell around each
    row's winner, all rows in lockstep (the objective is empirically
    unimodal there; the grid winner is kept if refinement does not beat
    it).  Ties break toward the smallest tau.  The rate achieved there
    is closed_rate(link.mu1, link.mu2, n, tau*), bit for bit.
    """
    _require_number("grid_resolution", grid_resolution)
    if not (0.0 < grid_resolution <= 0.01):
        raise DomainError(
            f"grid_resolution must lie in (0, 0.01], got {grid_resolution}")
    if np.ndim(n) > 1:
        raise DomainError(f"n must be an int or a 1-D array, got shape {np.shape(n)}")
    link.require_positive_gains()
    # each entry as given (an object array keeps a list's bools and
    # floats): FrameConfig rejects what is not an int, where int()
    # would truncate it
    ns = np.array([FrameConfig(v, 0.0).n
                   for v in np.asarray(n, dtype=object).ravel()], dtype=int)
    mu1, mu2 = link.mu1, link.mu2

    def objective(rows, tau):
        # closed_rate names any point whose rate is not finite, so no
        # NaN can steer the search
        return closed_rate(mu1, mu2, ns[rows], tau)

    try:
        taus = np.arange(0.0, 1.0, grid_resolution)
    except ValueError:  # numpy: "Maximum allowed size exceeded"
        raise DomainError(f"grid_resolution {grid_resolution} spans more tau "
                          "grid points than an array can index") from None
    rows = np.arange(len(ns))
    # the grid is scanned in column blocks of at most _GRID_ENTRIES
    # points, one evaluation each; a later block must beat the best so
    # far strictly, so the first maximum wins: smallest tau on ties
    best = np.zeros(len(ns), dtype=int)
    achieved = np.full(len(ns), -np.inf)
    width = max(1, _GRID_ENTRIES // max(1, len(ns)))
    for start in range(0, len(taus), width):
        values = objective(rows[:, None], taus[start:start + width])
        cols = np.argmax(values, axis=1)
        top = values[rows, cols]
        beats = top > achieved
        best[beats], achieved[beats] = start + cols[beats], top[beats]
    tau_star = taus[best]

    lo = np.maximum(0.0, tau_star - grid_resolution)
    hi = np.minimum(1.0 - _REFINE_TOL, tau_star + grid_resolution)
    refine = rows[hi > lo]
    x, fx = _golden_max(lambda r, t: objective(refine[r], t),
                        lo[refine], hi[refine], _REFINE_TOL)
    better = fx > achieved[refine]
    tau_star[refine[better]] = x[better]
    return float(tau_star[0]) if np.ndim(n) == 0 else tau_star


def verify_full_power(p1_values, p2_values, h1_sq: float, h2_sq: float,
                      frame: FrameConfig) -> PowerSweepReport:
    """Throughput over a power grid plus strict-monotonicity audit.

    Expects zero violations and the maximum at the largest grid powers,
    per the full-power optimality of the closed-form rate.
    """
    for name, v in (("p1_values", p1_values), ("p2_values", p2_values)):
        _require_number(name, v, batch=True)
        if np.ndim(v) != 1:
            raise DomainError(f"{name} must be a 1-D grid, got shape {np.shape(v)}")
    p1_values = np.asarray(p1_values, dtype=float)
    p2_values = np.asarray(p2_values, dtype=float)
    if not (p1_values.size and p2_values.size):
        raise DomainError("power grids must be non-empty")
    if np.any(p1_values <= 0.0) or np.any(p2_values <= 0.0):
        raise DomainError("power grids must be strictly positive")
    if np.any(np.diff(p1_values) <= 0.0) or np.any(np.diff(p2_values) <= 0.0):
        raise DomainError("power grids must be strictly increasing")

    for name, v in (("h1_sq", h1_sq), ("h2_sq", h2_sq)):
        _require_number(name, v)
        if not 0.0 <= v < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {v}")
    h1, h2 = math.sqrt(h1_sq), math.sqrt(h2_sq)
    # each gain rises with its power, so the two corner links bound them all
    for k in (0, -1):
        LinkConfig(p1=float(p1_values[k]), p2=float(p2_values[k]),
                   h1=h1, h2=h2).require_positive_gains()
    # LinkConfig.mu1 and mu2 at every grid power
    mu1 = p1_values * abs(h1) ** 2
    mu2 = p2_values * abs(h2) ** 2
    grid = closed_rate(mu1[:, None], mu2[None, :], frame.n, frame.tau)

    violations = ([("p1", int(i), int(j))
                   for i, j in np.argwhere(~(grid[1:] > grid[:-1]))]
                  + [("p2", int(i), int(j))
                     for i, j in np.argwhere(~(grid[:, 1:] > grid[:, :-1]))])

    imax, jmax = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return PowerSweepReport(
        throughput=grid, violations=violations,
        argmax=(float(p1_values[imax]), float(p2_values[jmax])),
    )
