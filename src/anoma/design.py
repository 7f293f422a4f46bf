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

from .model import (_GAIN, _MU_MIN, _TINY, DomainError, FrameConfig,
                    LinkConfig, _config, _every, _length, _link, _real,
                    _require_bytes)
from .throughput import _closed_rate

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
# grid_resolution lies in (0, 0.01], that is in [_TINY, _RES_END)
_RES_END = float(np.nextafter(0.01, 1.0))


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
    res = _real("grid_resolution", grid_resolution, _TINY, _RES_END,
                "lie in (0, 0.01]")
    _require_bytes(f"grid_resolution {grid_resolution}", 8.0 / res)  # the tau grid
    # each entry as given (an object array keeps a list's bools and
    # floats): a float is no frame length, where int() would truncate it
    entries = np.asarray(n, dtype=object)
    if entries.ndim > 1:
        raise DomainError(f"n must be an int or a 1-D array, got shape {entries.shape}")
    ns = np.array([_length("frame length n", v) for v in entries.ravel()],
                  dtype=int)
    mu1, mu2 = np.float64(_link(link).mu1), np.float64(link.mu2)

    def objective(rows, tau):
        # closed_rate names any point whose rate is not finite, so no
        # NaN can steer the search
        return _closed_rate(mu1, mu2, ns[rows], tau)

    taus = np.arange(0.0, 1.0, res)
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

    lo = np.maximum(0.0, tau_star - res)
    hi = np.minimum(1.0 - _REFINE_TOL, tau_star + res)
    refine = rows[hi > lo]
    x, fx = _golden_max(lambda r, t: objective(refine[r], t),
                        lo[refine], hi[refine], _REFINE_TOL)
    better = fx > achieved[refine]
    tau_star[refine[better]] = x[better]
    return float(tau_star[0]) if entries.ndim == 0 else tau_star


def verify_full_power(p1_values, p2_values, h1_sq: float, h2_sq: float,
                      frame: FrameConfig) -> PowerSweepReport:
    """Throughput over a power grid plus strict-monotonicity audit.

    Expects zero violations and the maximum at the largest grid powers,
    per the full-power optimality of the closed-form rate.
    """
    _config("frame", frame, FrameConfig)
    grids, mu = [], []
    for p_name, p, h_name, h_sq in (("p1_values", p1_values, "h1_sq", h1_sq),
                                    ("p2_values", p2_values, "h2_sq", h2_sq)):
        grids.append(p := _real(p_name, p, batch=True))
        if p.ndim != 1:
            raise DomainError(f"{p_name} must be a 1-D grid, got shape {p.shape}")
        if not p.size:
            raise DomainError(f"power grids must be non-empty, got {p_name} = []")
        if not _every(np.diff(p) > 0.0):
            raise DomainError(f"{p_name} must be strictly increasing")
        h = math.sqrt(_real(h_name, h_sq, 0.0, rule="be finite and >= 0"))
        # LinkConfig.mu1 or mu2 at every grid power, each one a gain
        mu.append(_real(f"{p_name} * {h_name}", p * abs(h) ** 2, _MU_MIN,
                        rule=_GAIN, batch=True))
    # the closed form's temporaries: about seven float arrays of the grid
    _require_bytes("p1_values x p2_values", 64 * mu[0].size * mu[1].size)
    grid = _closed_rate(mu[0][:, None], mu[1][None, :], np.int64(frame.n),
                        np.float64(frame.tau))

    violations = ([("p1", int(i), int(j))
                   for i, j in np.argwhere(~(grid[1:] > grid[:-1]))]
                  + [("p2", int(i), int(j))
                     for i, j in np.argwhere(~(grid[:, 1:] > grid[:, :-1]))])

    imax, jmax = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return PowerSweepReport(
        throughput=grid, violations=violations,
        argmax=(float(grids[0][imax]), float(grids[1][jmax])),
    )
