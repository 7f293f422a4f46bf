"""Optimal-design searches: full-power verification and best mismatch.

The transmit powers are provably best at their ceilings, so the power
sweep is a verification tool: it scans a (p1, p2) grid and reports any
finite-difference monotonicity violation.  The best normalized mismatch
tau* has no finite-frame closed form; it is located by an exhaustive
grid scan over [0, 1) followed by a golden-section refinement inside the
winning cell.  The grid optimum is the guarantee; refinement only ever
improves on it.  Both passes evaluate the closed form for a whole ladder
of frame lengths at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DomainError, FrameConfig, LinkConfig
from .throughput import closed_rate

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is this narrow
_REFINE_TOL = 1e-6
# grid points per closed-form evaluation of the tau scan: the default
# scan (10 frame lengths, 1,000 taus) is one evaluation, and a fine
# grid_resolution cannot make the temporaries outgrow a few MB
_GRID_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TauSearchResult:
    """Best mismatch per frame length: floats for one n, else arrays of
    the shape of n."""

    tau_star: float | np.ndarray
    achieved_throughput: float | np.ndarray


@dataclass(frozen=True)
class PowerSweepReport:
    """Finite-difference monotonicity scan of the (p1, p2) throughput grid."""

    throughput: np.ndarray
    violations: list[tuple[str, int, int]] = field(default_factory=list)
    argmax: tuple[float, float] = (0.0, 0.0)


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Golden-section maximum of f on [lo, hi], every row in lockstep.

    f(rows, x) evaluates row ``rows[i]``'s objective at ``x[i]``.  A row
    stays open while its bracket is wider than tol, and each open row
    makes exactly the comparisons and updates of a one-row search, so
    its result does not depend on the other rows.  Returns the bracket
    midpoints and f there.
    """
    a, b = lo.copy(), hi.copy()
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    rows = np.arange(len(a))
    fc, fd = f(rows, c), f(rows, d)
    while True:
        live = np.flatnonzero((b - a) > tol)
        if not len(live):
            break
        left = fc[live] > fd[live]
        lft, rgt = live[left], live[~left]
        # left: the maximum lies in [a, d]; d takes c's place
        b[lft], d[lft], fd[lft] = d[lft], c[lft], fc[lft]
        c[lft] = b[lft] - (b[lft] - a[lft]) * _INV_PHI
        # right: it lies in [c, b]; c takes d's place
        a[rgt], c[rgt], fc[rgt] = c[rgt], d[rgt], fd[rgt]
        d[rgt] = a[rgt] + (b[rgt] - a[rgt]) * _INV_PHI
        f_new = f(live, np.where(left, c[live], d[live]))
        fc[lft], fd[rgt] = f_new[left], f_new[~left]
    x = 0.5 * (a + b)
    return x, f(rows, x)


def optimal_tau(link: LinkConfig, n,
                grid_resolution: float = 1e-3) -> TauSearchResult:
    """Best normalized mismatch for each frame length in n (an int or a
    1-D array of them).

    Scans tau = 0, res, 2*res, ... < 1 exhaustively, for all frame
    lengths at once (one closed-form evaluation per _GRID_ENTRIES grid
    points), then runs a golden-section pass one grid cell around each
    row's winner, all rows in lockstep (the objective is empirically
    unimodal there; the grid winner is kept if refinement does not beat
    it).  Ties break toward the smallest tau.
    """
    if not (0.0 < grid_resolution <= 0.01):
        raise DomainError(
            f"grid_resolution must lie in (0, 0.01], got {grid_resolution}")
    if np.ndim(n) > 1:
        raise DomainError(f"n must be an int or a 1-D array, got shape {np.shape(n)}")
    link.require_positive_gains()
    ns = np.array([FrameConfig(int(v), 0.0).n for v in np.ravel(n)], dtype=int)
    mu1, mu2 = link.mu1, link.mu2

    def objective(rows, tau):
        return closed_rate(mu1, mu2, ns[rows], tau)

    taus = np.arange(0.0, 1.0, grid_resolution)
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
    achieved[refine[better]] = fx[better]
    if np.ndim(n) == 0:
        return TauSearchResult(float(tau_star[0]), float(achieved[0]))
    return TauSearchResult(tau_star, achieved)


def verify_full_power(p1_values, p2_values, h1_sq: float, h2_sq: float,
                      frame: FrameConfig) -> PowerSweepReport:
    """Throughput over a power grid plus strict-monotonicity audit.

    Expects zero violations and the maximum at the largest grid powers,
    per the full-power optimality of the closed-form rate.
    """
    p1_values = np.asarray(p1_values, dtype=float)
    p2_values = np.asarray(p2_values, dtype=float)
    if np.any(p1_values <= 0.0) or np.any(p2_values <= 0.0):
        raise DomainError("power grids must be strictly positive")
    if np.any(np.diff(p1_values) <= 0.0) or np.any(np.diff(p2_values) <= 0.0):
        raise DomainError("power grids must be strictly increasing")

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
