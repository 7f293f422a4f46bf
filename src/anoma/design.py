"""Optimal-design searches: full-power verification and best mismatch.

The transmit powers are provably best at their ceilings, so the power
sweep is a verification tool: it scans a (p1, p2) grid and reports any
finite-difference monotonicity violation.  The best normalized mismatch
tau* has no finite-frame closed form; it is located by an exhaustive
grid scan over [0, 1) followed by a zoom: rescans of ever finer grids
around the winner.  The grid optimum is the guarantee; the zoom only
ever improves on it.  Both passes take the same step, the first maximum
of the closed form over a grid for a whole ladder of frame lengths at
once (_first_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_GAIN, _MU_MIN, _TINY, DomainError, FrameConfig,
                    LinkConfig, _config, _every, _length, _link, _real,
                    _require_bytes)
from .throughput import _closed_rate

# the zoom's last round is over a bracket at most this wide
_REFINE_TOL = 1e-6
# grid points per closed-form evaluation of the tau search: the default
# scan (10 frame lengths, 1,000 taus) is one evaluation, and a fine
# grid_resolution or a long ladder cannot make the temporaries outgrow
# a few MB
_GRID_ENTRIES = 1 << 16
# spacings per zoom round: the next bracket is two spacings wide, 16
# times narrower, so the default search takes 4 rounds, the last at a
# spacing of about 1.5e-8, the sqrt(eps) to which comparing values can
# place a maximum
_ZOOM_STEPS = 32
# grid_resolution lies in (0, 0.01], that is in [_TINY, _RES_END)
_RES_END = float(np.nextafter(0.01, 1.0))


@dataclass(frozen=True)
class PowerSweepReport:
    """Finite-difference monotonicity scan of the (p1, p2) throughput grid."""

    throughput: np.ndarray
    violations: list[tuple[str, int, int]]
    argmax: tuple[float, float]


def _first_max(f, rows, taus, tau_star, achieved):
    """Move each row's tau_star and achieved, in place, to the first
    maximum of f over its row of taus wherever that beats achieved
    strictly.

    f(rows, taus) evaluates row ``rows[i]``'s objective at taus[i] (taus
    holds one row per entry of rows, or one row shared by all).  The
    taus are taken in column blocks of at most max(_GRID_ENTRIES, rows)
    points, one call of f each, and a later block must beat the best so
    far strictly, so the smallest tau wins a tie.
    """
    width = max(1, _GRID_ENTRIES // max(1, len(rows)))
    for start in range(0, taus.shape[1], width):
        block = taus[:, start:start + width]
        values = f(rows[:, None], block)
        cols = np.argmax(values, axis=1)
        top = np.max(values, axis=1)
        beats = top > achieved
        tau_star[beats] = np.broadcast_to(block, values.shape)[beats, cols[beats]]
        achieved[beats] = top[beats]


def optimal_tau(link: LinkConfig, n,
                grid_resolution: float = 1e-3) -> float | np.ndarray:
    """Best normalized mismatch tau* for each frame length in n: a float
    for an int n, else an array of n's shape (n is 1-D).

    Scans tau = 0, res, 2*res, ... < 1 exhaustively, for all frame
    lengths at once (one closed-form evaluation per _GRID_ENTRIES grid
    points), then zooms in on each row's winner: a round rescans
    _ZOOM_STEPS + 1 evenly spaced points across the row's bracket, first
    [tau* - res, tau* + res] inside [0, 1 - _REFINE_TOL], then the
    winner plus or minus one spacing, and a row stops after the round
    whose bracket was at most _REFINE_TOL wide (the objective is
    empirically unimodal there).  A point replaces tau* only if its
    rate is strictly higher, so the grid optimum is never beaten by a
    worse one, and ties break toward the smallest tau.  The rate
    achieved there is closed_rate(link.mu1, link.mu2, n, tau*), bit for
    bit.
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

    rows = np.arange(len(ns))
    tau_star, achieved = np.zeros(len(ns)), np.full(len(ns), -np.inf)
    _first_max(objective, rows, np.arange(0.0, 1.0, res)[None, :],
               tau_star, achieved)
    lo = np.maximum(0.0, tau_star - res)
    hi = np.minimum(1.0 - _REFINE_TOL, tau_star + res)
    keep = hi > lo
    live, lo, hi = rows[keep], lo[keep], hi[keep]
    while live.size:
        step = (hi - lo) / _ZOOM_STEPS
        grid = lo[:, None] + step[:, None] * np.arange(_ZOOM_STEPS + 1)
        x, fx = tau_star[live], achieved[live]
        _first_max(objective, live, grid, x, fx)
        tau_star[live], achieved[live] = x, fx
        keep = hi - lo > _REFINE_TOL
        live, lo, hi = (live[keep], np.maximum(lo, x - step)[keep],
                        np.minimum(hi, x + step)[keep])
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
