"""Optimal-design searches: full-power verification and best mismatch.

The transmit powers are provably best at their ceilings, so the power
sweep is a verification tool: it scans a (p1, p2) grid and reports any
finite-difference monotonicity violation.  The best normalized mismatch
tau* has no finite-frame closed form; it is located by an exhaustive
grid scan over [0, 1) followed by a golden-section refinement inside the
winning cell.  The grid optimum is the guarantee; refinement only ever
improves on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DomainError, FrameConfig, LinkConfig
from .throughput import throughput_asymptotic, throughput_closed

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is this narrow
_REFINE_TOL = 1e-6


@dataclass(frozen=True)
class TauSearchResult:
    tau_star: float
    achieved_throughput: float
    grid_resolution: float
    refined: bool


@dataclass(frozen=True)
class PowerSweepReport:
    """Finite-difference monotonicity scan of the (p1, p2) throughput grid."""

    p1_values: np.ndarray
    p2_values: np.ndarray
    throughput: np.ndarray
    violations: list[tuple[str, int, int]] = field(default_factory=list)
    argmax: tuple[float, float] = (0.0, 0.0)

    @property
    def is_monotone(self) -> bool:
        return not self.violations


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimal_tau(link: LinkConfig, n: int, grid_resolution: float = 1e-3,
                use_asymptotic: bool = False) -> TauSearchResult:
    """Best normalized mismatch for a fixed frame length.

    Scans tau = 0, res, 2*res, ... < 1 exhaustively, then runs a
    golden-section pass one grid cell around the winner (the objective is
    empirically unimodal there; the grid winner is kept if refinement
    does not beat it).  Ties break toward the smallest tau.
    """
    if not (0.0 < grid_resolution <= 0.01):
        raise DomainError(
            f"grid_resolution must lie in (0, 0.01], got {grid_resolution}")
    link.require_positive_gains()
    if use_asymptotic:
        def objective(tau: float) -> float:
            return throughput_asymptotic(link.mu1, link.mu2, tau)
    else:
        frame_n = int(n)  # validated by FrameConfig below

        def objective(tau: float) -> float:
            return throughput_closed(link, FrameConfig(frame_n, tau))

    taus = np.arange(0.0, 1.0, grid_resolution)
    values = np.array([objective(float(t)) for t in taus])
    best = int(np.argmax(values))  # first max wins: smallest tau on ties
    tau_star, achieved = float(taus[best]), float(values[best])

    lo = max(0.0, tau_star - grid_resolution)
    hi = min(1.0 - _REFINE_TOL, tau_star + grid_resolution)
    refined = False
    if hi > lo:
        x, fx = _golden_max(objective, lo, hi, _REFINE_TOL)
        if fx > achieved:
            tau_star, achieved, refined = x, fx, True
    return TauSearchResult(tau_star, achieved, grid_resolution, refined)


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
    grid = np.empty((len(p1_values), len(p2_values)))
    for i, p1 in enumerate(p1_values):
        for j, p2 in enumerate(p2_values):
            link = LinkConfig(p1=float(p1), p2=float(p2), h1=h1, h2=h2)
            grid[i, j] = throughput_closed(link, frame)

    violations: list[tuple[str, int, int]] = []
    for i in range(len(p1_values) - 1):
        for j in range(len(p2_values)):
            if not grid[i + 1, j] > grid[i, j]:
                violations.append(("p1", i, j))
    for i in range(len(p1_values)):
        for j in range(len(p2_values) - 1):
            if not grid[i, j + 1] > grid[i, j]:
                violations.append(("p2", i, j))

    imax, jmax = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return PowerSweepReport(
        p1_values=p1_values, p2_values=p2_values, throughput=grid,
        violations=violations,
        argmax=(float(p1_values[imax]), float(p2_values[jmax])),
    )
