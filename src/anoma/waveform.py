"""Symbol-level simulator for the oversampled two-user uplink.

Rectangular pulses of one symbol interval are normalized to unit energy,
so a matched filter applied to its own aligned pulse integrates to
exactly 1 and every sample coefficient is a plain window-overlap length.
Outputs are therefore computed by closed-form interval intersections --
no quadrature -- and must reproduce the banded linear model exactly
(up to float rounding) for every admissible timing offset.

The overlap of window i with the pulse of symbol i + d depends on d but
not on i.  The simulator takes these overlaps once, in coordinates local
to the slot, from interval geometry alone (it never reads the model's
matrices, so it stays an independent check of them), and builds each
stream with five shifted slice-adds: O(n) time, and rounding that does
not grow with the slot index.

Noise comes in two flavors that cross-check each other:

* a physics path that integrates white noise through both filter
  banks (noise_covariance_mc), used to validate the colored covariance
  model by Monte Carlo.  The window edges split the frame into 2n + 2
  cells whose integrated noise is exactly independent with variance
  equal to the cell length, so one draw per cell gives the outputs'
  exact distribution; the draws come in batches of bounded size, so
  memory does not grow with the trial count;
* a fast path that draws the interleaved noise vector directly from the
  noise covariance RhatN via a banded Cholesky factor (used by
  matched_filter_outputs when noise is requested).

Symbols outside the frame are zero: a frame carries exactly n symbols
per user and occupies n + tau symbol intervals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (DomainError, FrameConfig, LinkConfig, TimingError,
                    _require_number, build_error_matrices, build_gain,
                    build_noise_covariance)

# random values drawn per batch for each of the real and imaginary parts
# of the Monte Carlo's white noise: bounds its memory whatever the trials
_MC_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class SymbolFrame:
    """One frame of unit-variance symbols for both users."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        s1 = np.asarray(self.s1, dtype=complex)
        s2 = np.asarray(self.s2, dtype=complex)
        if s1.ndim != 1 or s1.shape != s2.shape or len(s1) < 1:
            raise DomainError("s1 and s2 must be equal-length 1-D sequences")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    @property
    def n(self) -> int:
        return len(self.s1)


@dataclass(frozen=True)
class SampleVectors:
    """Matched-filter output streams, one sample per symbol slot."""

    y1: np.ndarray
    y2: np.ndarray

    def interleaved(self) -> np.ndarray:
        out = np.empty(2 * len(self.y1), dtype=complex)
        out[0::2] = self.y1
        out[1::2] = self.y2
        return out


@dataclass(frozen=True)
class NoiseCovarianceReport:
    """Empirical noise covariance against the colored-noise model."""

    empirical: np.ndarray
    max_abs_deviation: float
    stat_bound: float


def generate_symbols(n: int, constellation: str = "gaussian",
                     seed: int | None = None) -> SymbolFrame:
    """Deterministic unit-variance symbol frame (gaussian or qpsk)."""
    _require_number("n", n, numbers.Integral)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if constellation == "qpsk":
        pts = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0))
        s1 = pts[rng.integers(0, 4, size=n)]
        s2 = pts[rng.integers(0, 4, size=n)]
    elif constellation == "gaussian":
        s1 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        s2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    else:
        raise DomainError(f"unknown constellation {constellation!r}")
    return SymbolFrame(s1, s2)


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def draw_colored_noise(frame: FrameConfig, eps2: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Interleaved 2n noise vector with the model covariance (fast path):
    2n real then 2n imaginary standard normals from rng, colored by the
    banded Cholesky factor of RhatN."""
    point = TimingError(0.0, eps2)
    point.check_admissible(frame)
    point.require_point("draw_colored_noise")
    try:
        factor = _bands.cholesky_upper(build_noise_covariance(frame, eps2))
    except np.linalg.LinAlgError:
        raise DomainError(
            f"noise covariance singular at tau={frame.tau}, eps2={eps2}"
        ) from None
    z = rng.standard_normal((2, 2 * frame.n))
    w = (z[0] + 1j * z[1]) / math.sqrt(2.0)
    return _bands.colored_factor_apply(factor, w)


def matched_filter_outputs(symbols: SymbolFrame, link: LinkConfig,
                           frame: FrameConfig,
                           err: TimingError | None = None,
                           noiseless: bool = True,
                           rng: np.random.Generator | None = None) -> SampleVectors:
    """Both sample streams of one frame, by exact overlap integrals.

    Stream-1 sample i integrates over [i + eps1, i + 1 + eps1]; stream-2
    sample i over the same window shifted by tau + eps2.  Each user-k
    symbol contributes its amplitude times the length of the overlap
    between its pulse support and the window.  For symbol i + d that
    length is taken in slot-local coordinates: window [off, 1 + off]
    against pulse [d, d + 1] (user 1) or [d + tau, d + 1 + tau] (user 2);
    only d = -2..2 can overlap.
    """
    err = TimingError() if err is None else err
    err.check_admissible(frame)
    err.require_point("the simulator")
    if symbols.n != frame.n:
        raise DomainError(
            f"frame carries {frame.n} symbols but got {symbols.n}")
    n, tau = frame.n, frame.tau
    a1 = link.h1 * math.sqrt(link.p1) * symbols.s1
    a2 = link.h2 * math.sqrt(link.p2) * symbols.s2

    off1 = float(err.eps1)
    off2 = tau + off1 + float(err.eps2)
    y1 = np.zeros(n, dtype=complex)
    y2 = np.zeros(n, dtype=complex)
    for d in range(-2, 3):
        # samples lo..hi-1 see symbols lo+d..hi+d-1
        lo, hi = max(0, -d), min(n, n - d)
        if lo >= hi:
            continue
        s1, s2 = a1[lo + d: hi + d], a2[lo + d: hi + d]
        y1[lo:hi] += (_overlap(off1, 1 + off1, d, d + 1) * s1
                      + _overlap(off1, 1 + off1, d + tau, d + 1 + tau) * s2)
        y2[lo:hi] += (_overlap(off2, 1 + off2, d + tau, d + 1 + tau) * s2
                      + _overlap(off2, 1 + off2, d, d + 1) * s1)

    if not noiseless:
        rng = np.random.default_rng() if rng is None else rng
        noise = draw_colored_noise(frame, err.eps2, rng)
        y1 = y1 + noise[0::2]
        y2 = y2 + noise[1::2]
    return SampleVectors(y1, y2)


def model_outputs(symbols: SymbolFrame, link: LinkConfig, frame: FrameConfig,
                  err: TimingError | None = None) -> np.ndarray:
    """Interleaved noiseless outputs predicted by the banded linear model,
    Rhat (h * x), formed from Rhat's diagonals in O(n)."""
    err = TimingError() if err is None else err
    _, _, rhat, _ = build_error_matrices(frame, err)
    if symbols.n != frame.n:
        raise DomainError(
            f"frame carries {frame.n} symbols but got {symbols.n}")
    x = np.column_stack((symbols.s1, symbols.s2)).ravel()  # interleaved
    return rhat.matvec(build_gain(link, frame.n) * x)


def _interval_weights(frame: FrameConfig, eps2: float) -> np.ndarray:
    """Filter weights of the Monte Carlo's white-noise cells, ``(2n, 2n + 2)``.

    Stream-1 window i is [i, i + 1] and stream-2 window i is [i + s,
    i + 1 + s], s = tau + eps2 in (0, 1).  Their edges split [0, n + 1)
    into the 2n + 2 cells [k, k + s), [k + s, k + 1), k = 0..n (the last
    one past every window).  White noise integrated over a cell of
    length L is a Gaussian of variance L, independent of the other
    cells, and window r (row r of the interleaved streams) covers
    exactly cells r and r + 1, so W[r, r] and W[r, r + 1] are the square
    roots of their lengths and W W^T is the window-overlap matrix RhatN.
    """
    n2 = 2 * frame.n
    k = np.arange(frame.n + 1)
    edges = np.append(np.column_stack((k, k + frame.tau + eps2)).ravel(),
                      frame.n + 1.0)
    root = np.sqrt(np.diff(edges))
    w = np.zeros((n2, n2 + 2))
    rows = np.arange(n2)
    w[rows, rows] = root[:-2]
    w[rows, rows + 1] = root[1:-1]
    return w


def noise_covariance_mc(frame: FrameConfig, eps2: float = 0.0,
                        trials: int = 10_000,
                        seed: int | None = None) -> NoiseCovarianceReport:
    """Monte Carlo validation of the colored-noise covariance.

    Unit-variance complex white noise is drawn once per cell between
    consecutive window edges (see _interval_weights), which is the exact
    distribution of the integrated noise: the estimate carries no
    discretization bias for any tau + eps2, only sampling error.  At
    most _MC_BATCH_VALUES values are drawn per batch.
    """
    _require_number("trials", trials, numbers.Integral)
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials for a meaningful estimate")
    _require_number("eps2", eps2)
    if not (0.0 < frame.tau + eps2 < 1.0):
        raise DomainError(
            f"noise model needs tau + eps2 in (0, 1), got {frame.tau + eps2}")
    wt = _interval_weights(frame, eps2).T
    cells, n2 = wt.shape
    rng = np.random.default_rng(seed)
    cov = np.zeros((n2, n2), dtype=complex)
    batch = max(1, _MC_BATCH_VALUES // cells)
    for start in range(0, trials, batch):
        b = min(batch, trials - start)
        # the real and the imaginary part of a cell each carry its
        # length L as variance, twice a complex cell's L: halved once
        # at the end
        y = (rng.standard_normal((b, cells)) @ wt
             + 1j * (rng.standard_normal((b, cells)) @ wt))
        cov += y.T @ y.conj()
    cov *= 1.0 / (2.0 * trials)

    expected = build_noise_covariance(frame, eps2).to_dense()
    dev = float(np.max(np.abs(cov - expected)))
    stat_bound = 3.0 / math.sqrt(trials)
    return NoiseCovarianceReport(
        empirical=cov, max_abs_deviation=dev, stat_bound=stat_bound,
    )
