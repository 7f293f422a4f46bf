"""Symbol-level simulator for the oversampled two-user uplink.

Rectangular pulses of one symbol interval are normalized to unit energy,
so a matched filter applied to its own aligned pulse integrates to
exactly 1 and every sample coefficient is a plain window-overlap length.
Outputs are therefore computed by closed-form interval intersections --
no quadrature -- and must reproduce the banded linear model exactly
(up to float rounding) for every admissible timing offset.

Noise comes in two flavors that cross-check each other:

* a physics path that integrates sub-grid white noise through both
  filter banks (noise_covariance_mc), used to validate the colored
  covariance model by Monte Carlo;
* a fast path that draws the interleaved noise vector directly from the
  covariance model via a banded Cholesky factor (used by
  matched_filter_outputs when noise is requested).

Symbols outside the frame are zero: a frame carries exactly n symbols
per user and occupies n + tau symbol intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (DomainError, FrameConfig, LinkConfig, TimingError,
                    build_error_matrices, build_gain)


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
    expected: np.ndarray
    max_abs_deviation: float
    trials: int
    stat_bound: float


def generate_symbols(n: int, constellation: str = "gaussian",
                     seed: int | None = None) -> SymbolFrame:
    """Deterministic unit-variance symbol frame (gaussian or qpsk)."""
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
    """Interleaved 2n noise vector with the model covariance (fast path)."""
    _, _, _, rhat_n = build_error_matrices(frame, TimingError(0.0, eps2))
    try:
        factor = _bands.cholesky_upper(rhat_n)
    except np.linalg.LinAlgError:
        raise DomainError(
            f"noise covariance singular at tau={frame.tau}, eps2={eps2}"
        ) from None
    n2 = 2 * frame.n
    w = (rng.standard_normal(n2) + 1j * rng.standard_normal(n2)) / math.sqrt(2.0)
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
    between its pulse support and the window.
    """
    err = TimingError() if err is None else err
    err.check_admissible(frame)
    if symbols.n != frame.n:
        raise DomainError(
            f"frame carries {frame.n} symbols but got {symbols.n}")
    n, tau = frame.n, frame.tau
    a1 = link.h1 * math.sqrt(link.p1) * symbols.s1
    a2 = link.h2 * math.sqrt(link.p2) * symbols.s2

    off1 = err.eps1
    off2 = tau + err.eps1 + err.eps2
    y1 = np.zeros(n, dtype=complex)
    y2 = np.zeros(n, dtype=complex)
    for i in range(n):
        for k in range(max(0, i - 2), min(n, i + 3)):
            w = _overlap(i + off1, i + 1 + off1, k, k + 1)
            if w:
                y1[i] += a1[k] * w
            w = _overlap(i + off1, i + 1 + off1, k + tau, k + 1 + tau)
            if w:
                y1[i] += a2[k] * w
            w = _overlap(i + off2, i + 1 + off2, k + tau, k + 1 + tau)
            if w:
                y2[i] += a2[k] * w
            w = _overlap(i + off2, i + 1 + off2, k, k + 1)
            if w:
                y2[i] += a1[k] * w

    if not noiseless:
        rng = np.random.default_rng() if rng is None else rng
        noise = draw_colored_noise(frame, err.eps2, rng)
        y1 = y1 + noise[0::2]
        y2 = y2 + noise[1::2]
    return SampleVectors(y1, y2)


def model_outputs(symbols: SymbolFrame, link: LinkConfig, frame: FrameConfig,
                  err: TimingError | None = None) -> np.ndarray:
    """Interleaved noiseless outputs predicted by the banded linear model."""
    err = TimingError() if err is None else err
    _, _, rhat, _ = build_error_matrices(frame, err)
    x = np.empty(2 * frame.n, dtype=complex)
    x[0::2] = symbols.s1
    x[1::2] = symbols.s2
    hx = build_gain(link, frame.n) * x
    return rhat.to_dense() @ hx


def noise_covariance_mc(frame: FrameConfig, eps2: float = 0.0,
                        trials: int = 10_000, seed: int | None = None,
                        subsamples: int = 64) -> NoiseCovarianceReport:
    """Monte Carlo validation of the colored-noise covariance.

    White noise is approximated on a sub-grid of ``subsamples`` points
    per symbol interval with per-sample variance 1/dt; each matched
    filter weights a sub-interval by its exact overlap with the
    integration window, so grid-aligned windows incur no bias at all and
    misaligned ones at most O(1/subsamples) on same-bank entries.
    """
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials for a meaningful estimate")
    if not (0.0 < frame.tau + eps2 < 1.0):
        raise DomainError(
            f"noise model needs tau + eps2 in (0, 1), got {frame.tau + eps2}")
    n, tau = frame.n, frame.tau
    n2 = 2 * n
    dt = 1.0 / subsamples
    k_total = (n + 1) * subsamples  # sub-grid covers [0, n + 1)

    edges = np.arange(k_total) * dt
    weights = np.zeros((n2, k_total))
    for i in range(n):
        lo1, hi1 = float(i), float(i + 1)
        lo2, hi2 = i + tau + eps2, i + 1 + tau + eps2
        w1 = np.minimum(hi1, edges + dt) - np.maximum(lo1, edges)
        w2 = np.minimum(hi2, edges + dt) - np.maximum(lo2, edges)
        weights[2 * i] = np.clip(w1, 0.0, None)
        weights[2 * i + 1] = np.clip(w2, 0.0, None)

    rng = np.random.default_rng(seed)
    sigma = math.sqrt(subsamples / 2.0)
    cov = np.zeros((n2, n2), dtype=complex)
    done = 0
    batch = max(1, min(20_000, trials))
    wt = weights.T
    while done < trials:
        b = min(batch, trials - done)
        noise = sigma * (rng.standard_normal((b, k_total))
                         + 1j * rng.standard_normal((b, k_total)))
        y = noise @ wt
        cov += y.T @ y.conj()
        done += b
    cov /= trials

    _, _, _, rhat_n = build_error_matrices(frame, TimingError(0.0, eps2))
    expected = rhat_n.to_dense()
    dev = float(np.max(np.abs(cov - expected)))
    stat_bound = 3.0 / math.sqrt(trials)
    return NoiseCovarianceReport(
        empirical=cov, expected=expected, max_abs_deviation=dev,
        trials=trials, stat_bound=stat_bound,
    )
