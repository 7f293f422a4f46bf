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

Noise has one model: the window edges split the frame into 2n + 1
cells whose integrated white noise is independent, with variance the
cell length, and window r (row r of the interleaved streams) covers
cells r and r + 1.  So the noise vector is W g, W the 2n x (2n + 1)
bidiagonal of the roots of the cell lengths and g white, and RhatN =
W W^T.  draw_colored_noise (and matched_filter_outputs with noise) forms
W g in O(n), factoring nothing.  noise_covariance_mc validates RhatN by
Monte Carlo, reading the trials only through the Gram matrix of the cell
noise, drawn exactly in distribution from its triangular Bartlett factor
(Goodman, Ann. Math. Statist. 1963), so time and memory do not grow with
the trial count.

Symbols outside the frame are zero: a frame carries exactly n symbols
per user and occupies n + tau symbol intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_N_MAX, DomainError, FrameConfig, LinkConfig,
                    TimingError, _config, _error_matrices, _frame, _gain,
                    _length, _noise_covariance, _noise_overlaps, _real,
                    _require_bytes, _seed)

# bytes per pair of the noise Monte Carlo's 2n + 1 cells: its Bartlett factor,
# R W^T, the estimate and the deviation, each about one complex square array
_CELL_PAIR_BYTES = 64


@dataclass(frozen=True)
class SymbolFrame:
    """One frame of unit-variance symbols for both users."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("s1", "s2"):
            object.__setattr__(self, name, _real(
                name, getattr(self, name), batch=True, kind=complex))
        if self.s1.ndim != 1 or self.s1.shape != self.s2.shape or not self.n:
            raise DomainError("s1 and s2 must be equal-length 1-D sequences")

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
    n = _length("n", n)
    # its peak holds about five float rows of 2n entries
    _require_bytes(f"n = {n}", 16 * 5 * n)
    if not (isinstance(constellation, str)
            and constellation in ("qpsk", "gaussian")):
        raise DomainError(f"unknown constellation {constellation!r}")
    rng = _seed("seed", seed)
    if constellation == "qpsk":
        pts = (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0))
        s1 = pts[rng.integers(0, 4, size=n)]
        s2 = pts[rng.integers(0, 4, size=n)]
    else:
        s1 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        s2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    return SymbolFrame(s1, s2)


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def draw_colored_noise(frame: FrameConfig, eps2: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Interleaved 2n noise vector with the model covariance RhatN: W g,
    g of 2n + 1 complex normals, their 2n + 1 real then 2n + 1 imaginary
    parts standard normals from rng (see the module docstring)."""
    point = TimingError(0.0, eps2)
    point.require_point("draw_colored_noise")
    return _colored_noise(_frame(frame, 9), *point.arrays(),
                          _config("rng", rng, np.random.Generator))


def _colored_noise(frame: FrameConfig, e1, e2,
                   rng: np.random.Generator) -> np.ndarray:
    """draw_colored_noise at checked arguments; a point outside the
    noise domain raises DomainError naming (e1, e2)."""
    w = _interval_weights(frame, e1, e2)
    z = rng.standard_normal((2, len(w)))
    g = z[0] + 1j * z[1]
    del z  # each array is freed once read, which bounds the peak
    g /= math.sqrt(2.0)
    out = g[:-1] * w[:-1]
    out += g[1:] * w[1:]
    return out


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
    err = _simulator_args(symbols, link, frame, err, batch=False)
    # a bool, numpy's too, or the int 0 or 1
    if isinstance(noiseless, (bool, np.bool_)):
        noiseless = int(noiseless)
    noiseless = _real("noiseless", noiseless, 0, 2, "be a bool, 0 or 1",
                      kind=int)
    rng = None if noiseless else _seed("rng", rng)
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
        noise = _colored_noise(frame, *err.arrays(), rng)
        y1 = y1 + noise[0::2]
        y2 = y2 + noise[1::2]
    return SampleVectors(y1, y2)


def model_outputs(symbols: SymbolFrame, link: LinkConfig, frame: FrameConfig,
                  err: TimingError | None = None) -> np.ndarray:
    """Interleaved noiseless outputs predicted by the banded linear model,
    Rhat (h * x), formed from Rhat's diagonals in O(n); for a batched err,
    one row per point of the flattened batch."""
    err = _simulator_args(symbols, link, frame, err, batch=True)
    rhat = _error_matrices(frame, *err.arrays())[2]
    x = np.column_stack((symbols.s1, symbols.s2)).ravel()  # interleaved
    return rhat.matvec(_gain(link, frame.n) * x)


def _simulator_args(symbols: SymbolFrame, link: LinkConfig, frame: FrameConfig,
                    err: TimingError | None, batch: bool) -> TimingError:
    """err, or the zero error for None, after both simulators' checks:
    one point unless batch, and each point's frame within the budget."""
    _config("link", link, LinkConfig)
    err = TimingError() if err is None else _config("err", err, TimingError)
    if not batch:
        err.require_point("the simulator")
    points = err.arrays()[0].size
    if _config("symbols", symbols, SymbolFrame).n != _frame(frame, 16, points).n:
        raise DomainError(
            f"frame carries {frame.n} symbols but got {symbols.n}")
    err.check_admissible(frame)
    return err


def _interval_weights(frame: FrameConfig, e1, e2) -> np.ndarray:
    """W's weights, the roots of the 2n + 1 cell lengths s, 1 - s, ..., s
    (s = tau + eps2 from model._noise_overlaps, each length formed once)
    at the offsets e1, e2 of one point.  Stream-1 window i is [i, i + 1]
    and stream-2 window i is [i + s, i + 1 + s]; their edges split
    [0, n + s) into [k, k + s), [k + s, k + 1), k < n, and [n, n + s)."""
    s, t = _noise_overlaps(frame, e1, e2)
    root = np.empty(2 * frame.n + 1)
    root[0::2], root[1::2] = math.sqrt(s), math.sqrt(t)
    return root


def _gram_factor(rng: np.random.Generator, trials: int,
                 cells: int) -> np.ndarray:
    """Upper-trapezoidal R, ``(min(trials, cells), cells)``, with R^H R
    distributed as Z^H Z for trials x cells complex normals Z with
    standard parts (Bartlett): R[k, k] = sqrt(chi^2(2 (trials - k))) and
    R[k, j > k] = a + ib, a and b standard normals.  Drawn in this order:
    the real then the imaginary part of each block entry, row by row
    (those on and below the diagonal discarded), then R[k, k] from k = 0."""
    k = min(trials, cells)
    r = np.triu(rng.standard_normal((k, cells, 2)).view(complex)[..., 0], 1)
    diag = np.arange(k)
    r[diag, diag] = np.sqrt(rng.chisquare(2.0 * trials - 2.0 * diag))
    return r


def noise_covariance_mc(frame: FrameConfig, eps2: float = 0.0,
                        trials: int = 10_000,
                        seed: int | None = None) -> NoiseCovarianceReport:
    """Monte Carlo validation of the colored-noise covariance.

    Complex white noise drawn once per cell between window edges (see
    _interval_weights) is the integrated noise's exact distribution, so
    the estimate has no discretization bias for any tau + eps2.  Its
    ``trials`` draws enter only through their Gram matrix, drawn from its
    Bartlett factor (_gram_factor; Goodman, Ann. Math. Statist. 1963;
    Odell & Feiveson, JASA 1966) in O(cells^2) whatever the trials.
    """
    _config("frame", frame, FrameConfig)
    trials = _real("trials", trials, 10_000, _N_MAX + 1,
                   f"be an int in [10000, {_N_MAX}]", kind=int)
    eps2 = np.float64(_real("eps2", eps2))
    cells = 2 * frame.n + 1
    _require_bytes(f"frame length n = {frame.n}", _CELL_PAIR_BYTES * cells * cells)
    root = _interval_weights(frame, np.float64(0.0), eps2)
    r = _gram_factor(_seed("seed", seed), trials, cells)
    # R W^T from window r's two weights, on cells r and r + 1; the real
    # and the imaginary part of a cell each carry its length L as
    # variance, twice a complex cell's L: halved once at the end
    rw = r[:, :-1] * root[:-1] + r[:, 1:] * root[1:]
    del r  # each array is freed once read, which bounds the peak
    cov = rw.T @ rw.conj()
    del rw
    cov *= 1.0 / (2.0 * trials)

    expected = _noise_covariance(frame, eps2).to_dense()
    dev = float(np.max(np.abs(cov - expected)))
    stat_bound = 3.0 / math.sqrt(trials)
    return NoiseCovarianceReport(
        empirical=cov, max_abs_deviation=dev, stat_bound=stat_bound,
    )
