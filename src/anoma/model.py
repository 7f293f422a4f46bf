"""Domain types and structured matrices for the two-user oversampled uplink.

Index convention used throughout the package: the 2N samples and 2N
symbols of one frame are interleaved, so row/column ``2i`` belongs to
stream 1 at symbol slot ``i`` and ``2i + 1`` to stream 2 at slot ``i``
(0-based).  With normalized mismatch tau, the correlation matrix of the
two matched-filter banks is the symmetric tridiagonal

    row 2i  :  [... tau   1    1-tau ...]
    row 2i+1:  [... 1-tau 1    tau   ...]

which also serves as the covariance of the oversampled noise vector.
Timing offsets (sync error eps1, coordination error eps2) perturb both
the signal mixing matrix and the noise covariance; the perturbations are
banded with at most two off-diagonals and are built here for every sign
combination of eps1 and eps1 + eps2.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._bands import BandedMatrix, band_array


class DomainError(ValueError):
    """Raised when inputs leave the admissible parameter region."""


def _require_number(name: str, v, kind: type = numbers.Real,
                    batch: bool = False) -> None:
    """DomainError unless v is a number of the given kind, or with batch
    anything numpy reads as an int or float array.  A bool is no number:
    numpy scalars register as numbers, numpy bools do not."""
    if batch:
        try:  # a ragged nested list is no array
            ok = np.asarray(v).dtype.kind in "iuf"
        except ValueError:
            ok = False
    else:
        ok = isinstance(v, kind) and not isinstance(v, bool)
    if not ok:
        noun = "an int" if kind is numbers.Integral else "a number"
        raise DomainError(f"{name} must be {noun}, got {v!r}")


def _require_config(name: str, v, cls: type) -> None:
    """DomainError unless v is an instance of the config class cls."""
    if not isinstance(v, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {v!r}")


def _require_seed(name: str, seed) -> np.random.Generator:
    """numpy's default_rng(seed), or DomainError where numpy rejects seed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be None, an int >= 0 or a "
                          f"Generator, got {seed!r}") from None


@dataclass(frozen=True)
class LinkConfig:
    """Per-user transmit powers and complex channel coefficients.

    The throughput formulas depend on the link only through the receive
    gains mu1 = p1*|h1|^2 and mu2 = p2*|h2|^2; h1/h2 stay complex so the
    waveform simulator can carry phase.
    """

    p1: float
    p2: float
    h1: complex = 1.0 + 0.0j
    h2: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        for name, kind in (("p1", numbers.Real), ("p2", numbers.Real),
                           ("h1", numbers.Complex), ("h2", numbers.Complex)):
            _require_number(name, getattr(self, name), kind)
        for name in ("p1", "p2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and >= 0, got {v}")
        for name in ("h1", "h2"):
            h = complex(getattr(self, name))
            if not cmath.isfinite(h):
                raise DomainError(f"{name} must be finite, got {h}")

    @classmethod
    def from_gains(cls, mu1: float, mu2: float) -> "LinkConfig":
        """Link with unit channels whose receive gains are (mu1, mu2)."""
        return cls(p1=mu1, p2=mu2)

    @property
    def mu1(self) -> float:
        return self.p1 * abs(self.h1) ** 2

    @property
    def mu2(self) -> float:
        return self.p2 * abs(self.h2) ** 2

    def require_positive_gains(self) -> None:
        """The rate routes invert each gain, so each gain and its
        reciprocal must be positive and finite: below about 5.6e-309 the
        reciprocal overflows."""
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not (mu > 0.0 and math.isfinite(mu) and math.isfinite(1.0 / mu)):
                raise DomainError(f"throughput needs {name} > 0 with a finite "
                                  f"1/{name}, got {name}={mu}")


# the largest frame length: every route indexes the frame with int64
_N_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class FrameConfig:
    """Frame length n (symbols per user) and normalized timing mismatch tau."""

    n: int
    tau: float

    def __post_init__(self) -> None:
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or not 1 <= self.n <= _N_MAX):
            # repr shows a string as one; str keeps np.int64(0) as 0
            got = (self.n if isinstance(self.n, (int, np.integer))
                   else repr(self.n))
            raise DomainError(f"frame length n must be an int in [1, {_N_MAX}], "
                              f"got {got}")
        _require_number("tau", self.tau)
        if not (0.0 <= self.tau < 1.0):
            raise DomainError(f"tau must lie in [0, 1), got {self.tau}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class TimingError:
    """Normalized synchronization (eps1) and coordination (eps2) offsets.

    One point, or a batch of points when eps1 and eps2 are arrays (they
    broadcast against each other).  The timing-error functions evaluate
    a batch in one call and return an array of its shape.
    """

    eps1: float | np.ndarray = 0.0
    eps2: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            _require_number(name, v, batch=True)
            if not np.isfinite(v).all():
                raise DomainError(f"{name} must be finite")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """eps1 and eps2 as float arrays of the common batch shape."""
        e1 = np.asarray(self.eps1, dtype=float)
        e2 = np.asarray(self.eps2, dtype=float)
        if e1.shape != e2.shape:
            e1, e2 = np.broadcast_arrays(e1, e2)
        return e1, e2

    def point(self, index: int) -> str:
        """Coordinates of one point of the flattened batch, for messages."""
        e1, e2 = self.arrays()
        return (f"(eps1, eps2) = ({float(e1.flat[index])}, "
                f"{float(e2.flat[index])})")

    def require_point(self, who: str) -> None:
        """DomainError unless this is one point: ``who`` takes no batch."""
        if np.ndim(self.eps1) or np.ndim(self.eps2):
            raise DomainError(f"{who} takes one timing point, not a batch")

    def check_admissible(self, frame: FrameConfig) -> None:
        """Both sampling banks must stay within one symbol of their target.

        Every point of a batch is checked; the error names the first one
        that fails.
        """
        _require_config("frame", frame, FrameConfig)
        tau = frame.tau
        e1, e2 = self.arrays()
        s = e1 + e2
        bad_sync = (e1 < tau - 1.0) | (e1 > tau)
        bad = bad_sync | (s < -tau) | (s > 1.0 - tau)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        if bad_sync.flat[i]:
            what = f"eps1={float(e1.flat[i])} outside [tau-1, tau]"
        else:
            what = f"eps1+eps2={float(s.flat[i])} outside [-tau, 1-tau]"
        raise DomainError(f"{what} for tau={tau} at {self.point(i)}")


def _stencil(n2: int, diagonals, out: np.ndarray | None = None) -> BandedMatrix:
    """2-periodic n2 x n2 band (n2 even) in band layout: diagonal k of each
    (k, even, odd) holds even on the even rows, odd on the odd rows; other
    diagonals, and any with |k| >= n2, are zero.  Array values broadcast
    to one matrix per batch entry.  With out, a flat float array, the
    band is written to its front (band_array)."""
    shape = np.broadcast(*(v for _, *pair in diagonals for v in pair)).shape
    width = min(max(abs(k) for k, _, _ in diagonals), n2 - 1)
    period = band_array(shape, 2 * width + 1, 2, zero=True)
    for k, even, odd in diagonals:
        if abs(k) <= width:
            # column j holds row j - k: even when j and k agree mod 2
            period[..., width - k, k % 2] = even
            period[..., width - k, 1 - k % 2] = odd
    ab = band_array(shape, 2 * width + 1, n2, out=out)
    ab[..., 0::2] = period[..., :1]
    ab[..., 1::2] = period[..., 1:]
    for k in range(1, width + 1):
        ab[..., width - k, :k] = ab[..., width + k, n2 - k:] = 0.0
    return BandedMatrix(ab, width, width)


def build_correlation(frame: FrameConfig) -> BandedMatrix:
    """Sampled-pulse correlation matrix (doubles as the noise covariance).

    Unit diagonal; the first super-diagonal alternates 1-tau, tau starting
    from (row 0, col 1); symmetric.  It is RhatN at eps2 = 0, bit for bit.
    """
    return build_noise_covariance(frame, 0.0)


def build_gain(link: LinkConfig, n: int) -> np.ndarray:
    """Diagonal of the complex gain H, length 2n: even slots
    h1*sqrt(p1) (stream 1), odd slots h2*sqrt(p2) (stream 2)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    g1 = link.h1 * cmath.sqrt(link.p1)
    g2 = link.h2 * cmath.sqrt(link.p2)
    entries = np.empty(2 * n, dtype=complex)
    entries[0::2] = g1
    entries[1::2] = g2
    return entries


def _unit_step_diagonals(a_even, a_odd) -> tuple:
    """The mistimed-sampling stencil's diagonals as _stencil takes them:
    E1 when stream-1 rows (even) are offset by a_even = eps1 and
    stream-2 rows (odd) by a_odd = eps1 + eps2.

    Every row spans offsets -2..+2, with the unit-step terms landing on
    the +-2 slots.  Equal-shape array offsets give one matrix per batch
    entry.
    """
    return ((0, -np.abs(a_even), -np.abs(a_odd)),
            (1, a_even, a_odd),
            (-1, -a_even, -a_odd),
            (2, np.maximum(a_even, 0.0), np.maximum(a_odd, 0.0)),
            (-2, np.maximum(-a_even, 0.0), np.maximum(-a_odd, 0.0)))


def build_noise_covariance(frame: FrameConfig, eps2) -> BandedMatrix:
    """RhatN = R + E2, the noise covariance when the stream-2 bank is
    offset by eps2 relative to stream 1.

    The noise sees only the relative offset of the two banks, so eps1
    plays no part and E1 is never formed.  The super-diagonal alternates
    (1 - tau) - eps2, tau + eps2: bit for bit R's plus E2's, without
    forming either.  Admissibility is left to the caller; a 1-D array
    eps2 gives one matrix per entry.
    """
    return _stencil(2 * frame.n, _noise_diagonals(frame.tau, eps2))


def _noise_diagonals(tau: float, eps2) -> tuple:
    """RhatN's diagonals as _stencil takes them."""
    e2 = np.asarray(eps2, dtype=float)
    first, second = (1.0 - tau) - e2, tau + e2
    return ((0, 1.0, 1.0), (1, first, second), (-1, second, first))


def build_error_matrices(
    frame: FrameConfig, err: TimingError
) -> tuple[BandedMatrix, BandedMatrix, BandedMatrix, BandedMatrix]:
    """Perturbation and perturbed matrices for a mistimed frame.

    Returns (E1, E2, Rhat, RhatN) with Rhat = R + E1 (signal mixing) and
    RhatN = R + E2 (noise covariance, from build_noise_covariance).  E1
    follows the general unit-step stencil, valid for every sign of eps1
    and eps1 + eps2; E2 is the symmetric pattern whose super-diagonal
    alternates -eps2, +eps2 from (row 0, col 1).
    A batched err gives batched matrices, one per point of the flattened
    batch; every point is checked for admissibility first.
    """
    err.check_admissible(frame)
    e1, e2 = err.arrays()
    if e1.ndim > 1:
        e1, e2 = e1.ravel(), e2.ravel()
    n2 = 2 * frame.n
    return (_stencil(n2, _unit_step_diagonals(e1, e1 + e2)),
            _stencil(n2, ((1, -e2, e2), (-1, e2, -e2))),
            _mixing(frame, e1, e2), build_noise_covariance(frame, e2))


def _mixing(frame: FrameConfig, eps1, eps2,
            out: np.ndarray | None = None) -> BandedMatrix:
    """Rhat = R + E1 at offsets eps1, eps2 (scalars or equal-shape 1-D
    arrays), written to the front of out when given; admissibility is
    left to the caller.

    One stencil whose diagonals are R's plus E1's, each summed as the
    band sum pads it (R's entry + E1's; 0.0 + E1's where R has none): bit
    for bit build_correlation(frame) + E1, without forming either.
    """
    r = {k: (even, odd) for k, even, odd in _noise_diagonals(frame.tau, 0.0)}
    diagonals = []
    for k, even, odd in _unit_step_diagonals(eps1, eps1 + eps2):
        r_even, r_odd = r.get(k, (0.0, 0.0))
        diagonals.append((k, r_even + even, r_odd + odd))
    return _stencil(2 * frame.n, diagonals, out)
