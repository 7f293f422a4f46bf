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

from ._bands import BandedMatrix


class DomainError(ValueError):
    """Raised when inputs leave the admissible parameter region."""


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
        # numpy scalars register as numbers, numpy bools do not
        for name, kind in (("p1", numbers.Real), ("p2", numbers.Real),
                           ("h1", numbers.Complex), ("h2", numbers.Complex)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, kind):
                raise DomainError(f"{name} must be a number, got {v!r}")
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
        for name, v in zip(("eps1", "eps2"), self.arrays()):
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


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots of the banded determinant recursion."""

    r1: float
    r2: float


def _stencil(n2: int, diagonals) -> BandedMatrix:
    """2-periodic n2 x n2 band (n2 even) in band layout: diagonal k of each
    (k, even, odd) holds even on the even rows, odd on the odd rows; other
    diagonals, and any with |k| >= n2, are zero.  Array values broadcast
    to one matrix per batch entry."""
    shape = np.broadcast(*(v for _, *pair in diagonals for v in pair)).shape
    width = min(max(abs(k) for k, _, _ in diagonals), n2 - 1)
    period = np.zeros(shape + (2 * width + 1, 2))
    for k, even, odd in diagonals:
        if abs(k) <= width:
            # column j holds row j - k: even when j and k agree mod 2
            period[..., width - k, k % 2] = even
            period[..., width - k, 1 - k % 2] = odd
    ab = np.repeat(period[..., None, :], n2 // 2, axis=-2).reshape(
        shape + (2 * width + 1, n2))
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


def _unit_step(n2: int, a_even, a_odd) -> BandedMatrix:
    """The mistimed-sampling stencil: E1 when stream-1 rows (even) are
    offset by a_even = eps1 and stream-2 rows (odd) by a_odd = eps1 + eps2.

    Every row spans offsets -2..+2, with the unit-step terms landing on
    the +-2 slots.  Equal-shape array offsets give one matrix per batch
    entry.
    """
    return _stencil(n2, (
        (0, -np.abs(a_even), -np.abs(a_odd)),
        (1, a_even, a_odd),
        (-1, -a_even, -a_odd),
        (2, np.maximum(a_even, 0.0), np.maximum(a_odd, 0.0)),
        (-2, np.maximum(-a_even, 0.0), np.maximum(-a_odd, 0.0)),
    ))


def _coordination_step(n2: int, eps2) -> BandedMatrix:
    """E2: the symmetric pattern whose super-diagonal alternates -eps2,
    +eps2 from (row 0, col 1)."""
    return _stencil(n2, ((1, -eps2, eps2), (-1, eps2, -eps2)))


def build_noise_covariance(frame: FrameConfig, eps2) -> BandedMatrix:
    """RhatN = R + E2, the noise covariance when the stream-2 bank is
    offset by eps2 relative to stream 1.

    The noise sees only the relative offset of the two banks, so eps1
    plays no part and E1 is never formed.  The super-diagonal alternates
    (1 - tau) - eps2, tau + eps2: bit for bit R's plus E2's, without
    forming either.  Admissibility is left to the caller; a 1-D array
    eps2 gives one matrix per entry.
    """
    tau, e2 = frame.tau, np.asarray(eps2, dtype=float)
    first, second = (1.0 - tau) - e2, tau + e2
    return _stencil(2 * frame.n, ((0, 1.0, 1.0), (1, first, second),
                                  (-1, second, first)))


def build_error_matrices(
    frame: FrameConfig, err: TimingError
) -> tuple[BandedMatrix, BandedMatrix, BandedMatrix, BandedMatrix]:
    """Perturbation and perturbed matrices for a mistimed frame.

    Returns (E1, E2, Rhat, RhatN) with Rhat = R + E1 (signal mixing) and
    RhatN = R + E2 (noise covariance, from build_noise_covariance).  E1
    follows the general unit-step stencil, valid for every sign of eps1
    and eps1 + eps2; E2 is the symmetric alternating -eps2, +eps2
    pattern.
    A batched err gives batched matrices, one per point of the flattened
    batch; every point is checked for admissibility first.
    """
    err.check_admissible(frame)
    e1, e2 = err.arrays()
    if e1.ndim > 1:
        e1, e2 = e1.ravel(), e2.ravel()
    e1_mat, rhat = _mixing(frame, e1, e2)
    return (e1_mat, _coordination_step(2 * frame.n, e2), rhat,
            build_noise_covariance(frame, e2))


def _mixing(frame: FrameConfig, eps1, eps2) -> tuple[BandedMatrix, BandedMatrix]:
    """(E1, Rhat = R + E1) at offsets eps1, eps2 (scalars or equal-shape
    1-D arrays); admissibility is left to the caller."""
    e1_mat = _unit_step(2 * frame.n, eps1, eps1 + eps2)
    return e1_mat, build_correlation(frame) + e1_mat
