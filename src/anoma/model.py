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


# the most memory one call may ask for: a request past it raises
# DomainError before it is allocated.  An O(n) route asks for the float
# rows of 2n entries (16 n bytes each) that it holds at its peak, as
# tracemalloc measures it (tests/test_inputs.py checks each route's count)
MAX_BYTES = 1 << 30
# the largest frame length: every route indexes the frame with int64
_N_MAX = int(np.iinfo(np.int64).max)
# the least gain whose reciprocal is finite, and the least positive float
_MU_MIN = float(np.nextafter(2.0 ** -1024, 1.0))
_GAIN = "be > 0 with a finite reciprocal"
_TINY = math.ulp(0.0)
# per kind of number: its scalar type, numpy's dtype kinds, and its noun
_KINDS = {float: (numbers.Real, "iuf", "a number"),
          complex: (numbers.Complex, "iufc", "a number"),
          int: (numbers.Integral, "iu", "an int")}


def _every(values) -> bool:
    """values.all(), without a reduction's fixed cost on one value."""
    return bool(values) if values.ndim == 0 else bool(values.all())


def _real(name: str, v, lo=None, hi=math.inf, rule: str | None = "be finite",
          batch: bool = False, kind: type = float):
    """v as a kind (float, complex or int), or with batch as a numpy array
    of them, else DomainError naming name.  A bool or a string is no
    number, nor a float an int, and a ragged list no array.  Every entry
    must then be finite, or with lo lie in [lo, hi), as rule says; rule
    None checks no value.  An int past the float range reads as +-inf.
    """
    scalar, dtypes, noun = _KINDS[kind]
    try:  # a ragged nested list is no array
        x = np.asarray(v) if batch else v
        ok = (x.dtype.kind in dtypes if batch
              else isinstance(v, scalar) and not isinstance(v, bool))
    except ValueError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be {noun}, got {v!r}")
    try:  # an int array is kept as numpy holds it
        x = (x if kind is int else x.astype(kind, copy=False)) if batch else kind(v)
    except OverflowError:  # an int past the float range
        x = kind(math.inf if v > 0 else -math.inf)
    if rule is None:
        return x
    finite = np.isfinite if batch else cmath.isfinite
    inside = finite(x) if lo is None else (lo <= x) & (x < hi)
    if _every(inside) if batch else inside:
        return x
    bad = x.flat[np.argmax(~inside)] if batch else x
    raise DomainError(f"{name} must {rule}, got {bad}")


def _length(name: str, v, batch: bool = False):
    """v as a frame length in [1, _N_MAX], as _real checks it."""
    return _real(name, v, 1, _N_MAX + 1, f"be an int in [1, {_N_MAX}]",
                 batch, int)


def _config(name: str, v, cls: type):
    """v, or DomainError unless it is an instance of the class cls."""
    if not isinstance(v, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {v!r}")
    return v


def _seed(name: str, seed) -> np.random.Generator:
    """default_rng(seed), or DomainError for a bool or what numpy rejects."""
    try:
        if isinstance(seed, (bool, np.bool_)):
            raise TypeError
        return np.random.default_rng(seed)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be None, an int >= 0 or a "
                          f"Generator, got {seed!r}") from None


def _require_bytes(what: str, n_bytes) -> None:
    """DomainError, naming what needs the bytes, past MAX_BYTES."""
    if n_bytes > MAX_BYTES:  # an int count may be past the float range
        size = f"about {n_bytes:.3g}" if n_bytes < 1e300 else "over 1e300"
        raise DomainError(f"{what} needs {size} bytes, over the budget of "
                          f"MAX_BYTES = {MAX_BYTES}")


def _frame(frame, rows: int, points: int = 1) -> "FrameConfig":
    """frame, a FrameConfig on which a route that holds rows float rows
    of 2n entries for each of points frames fits in MAX_BYTES."""
    n = _config("frame", frame, FrameConfig).n
    _require_bytes(f"frame length n = {n}", 16 * rows * n * max(points, 1))
    return frame


def _link(link) -> "LinkConfig":
    """link, a LinkConfig whose gains the rate routes take."""
    _config("link", link, LinkConfig).require_positive_gains()
    return link


def _at(e1: np.ndarray, e2: np.ndarray, i: int) -> str:
    """Coordinates of point i of flattened offsets, for messages."""
    return f"(eps1, eps2) = ({float(e1.flat[i])}, {float(e2.flat[i])})"


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
        for name in ("p1", "p2"):
            object.__setattr__(self, name, _real(
                name, getattr(self, name), 0.0, rule="be finite and >= 0"))
        for name in ("h1", "h2"):
            object.__setattr__(self, name,
                               _real(name, getattr(self, name), kind=complex))
        for k, p, h in (("1", self.p1, self.h1), ("2", self.p2, self.h2)):
            if not math.isfinite(p * (abs(h) * abs(h))):  # so abs(h) ** 2 fits
                raise DomainError(f"gain mu{k} = p{k} |h{k}|^2 must be finite")

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
        _real("mu1", self.mu1, _MU_MIN, rule=_GAIN)
        _real("mu2", self.mu2, _MU_MIN, rule=_GAIN)


@dataclass(frozen=True)
class FrameConfig:
    """Frame length n (symbols per user) and normalized timing mismatch tau."""

    n: int
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _length("frame length n", self.n))
        object.__setattr__(self, "tau", _real("tau", self.tau, 0.0, 1.0,
                                              "lie in [0, 1)"))


@dataclass(frozen=True)
class TimingError:
    """Normalized synchronization (eps1) and coordination (eps2) offsets.

    One point, or a batch of points when eps1 and eps2 are arrays (they
    broadcast against each other), kept as numpy floats.  The
    timing-error functions evaluate a batch in one call and return an
    array of its shape.
    """

    eps1: float | np.ndarray = 0.0
    eps2: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2"):
            # [()] keeps one point a numpy float, not a 0-d array
            object.__setattr__(self, name,
                               _real(name, getattr(self, name), batch=True)[()])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """eps1 and eps2 as float arrays of the common batch shape."""
        e1, e2 = np.asarray(self.eps1), np.asarray(self.eps2)
        if e1.shape != e2.shape:
            e1, e2 = np.broadcast_arrays(e1, e2)
        return e1, e2

    def require_point(self, who: str) -> None:
        """DomainError unless this is one point: ``who`` takes no batch."""
        if np.ndim(self.eps1) or np.ndim(self.eps2):
            raise DomainError(f"{who} takes one timing point, not an eps1, eps2 batch")

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
        raise DomainError(f"{what} for tau={tau} at {_at(e1, e2, i)}")


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
    return _noise_covariance(_frame(frame, 3), 0.0)


def build_gain(link: LinkConfig, n: int) -> np.ndarray:
    """Diagonal of the complex gain H, length 2n: even slots
    h1*sqrt(p1) (stream 1), odd slots h2*sqrt(p2) (stream 2)."""
    n = _length("n", n)
    _require_bytes(f"n = {n}", 32 * n)  # one complex row of 2n entries
    return _gain(_config("link", link, LinkConfig), n)


def _gain(link: LinkConfig, n: int) -> np.ndarray:
    """build_gain, its arguments already checked."""
    entries = np.empty(2 * n, dtype=complex)
    entries[0::2] = link.h1 * cmath.sqrt(link.p1)
    entries[1::2] = link.h2 * cmath.sqrt(link.p2)
    return entries


def _mu_diagonal(link: LinkConfig, n: int) -> np.ndarray:
    """Real diagonal of D = H H^H, length 2n, from the link's gains: mu1
    on the even slots, mu2 on the odd; every rate route's one D."""
    return np.tile([link.mu1, link.mu2], n)


def _unit_step_diagonals(a_even, a_odd) -> tuple:
    """The mistimed-sampling stencil's diagonals as _stencil takes them:
    E1 when stream-1 rows (even) are offset by a_even = eps1 and
    stream-2 rows (odd) by a_odd = eps1 + eps2.  Every row spans offsets
    -2..+2, the unit-step terms landing on the +-2 slots.
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
    eps2 = _real("eps2", eps2, batch=True)
    return _noise_covariance(_frame(frame, 3, eps2.size), eps2)


def _noise_covariance(frame: FrameConfig, eps2) -> BandedMatrix:
    """build_noise_covariance, its arguments already checked."""
    e2 = np.asarray(eps2, dtype=float)
    first, second = (1.0 - frame.tau) - e2, frame.tau + e2
    return _stencil(2 * frame.n, ((0, 1.0, 1.0), (1, first, second),
                                  (-1, second, first)))


def _noise_logdet2(frame: FrameConfig, e1, e2) -> np.ndarray:
    """log2 det RhatN at offsets e1, e2 (float arrays of one shape) of a
    checked frame, from s = tau + eps2 alone.  RhatN = W W^T, W the 2n x
    (2n + 1) bidiagonal of square roots of the overlaps s and 1 - s, so by
    Cauchy-Binet log2 det RhatN = n log2 s + (n - 1) log2(1 - s) + log2(n
    + 1 - s), the middle term absent at n = 1.  RhatN is positive definite
    where 0 < s < 1 and 0 < 1 - s < 1 (below s of about 2^-54, 1 - s
    rounds to 1.0, as the built entry (1 - tau) - eps2 does), or at n = 1,
    [[1, 1 - s], [1 - s, 1]], where |1 - s| < 1; elsewhere DomainError
    names the first point.
    """
    n, s = frame.n, frame.tau + e2
    t = 1.0 - s
    ok = np.abs(t) < 1.0 if n == 1 else (0.0 < t) & (t < 1.0)
    if not _every(ok):
        raise DomainError(f"noise covariance singular at tau={frame.tau}, "
                          f"{_at(e1, e2, int(np.argmax(~ok)))}")
    ld = n * np.log2(s) + np.log2(n + 1 - s)
    return ld if n == 1 else ld + (n - 1) * np.log2(t)


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
    e1, e2 = _config("err", err, TimingError).arrays()
    err.check_admissible(_frame(frame, 16, e1.size))
    return _error_matrices(frame, e1, e2)


def _error_matrices(frame: FrameConfig, e1, e2) -> tuple:
    """build_error_matrices at admissible offsets e1, e2 (float arrays of
    one shape) of a checked frame."""
    if e1.ndim > 1:
        e1, e2 = e1.ravel(), e2.ravel()
    n2 = 2 * frame.n
    return (_stencil(n2, _unit_step_diagonals(e1, e1 + e2)),
            _stencil(n2, ((1, -e2, e2), (-1, e2, -e2))),
            _mixing(frame, e1, e2), _noise_covariance(frame, e2))


def _mixing(frame: FrameConfig, eps1, eps2,
            out: np.ndarray | None = None) -> BandedMatrix:
    """Rhat = R + E1 at admissible offsets eps1, eps2 (scalars or
    equal-shape 1-D arrays), written to the front of out when given: one
    stencil whose diagonals are R's plus E1's, each summed as the band
    sum pads it (0.0 + E1's where R has none), so bit for bit
    build_correlation(frame) + E1, without forming either.
    """
    tau = frame.tau
    r = {0: (1.0, 1.0), 1: (1.0 - tau, tau), -1: (tau, 1.0 - tau)}
    diagonals = []
    for k, even, odd in _unit_step_diagonals(eps1, eps1 + eps2):
        r_even, r_odd = r.get(k, (0.0, 0.0))
        diagonals.append((k, r_even + even, r_odd + odd))
    return _stencil(2 * frame.n, diagonals, out)
