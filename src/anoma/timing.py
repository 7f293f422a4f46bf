"""Throughput degradation under synchronization and coordination offsets.

The mistimed frame obeys Yhat = Rhat H X + Nhat with noise covariance
RhatN, so the achievable rate is

    R_e = log2 det(I + RhatN^-1 Rhat H H^H Rhat^T) / (n + tau)

evaluated here as logdet(RhatN + Rhat D Rhat^T) - logdet(RhatN) with
banded Cholesky factorizations (D = H H^H).  A batch of points is
evaluated in blocks: RhatN, which depends on eps2 alone, is factored once
per distinct eps2, and RhatN + Rhat D Rhat^T is assembled on a frame of
five slots, many blocks at a time, and widened to 2n columns in LAPACK's
lower storage, bit for bit the full-length assembly (every band is
2-periodic).  The loss Delta is computed from the definition R - R_e;
the rearranged log-det expression for Delta, assembled from its own
banded terms, is kept alongside as a cross-check.  To first order the
loss is V-shaped in each error, c1 |eps1| (sync) and c2 |eps2|
(coordination); the trace models give the slopes, and loss_breakdown
reports both terms next to the exact loss.  Every kernel here is O(n)
in the frame length.  Exact losses are always the primary quantity; the
linear terms are diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (DomainError, FrameConfig, LinkConfig, TimingError,
                    _mixing, build_correlation, build_error_matrices,
                    build_gain, build_noise_covariance)
from .throughput import _not_positive_definite, throughput_matrix

_LN2 = math.log(2.0)
# a batch of mistimed points is factored in blocks of about this many
# band entries per diagonal, so peak memory stays flat however large
# the sweep
_BLOCK_ENTRIES = 8192
# every band of the mistimed covariance is 2-periodic with bandwidth at
# most 4: a frame of this many slots holds both edges and one period
_FRAME_SLOTS = 5


@dataclass(frozen=True)
class LossBreakdown:
    """Exact and first-order loss figures at one operating point."""

    exact_throughput_with_error: float
    delta: float
    delta_lin_sync: float
    delta_lin_coord: float
    c1: float
    c2: float
    gamma: float


def _hh(link: LinkConfig, n: int) -> np.ndarray:
    """Real diagonal of D = H H^H: alternating mu1, mu2.

    Formed as |h sqrt(p)|^2 from the gain diagonal, not from
    LinkConfig.mu1/mu2 = p |h|^2: the two can differ in the last bit
    (0.5000000000000001 against 0.5 at p = 0.5), and every mistimed
    rate, loss and slope is computed with this one.
    """
    return np.abs(build_gain(link, n)) ** 2


def throughput_with_error(link: LinkConfig, frame: FrameConfig,
                          err: TimingError) -> float | np.ndarray:
    """Rate of the mistimed frame, bits per symbol interval.

    A float for one point; for a batched err, an array of its shape,
    evaluated block by block with one stacked banded Cholesky per block,
    after one per distinct eps2 for the noise covariances.
    Where both errors are zero the rate is throughput_matrix itself, bit
    for bit.  Raises DomainError, naming the point, when a point is
    inadmissible or its perturbed noise covariance is not positive
    definite, which happens once tau + eps2 leaves the window where
    neighboring integration windows overlap correctly.
    """
    return _throughput_with_error(link, frame, err, None)


def _throughput_with_error(link: LinkConfig, frame: FrameConfig,
                           err: TimingError, base: float | None,
                           d: np.ndarray | None = None) -> float | np.ndarray:
    """throughput_with_error, with base = throughput_matrix(link, frame)
    and d = _hh(link, frame.n) when the caller already holds them (None:
    computed here if needed)."""
    link.require_positive_gains()
    e1, e2 = err.arrays()
    out = np.empty(e1.shape)
    flat = out.reshape(-1)
    e1, e2 = e1.ravel(), e2.ravel()
    zero = (e1 == 0.0) & (e2 == 0.0)
    if zero.any():
        flat[zero] = throughput_matrix(link, frame) if base is None else base
    moving = ~zero
    if moving.any():
        flat[moving] = _mistimed_rates(
            frame, _hh(link, frame.n) if d is None else d,
            TimingError(e1[moving], e2[moving]))
    return float(out) if out.ndim == 0 else out


def _mistimed_rates(frame: FrameConfig, d: np.ndarray,
                    err: TimingError) -> np.ndarray:
    """R_e at a 1-D batch of points, by batched banded log-dets in blocks
    of about _BLOCK_ENTRIES columns.

    Errors name the batch's first failing point: every point is checked
    for admissibility, then every noise covariance, then every mistimed
    covariance.
    """
    err.check_admissible(frame)
    e1, e2 = err.arrays()
    step = max(1, _BLOCK_ENTRIES // (2 * frame.n))
    # the five-slot frame is assembled for as many whole blocks at once
    # as fill a block's worth of its columns: memory stays flat in n too
    chunk = max(1, _BLOCK_ENTRIES // (2 * _FRAME_SLOTS * step)) * step
    ld = _noise_logdets(frame, err, step)
    for first in range(0, e1.size, chunk):
        part = slice(first, first + chunk)
        cols = _five_slot_storage(frame, d, e1[part], e2[part])
        for start in range(first, min(first + chunk, e1.size), step):
            block = slice(start, start + step)
            try:
                ld[block] = (_bands.logdet2_sym_pd(_mistimed_covariance(
                    frame.n, cols, start - first, step)) - ld[block])
            except _bands.NotPositiveDefinite as exc:
                raise DomainError("mistimed covariance not positive definite "
                                  f"at tau={frame.tau}, "
                                  f"{err.point(start + exc.index)}") from None
        del cols  # the next chunk is assembled without it
    return ld / (frame.n + frame.tau)


def _noise_logdets(frame: FrameConfig, err: TimingError,
                   step: int) -> np.ndarray:
    """log2 det RhatN at each point of a 1-D batch, in blocks of step.

    RhatN depends on eps2 alone, so it is factored once per distinct
    eps2.  The distinct values are factored in the order of their first
    occurrence, so the first one that fails names the batch's first
    failing point.
    """
    _, e2 = err.arrays()
    if e2.size > 1:
        values, first, inverse = np.unique(e2, return_index=True,
                                           return_inverse=True)
        order = np.argsort(first)
    else:  # one point: nothing to share; np.unique costs a tenth of a call
        values, first = e2, np.zeros(1, dtype=np.intp)
        inverse = order = first
    ld = np.empty(values.size)
    for start in range(0, values.size, step):
        part = order[start:start + step]
        try:
            ld[part] = _bands.logdet2_sym_pd(
                build_noise_covariance(frame, values[part]))
        except _bands.NotPositiveDefinite as exc:
            raise DomainError(f"noise covariance singular at tau={frame.tau}, "
                              f"{err.point(first[part[exc.index]])}") from None
    return ld[inverse]


def _five_slot_storage(frame: FrameConfig, d: np.ndarray, e1: np.ndarray,
                       e2: np.ndarray) -> np.ndarray:
    """RhatN + Rhat D Rhat^T at a 1-D batch of points on a frame of
    min(n, 5) slots, in _bands.lower_storage (checked finite there):
    ``(points, 2 min(n, 5), u + 1)``."""
    small = frame if frame.n <= _FRAME_SLOTS else FrameConfig(_FRAME_SLOTS,
                                                              frame.tau)
    return _bands.lower_storage(_signal(small, d, e1, e2)
                                + build_noise_covariance(small, e2))


def _mistimed_covariance(n: int, cols: np.ndarray, start: int,
                         count: int) -> _bands.BandedMatrix:
    """count points from start of RhatN + Rhat D Rhat^T at full length,
    from _five_slot_storage's cols, as a band given by its lower rows for
    an in-place Cholesky.

    Every band in the sum is 2-periodic with bandwidth 4, so its lower
    columns 4 .. 2n - 5 repeat slot 2 of the five-slot frame: repeating
    that slot widens each point, bit for bit the full assembly.  At
    n <= 5 it is a view of cols.
    """
    u = cols.shape[-1] - 1
    if n <= _FRAME_SLOTS:
        low = cols[start:start + count]
    else:  # slot s of point p is row 5 p + s of the slot rows
        src = cols.reshape(-1, 2 * u + 2)[5 * start:5 * (start + count)]
        repeats = np.ones(len(src), dtype=np.intp)
        repeats[2::5] = n - 4  # slot 2, the period
        low = np.repeat(src, repeats, axis=0).reshape(-1, 2 * n, u + 1)
    return _bands.BandedMatrix(low.swapaxes(1, 2), u, 0)


def _signal(frame: FrameConfig, d: np.ndarray, e1: np.ndarray,
            e2: np.ndarray) -> _bands.BandedMatrix:
    """Upper band of the symmetric Rhat D Rhat^T at a 1-D batch of points."""
    rhat = _mixing(frame, e1, e2)[1]
    left, right = rhat.col_scaled(d[:2 * frame.n]), rhat.T
    del rhat  # three bands, not four, live during the product
    return left.matmul(right, upper_only=True)


def throughput_loss(link: LinkConfig, frame: FrameConfig,
                    err: TimingError) -> float:
    """Exact throughput loss, by definition: R - R_e."""
    base = throughput_matrix(link, frame)
    return base - _throughput_with_error(link, frame, err, base)


def throughput_loss_display(link: LinkConfig, frame: FrameConfig,
                            err: TimingError) -> float:
    """Exact loss via the rearranged log-det expression.

        Delta = -log2 det{ I + (I + D R)^-1 [ D E1^T
                 + (R + E2)^-1 (E1 - E2) D (R + E1^T) ] } / (n + tau)

    Independent assembly path used to cross-check throughput_loss.
    Multiplying out the two inverses turns the determinant into

        det M / (det RhatN det(I + D R)),
        M = RhatN + RhatN D R + RhatN D E1^T + (E1 - E2) D (R + E1^T),

    where every factor is banded (M has bandwidth 4), so each log-det
    is one banded factorization: Cholesky for RhatN, LU for M and
    I + D R.  O(n) time and memory.
    """
    link.require_positive_gains()
    err.require_point("throughput_loss_display")
    n, tau = frame.n, frame.tau
    e1m, e2m, _, rhat_n = build_error_matrices(frame, err)
    r = build_correlation(frame)
    d = _hh(link, n)

    try:
        ld_n = _bands.logdet2_sym_pd(rhat_n)
    except _bands.NotPositiveDefinite:
        raise DomainError(
            f"noise covariance singular at tau={tau}, eps2={err.eps2}"
        ) from None
    rhat_n_d = rhat_n.col_scaled(d)
    m = (rhat_n + rhat_n_d.matmul(r) + rhat_n_d.matmul(e1m.T)
         + (e1m - e2m).col_scaled(d).matmul(r + e1m.T))
    sign_m, ld_m = _bands.slogdet2_general(m)
    sign_a, ld_a = _bands.slogdet2_general(
        _bands.diagonal(np.ones(2 * n)) + r.row_scaled(d))
    if sign_m <= 0.0 or sign_a <= 0.0:
        raise DomainError("loss determinant left the positive cone")
    return -(ld_m - ld_n - ld_a) / (n + tau)


def _inverse_bands(link: LinkConfig, frame: FrameConfig,
                   d: np.ndarray | None = None) -> np.ndarray:
    """Diagonals 0..2 of A^-1, A = D^-1 + R, from one factorization of A;
    d = _hh(link, frame.n) when the caller already holds it.

    D^-1 is 1/_hh here and 1/mu in the no-error rate; the two can differ
    in the last bit, so the rate's factor is never reused for A.
    """
    link.require_positive_gains()
    if frame.tau == 0.0:
        raise DomainError("sensitivity slopes need tau in (0, 1)")
    if d is None:
        d = _hh(link, frame.n)
    a = build_correlation(frame) + _bands.diagonal(1.0 / d)
    try:
        return _bands.inverse_bands_tridiagonal(a, 2)
    except _bands.NotPositiveDefinite:
        raise _not_positive_definite(link, frame) from None


def _loss_slopes(link: LinkConfig, frame: FrameConfig,
                 d: np.ndarray | None = None) -> tuple[float, float]:
    """(c1, c2), both from one factorization of A = D^-1 + R; d as in
    _inverse_bands.

    Each slope is -Tr[(I + D R)^-1 (D Z^T + R^-1 (Z - Z3) D R)] / ((n +
    tau) ln 2), Z the derivative of E1 along the error and Z3 that of the
    noise covariance (zero for eps1); the 1/ln2 converts nats to bits.
    As (I + D R)^-1 D = A^-1, the trace is Tr[A^-1 B] with B = Z^T + Z -
    Z3.  For eps1, B is -2 on the diagonal, 0 on the first off-diagonals
    and 1 on the second; for eps2 it is the same on the odd (stream-2)
    rows and columns and zero elsewhere.  So each slope is two sums over
    the band of A^-1:

        c = 2 (sum_i inv[0, i] - sum_i inv[2, i]) / ((n + tau) ln 2),

    over every i for c1 and over odd i for c2 (inv[2] is zero in its
    last two slots).  B changes sign with the error, so the slope for a
    negative error is -c.  O(n) time and memory.
    """
    inv = _inverse_bands(link, frame, d)
    scale = (frame.n + frame.tau) * _LN2
    c1 = 2.0 * float(np.sum(inv[0]) - np.sum(inv[2])) / scale
    c2 = 2.0 * float(np.sum(inv[0, 1::2]) - np.sum(inv[2, 1::2])) / scale
    return c1, c2


def sync_loss_slope(link: LinkConfig, frame: FrameConfig) -> float:
    """First-order sensitivity c1 of the loss to eps1 (bits/interval).

    The loss is kinked at zero, c1 |eps1| to first order: c1 is the
    slope for eps1 > 0 (positive at sane configs) and -c1 the slope for
    eps1 < 0.
    """
    return _loss_slopes(link, frame)[0]


def coord_loss_slope(link: LinkConfig, frame: FrameConfig) -> float:
    """First-order sensitivity c2 of the loss to eps2 (bits/interval):
    the loss is c2 |eps2| to first order."""
    return _loss_slopes(link, frame)[1]


def loss_ratio(link: LinkConfig, frame: FrameConfig,
               err: TimingError) -> float | np.ndarray:
    """gamma = Delta / R, the fractional throughput loss.

    A float for one point, an array for a batched err; exactly 0.0 where
    both errors are zero.
    """
    return _loss_ratio(link, frame, err, throughput_matrix(link, frame))


def _loss_ratio(link: LinkConfig, frame: FrameConfig, err: TimingError,
                base: float) -> float | np.ndarray:
    """loss_ratio given base = throughput_matrix(link, frame), which a
    caller that also needs the rate already holds."""
    if base <= 0.0:
        raise DomainError("loss ratio undefined: no-error throughput is zero")
    return (base - _throughput_with_error(link, frame, err, base)) / base


def loss_breakdown(link: LinkConfig, frame: FrameConfig,
                   err: TimingError) -> LossBreakdown:
    """Exact loss plus both linear diagnostics, c1 |eps1| and c2 |eps2|,
    at one operating point."""
    return _loss_breakdown(link, frame, err, throughput_matrix(link, frame))


def _loss_breakdown(link: LinkConfig, frame: FrameConfig, err: TimingError,
                    base: float) -> LossBreakdown:
    """loss_breakdown given base = throughput_matrix(link, frame), which a
    caller that reports the rate already holds.  The rate and the slopes
    share one D = H H^H."""
    err.require_point("loss_breakdown")
    d = _hh(link, frame.n)
    r_e = _throughput_with_error(link, frame, err, base, d)
    delta = base - r_e
    if base <= 0.0:
        raise DomainError("loss ratio undefined: no-error throughput is zero")
    c1, c2 = _loss_slopes(link, frame, d)
    return LossBreakdown(
        exact_throughput_with_error=r_e,
        delta=delta,
        delta_lin_sync=abs(err.eps1) * c1,
        delta_lin_coord=abs(err.eps2) * c2,
        c1=c1,
        c2=c2,
        gamma=delta / base,
    )
