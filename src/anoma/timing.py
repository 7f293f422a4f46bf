"""Throughput degradation under synchronization and coordination offsets.

The mistimed frame obeys Yhat = Rhat H X + Nhat with noise covariance
RhatN, so the achievable rate is

    R_e = log2 det(I + RhatN^-1 Rhat H H^H Rhat^T) / (n + tau)

evaluated here as logdet(RhatN + Rhat D Rhat^T) - logdet(RhatN): the
first by banded Cholesky, the second in closed form in tau + eps2
(model._noise_logdet2); D = H H^H = diag(mu1, mu2, mu1, ...) comes from
the link's gains, as in the no-error rate.  A batch of points is
evaluated in blocks: RhatN + Rhat D Rhat^T is assembled on a frame of
five slots and widened to 2n columns in LAPACK's lower storage, bit for
bit the full-length assembly (every band is 2-periodic).  The loss
Delta is R - R_e by definition, and only _exact_loss forms (R_e, Delta,
gamma = Delta / R), after checking R > 0; the rearranged log-det
expression for Delta, assembled from its own banded terms, is kept
alongside as a cross-check.  To first order the loss is V-shaped in each
error, c1 |eps1| (sync) and c2 |eps2| (coordination); the trace models
give the slopes, and loss_breakdown reports both terms next to the exact
loss.  Every kernel here is O(n) in the frame length.  Exact losses are
always the primary quantity; the linear terms are diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (DomainError, FrameConfig, LinkConfig, TimingError, _at,
                    _config, _error_matrices, _frame, _link, _mixing,
                    _mu_diagonal, _noise_covariance, _noise_logdet2)
from .throughput import _factor_a, throughput_matrix

# a batch of mistimed points is factored in blocks of about this many
# band entries per diagonal, so peak memory stays flat however large
# the sweep
_BLOCK_ENTRIES = 8192
# every band of the mistimed covariance is 2-periodic with bandwidth at
# most 3: a frame of this many slots holds both edges and one period
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


def throughput_with_error(link: LinkConfig, frame: FrameConfig,
                          err: TimingError) -> float | np.ndarray:
    """Rate of the mistimed frame, bits per symbol interval.

    A float for one point; for a batched err, an array of its shape,
    evaluated block by block with one stacked banded Cholesky per block.
    Where both errors are zero the rate is throughput_matrix itself, bit
    for bit.  Raises DomainError, naming the point, when a point is
    inadmissible or its perturbed noise covariance is not positive
    definite, which happens once tau + eps2 leaves the window where
    neighboring integration windows overlap correctly.
    """
    return _throughput_with_error(link, frame, _config("err", err, TimingError), None)


def _throughput_with_error(link: LinkConfig, frame: FrameConfig,
                           err: TimingError,
                           base: float | None) -> float | np.ndarray:
    """throughput_with_error at a checked err, given base =
    throughput_matrix(link, frame) or None: then link and frame are
    checked here, by the rate where a point has both errors zero."""
    e1, e2 = err.arrays()
    out = np.empty(e1.shape)
    flat = out.reshape(-1)
    e1, e2 = e1.ravel(), e2.ravel()
    zero = (e1 == 0.0) & (e2 == 0.0)
    if zero.any():
        flat[zero] = throughput_matrix(link, frame) if base is None else base
    elif base is None:
        _link(link)
        _frame(frame, 5)
    err.check_admissible(frame)
    moving = ~zero
    if moving.any():
        flat[moving] = _mistimed_rates(link, frame, e1[moving], e2[moving])
    return float(out) if out.ndim == 0 else out


def _mistimed_rates(link: LinkConfig, frame: FrameConfig, e1: np.ndarray,
                    e2: np.ndarray) -> np.ndarray:
    """R_e at admissible offsets e1, e2 (1-D float arrays) of a checked
    link and frame: log2 det(RhatN + Rhat D Rhat^T), assembled on a frame
    of five slots, every chunk's in one reused work array, and widened to
    2n columns (_widened_logdets), bit for bit the full-length assembly,
    less log2 det RhatN in closed form (_noise_logdet2).  Errors name the
    batch's first failing point."""
    n, tau = frame.n, frame.tau
    small = frame if n <= _FRAME_SLOTS else FrameConfig(_FRAME_SLOTS, tau)
    step = max(1, _BLOCK_ENTRIES // (2 * n))
    # the five-slot frame is assembled for as many whole blocks at once
    # as fill a block's worth of its columns: memory stays flat in n too
    chunk = max(1, _BLOCK_ENTRIES // (2 * _FRAME_SLOTS * step)) * step
    # two flat five-slot bands, reused by every chunk, so that no chunk
    # allocates (and faults in) one: the front holds Rhat, then the
    # lower storage; the back RhatN + Rhat D Rhat^T.  Every band here
    # has at most 5 rows.
    band = min(chunk, e1.size) * 5 * 2 * small.n
    front, back = np.empty((2, band))
    ld = _noise_logdet2(frame, e1, e2)
    d = _mu_diagonal(link, small.n)  # all the five-slot frame reads
    for start in range(0, e1.size, chunk):
        part = slice(start, start + chunk)
        total = _bands.product(_mixing(small, e1[part], e2[part], front),
                               d, out=back)
        # RhatN's upper band, all that lower_storage reads of it
        _bands.add_into(total, _bands.BandedMatrix(
            _noise_covariance(small, e2[part]).ab[..., :2, :], 0, 1))
        # its diagonal 4 is exactly zero: row i's entries of Rhat at +-2
        # are max(a, 0) and max(-a, 0) for one offset a, and rows i and
        # i + 4 share it.  So it is factored at bandwidth 3
        u = min(total.upper, 3)
        total = _bands.BandedMatrix(total.ab[..., total.upper - u:, :], 0, u)
        ld[part] = _widened_logdets(frame, _bands.lower_storage(total, front),
                                    step, e1[part], e2[part]) - ld[part]
    return ld / (n + tau)


def _widened_logdets(frame: FrameConfig, cols: np.ndarray, step: int,
                     e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """log2 det at full length 2n of each point of cols, RhatN + Rhat D
    Rhat^T on min(n, 5) slots in _bands.lower_storage at offsets e1, e2,
    widened (_widen) and factored step points per call.
    """
    ld = np.empty(len(cols))
    for start in range(0, len(cols), step):
        try:
            ld[start:start + step] = _bands.logdet2_sym_pd(
                _widen(frame.n, cols, start, step))
        except _bands.NotPositiveDefinite as exc:
            raise DomainError(
                "mistimed covariance not positive definite at "
                f"tau={frame.tau}, {_at(e1, e2, start + exc.index)}") from None
    return ld


def _widen(n: int, cols: np.ndarray, start: int,
           count: int) -> _bands.BandedMatrix:
    """count points from start of cols at full length 2n, as a band given
    by its lower rows for an in-place Cholesky.

    Each band widened here is 2-periodic with bandwidth at most 3, so its
    lower columns 4 .. 2n - 5 repeat slot 2 of the five-slot frame:
    repeating that slot widens each point, bit for bit the full assembly.
    At n <= 5 it is a view of cols; else a new array.
    """
    u = cols.shape[-1] - 1
    if n <= _FRAME_SLOTS:
        low = cols[start:start + count]
    else:  # slot s of a point is its columns 2 s and 2 s + 1
        src = cols[start:start + count].reshape(-1, _FRAME_SLOTS, 2, u + 1)
        slots = np.empty((len(src), n, 2, u + 1))
        slots[:, :2] = src[:, :2]
        slots[:, 2:n - 2] = src[:, 2:3]  # slot 2, the period
        slots[:, n - 2:] = src[:, 3:]
        low = slots.reshape(len(src), 2 * n, u + 1)
    return _bands.BandedMatrix(low.swapaxes(1, 2), u, 0)


def throughput_loss(link: LinkConfig, frame: FrameConfig,
                    err: TimingError) -> float:
    """Exact throughput loss, by definition: R - R_e."""
    _config("err", err, TimingError)
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

    where every factor is banded (M has bandwidth 4): log det RhatN is
    in closed form (model._noise_logdet2), and banded LU factors M and
    I + D R.  Every product is one _bands.product, A D B^T: RhatN D R
    reads R^T for R (R is symmetric bit for bit), and D R is I D R^T,
    entry (1.0 d[i]) R[j, i].  O(n) time and memory.
    """
    _config("err", err, TimingError).require_point("throughput_loss_display")
    _link(link)
    err.check_admissible(_frame(frame, 58))
    n, tau = frame.n, frame.tau
    ld_n = float(_noise_logdet2(frame, *err.arrays()))
    e1m, e2m, rhat, rhat_n = _error_matrices(frame, *err.arrays())
    r = _noise_covariance(frame, 0.0)
    d = _mu_diagonal(link, n)
    m = (rhat_n + _bands.product(rhat_n, d, r) + _bands.product(rhat_n, d, e1m)
         + _bands.product(e1m - e2m, d, rhat))
    sign_m, ld_m = _bands.slogdet2_general(m)
    eye = _bands.diagonal(np.ones(2 * n))
    sign_a, ld_a = _bands.slogdet2_general(eye + _bands.product(eye, d, r))
    if sign_m <= 0.0 or sign_a <= 0.0:
        raise DomainError(
            f"loss determinant left the positive cone at mu1={link.mu1}, "
            f"mu2={link.mu2}, n={n}, tau={tau}, eps1={err.eps1}, eps2={err.eps2}")
    return -(ld_m - ld_n - ld_a) / (n + tau)


def _loss_slopes(link: LinkConfig, frame: FrameConfig) -> tuple[float, float]:
    """(c1, c2), both from one factorization of A = D^-1 + R, the matrix
    that the no-error rate factors (_factor_a), bit for bit.

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
    negative error is -c.  O(n) time and memory.  link is the caller's
    to check; frame is checked here against the byte budget.
    """
    if _frame(frame, 15).tau == 0.0:
        raise DomainError("sensitivity slopes need tau in (0, 1)")
    inv = _factor_a(link, frame,
                    lambda a: _bands.inverse_bands_tridiagonal(a, 2))
    scale = (frame.n + frame.tau) * _bands._LN2
    c1 = 2.0 * float(np.sum(inv[0]) - np.sum(inv[2])) / scale
    c2 = 2.0 * float(np.sum(inv[0, 1::2]) - np.sum(inv[2, 1::2])) / scale
    return c1, c2


def sync_loss_slope(link: LinkConfig, frame: FrameConfig) -> float:
    """First-order sensitivity c1 of the loss to eps1 (bits/interval).

    The loss is kinked at zero, c1 |eps1| to first order: c1 is the
    slope for eps1 > 0 (positive at sane configs) and -c1 the slope for
    eps1 < 0.
    """
    return _loss_slopes(_link(link), frame)[0]


def coord_loss_slope(link: LinkConfig, frame: FrameConfig) -> float:
    """First-order sensitivity c2 of the loss to eps2 (bits/interval):
    the loss is c2 |eps2| to first order."""
    return _loss_slopes(_link(link), frame)[1]


def loss_ratio(link: LinkConfig, frame: FrameConfig,
               err: TimingError) -> float | np.ndarray:
    """gamma = Delta / R, the fractional throughput loss.

    A float for one point, an array for a batched err; exactly 0.0 where
    both errors are zero.
    """
    _config("err", err, TimingError)
    return _exact_loss(link, frame, err, throughput_matrix(link, frame))[2]


def _exact_loss(link: LinkConfig, frame: FrameConfig, err: TimingError,
                base: float) -> tuple[float | np.ndarray, ...]:
    """(R_e, Delta, gamma) at err, a point or a batch, given base =
    throughput_matrix(link, frame), which is checked to be positive first
    (the log-det route gives 0.0 or a negative residue at tiny gains)."""
    if base <= 0.0:
        raise DomainError("loss ratio undefined: no-error throughput is "
                          f"{base:.12g}, not positive (raise the gains)")
    r_e = _throughput_with_error(link, frame, err, base)
    delta = base - r_e
    return r_e, delta, delta / base


def loss_breakdown(link: LinkConfig, frame: FrameConfig,
                   err: TimingError) -> LossBreakdown:
    """Exact loss plus both linear diagnostics, c1 |eps1| and c2 |eps2|,
    at one operating point."""
    _config("err", err, TimingError)
    return _loss_breakdown(link, frame, err, throughput_matrix(link, frame))


def _loss_breakdown(link: LinkConfig, frame: FrameConfig, err: TimingError,
                    base: float) -> LossBreakdown:
    """loss_breakdown given base = throughput_matrix(link, frame), which a
    caller that reports the rate already holds."""
    err.require_point("loss_breakdown")
    r_e, delta, gamma = _exact_loss(link, frame, err, base)
    c1, c2 = _loss_slopes(link, frame)
    return LossBreakdown(
        exact_throughput_with_error=r_e,
        delta=delta,
        delta_lin_sync=abs(err.eps1) * c1,
        delta_lin_coord=abs(err.eps2) * c2,
        c1=c1,
        c2=c2,
        gamma=gamma,
    )
