"""Throughput degradation under synchronization and coordination offsets.

The mistimed frame obeys Yhat = Rhat H X + Nhat with noise covariance
RhatN, so the achievable rate is

    R_e = log2 det(I + RhatN^-1 Rhat H H^H Rhat^T) / (n + tau)

evaluated here as logdet(RhatN + Rhat D Rhat^T) - logdet(RhatN) with
banded Cholesky factorizations (D = H H^H).  The loss Delta is computed
from the definition R - R_e; the rearranged log-det expression for
Delta, assembled from its own banded terms, is kept alongside as a
cross-check, and the first-order trace models give the sensitivity
slopes c1 (sync) and c2 (coordination).  Every kernel here is O(n) in
the frame length.  Exact losses are always the primary quantity; the
linear models are diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (DomainError, FrameConfig, LinkConfig, TimingError,
                    _coordination_step, _unit_step, build_correlation,
                    build_error_matrices, build_gain)
from .throughput import _not_positive_definite, throughput_matrix

_LN2 = math.log(2.0)
# a batch of mistimed points is factored in blocks of about this many
# band entries per diagonal, so peak memory stays flat however large
# the sweep
_BLOCK_ENTRIES = 2048


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
    evaluated block by block with one stacked banded Cholesky per block.
    Where both errors are zero the rate is throughput_matrix itself, bit
    for bit.  Raises DomainError, naming the point, when a point is
    inadmissible or its perturbed noise covariance is not positive
    definite, which happens once tau + eps2 leaves the window where
    neighboring integration windows overlap correctly.
    """
    return _throughput_with_error(link, frame, err, None)


def _throughput_with_error(link: LinkConfig, frame: FrameConfig,
                           err: TimingError,
                           base: float | None) -> float | np.ndarray:
    """throughput_with_error, with base = throughput_matrix(link, frame)
    when the caller already holds it (None: computed here if needed)."""
    link.require_positive_gains()
    e1, e2 = err.arrays()
    out = np.empty(e1.shape)
    flat = out.reshape(-1)
    e1, e2 = e1.ravel(), e2.ravel()
    zero = (e1 == 0.0) & (e2 == 0.0)
    if zero.any():
        flat[zero] = throughput_matrix(link, frame) if base is None else base
    d = _hh(link, frame.n)
    moving = np.flatnonzero(~zero)
    step = max(1, _BLOCK_ENTRIES // (2 * frame.n))
    for start in range(0, moving.size, step):
        idx = moving[start:start + step]
        block = TimingError(e1[idx], e2[idx])
        flat[idx] = _rate_block(frame, d, block)
    return float(out) if out.ndim == 0 else out


def _rate_block(frame: FrameConfig, d: np.ndarray,
                err: TimingError) -> np.ndarray:
    """R_e at a 1-D batch of points, by two batched banded log-dets."""
    _, _, rhat, rhat_n = build_error_matrices(frame, err)
    # symmetric: the Cholesky reads only the upper band
    signal = rhat.col_scaled(d).matmul(rhat.T, upper_only=True)
    try:
        ld_n = _bands.logdet2_sym_pd(rhat_n)
    except _bands.NotPositiveDefinite as exc:
        raise DomainError(f"noise covariance singular at tau={frame.tau}, "
                          f"{err.point(exc.index)}") from None
    try:
        ld = _bands.logdet2_sym_pd(rhat_n + signal)
    except _bands.NotPositiveDefinite as exc:
        raise DomainError(f"mistimed covariance not positive definite at "
                          f"tau={frame.tau}, {err.point(exc.index)}") from None
    return (ld - ld_n) / (frame.n + frame.tau)


def throughput_loss(link: LinkConfig, frame: FrameConfig,
                    err: TimingError) -> float:
    """Exact throughput loss, by definition: R - R_e."""
    return throughput_matrix(link, frame) - throughput_with_error(link, frame, err)


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


def _inverse_bands(link: LinkConfig, frame: FrameConfig) -> np.ndarray:
    """Diagonals 0..2 of A^-1, A = D^-1 + R, from one factorization of A.

    Every sensitivity slope at a point, on either branch, reads only
    these, so one call serves them all.  D^-1 is 1/_hh here and 1/mu in
    the no-error rate; the two can differ in the last bit, so the rate's
    factor is never reused for A.
    """
    link.require_positive_gains()
    if frame.tau == 0.0:
        raise DomainError("sensitivity slopes need tau in (0, 1)")
    a = build_correlation(frame) + _bands.diagonal(1.0 / _hh(link, frame.n))
    try:
        return _bands.inverse_bands_tridiagonal(a, 2)
    except _bands.NotPositiveDefinite:
        raise _not_positive_definite(link, frame) from None


def _trace_coefficient(inv: np.ndarray, frame: FrameConfig,
                       z_signal: _bands.BandedMatrix,
                       z_noise: _bands.BandedMatrix | None) -> float:
    """-Tr[(I + D R)^-1 (D Z^T + R^-1 (Z - Z3) D R)] / ((n + tau) ln 2).

    z_noise is None for the sync coefficient (noise covariance does not
    respond to eps1).  The 1/ln2 converts the nat-valued trace expansion
    to the bit-valued rates used everywhere else.

    With A = D^-1 + R, symmetric positive definite and tridiagonal,
    (I + D R)^-1 D = A^-1 and (I + D R)^-1 R^-1 M D R has the trace of
    A^-1 M, so the trace is Tr[A^-1 B] with B = Z^T + Z - Z3.  B is
    symmetric with bandwidth 2, so only the diagonals 0..2 of A^-1 are
    needed (inv, from _inverse_bands), and R^-1 never is.  O(n) time and
    memory.
    """
    b = z_signal.T + (z_signal if z_noise is None else z_signal - z_noise)
    # both factors symmetric: each off-diagonal k > 0 counts twice
    trace = sum((1.0 if k == 0 else 2.0) * float(np.dot(inv[k], b.diag(k)))
                for k in range(3))
    return -trace / ((frame.n + frame.tau) * _LN2)


def _sync_slope(inv: np.ndarray, frame: FrameConfig, branch: int) -> float:
    """c1 on a branch, given inv from _inverse_bands.  Z is the derivative
    of E1 along eps1 on that branch: the E1 stencil at unit offsets
    sign * (1, 1), times sign."""
    sign = 1.0 if branch >= 0 else -1.0
    z = _unit_step(2 * frame.n, sign, sign).scaled(sign)
    return _trace_coefficient(inv, frame, z, None)


def _coord_slope(inv: np.ndarray, frame: FrameConfig, branch: int) -> float:
    """c2 on a branch, given inv from _inverse_bands.  eps2 moves only the
    stream-2 rows of E1, so Z is the stencil at unit offsets (0, sign),
    times sign; the noise covariance responds with the E2 pattern,
    whatever the branch."""
    sign = 1.0 if branch >= 0 else -1.0
    n2 = 2 * frame.n
    z = _unit_step(n2, 0.0, sign).scaled(sign)
    return _trace_coefficient(inv, frame, z, _coordination_step(n2, 1.0))


def sync_loss_slope(link: LinkConfig, frame: FrameConfig,
                    branch: int = 1) -> float:
    """First-order sensitivity c1 of the loss to eps1 (bits/interval).

    The mixing-matrix perturbation switches stencil with the sign of
    eps1, so the loss is kinked at zero: branch >= 0 gives the slope for
    eps1 > 0 (the headline c1, positive at sane configs), branch < 0 the
    slope for eps1 < 0 (negative: the loss rises as eps1 falls).
    """
    return _sync_slope(_inverse_bands(link, frame), frame, branch)


def coord_loss_slope(link: LinkConfig, frame: FrameConfig,
                     branch: int = 1) -> float:
    """First-order sensitivity c2 of the loss to eps2 (bits/interval),
    on the branch eps2 > 0 (branch >= 0) or eps2 < 0 (branch < 0)."""
    return _coord_slope(_inverse_bands(link, frame), frame, branch)


def _loss_slopes(link: LinkConfig, frame: FrameConfig,
                 branches=(1,)) -> dict[int, tuple[float, float]]:
    """{branch: (c1, c2)}, every slope from one factorization of A."""
    inv = _inverse_bands(link, frame)
    return {b: (_sync_slope(inv, frame, b), _coord_slope(inv, frame, b))
            for b in branches}


def loss_linear_sync(link: LinkConfig, frame: FrameConfig,
                     eps1: float) -> tuple[float, float]:
    """(eps1 * c1, c1) on the branch containing eps1."""
    c1 = sync_loss_slope(link, frame, branch=1 if eps1 >= 0.0 else -1)
    return eps1 * c1, c1


def loss_linear_coord(link: LinkConfig, frame: FrameConfig,
                      eps2: float) -> tuple[float, float]:
    """(eps2 * c2, c2) on the branch containing eps2."""
    c2 = coord_loss_slope(link, frame, branch=1 if eps2 >= 0.0 else -1)
    return eps2 * c2, c2


def loss_ratio(link: LinkConfig, frame: FrameConfig,
               err: TimingError) -> float | np.ndarray:
    """gamma = Delta / R, the fractional throughput loss.

    A float for one point, an array for a batched err; exactly 0.0 where
    both errors are zero.
    """
    base = throughput_matrix(link, frame)
    if base <= 0.0:
        raise DomainError("loss ratio undefined: no-error throughput is zero")
    return (base - throughput_with_error(link, frame, err)) / base


def loss_breakdown(link: LinkConfig, frame: FrameConfig,
                   err: TimingError) -> LossBreakdown:
    """Exact loss plus both linear diagnostics at one operating point."""
    return _loss_breakdown(link, frame, err, throughput_matrix(link, frame))


def _loss_breakdown(link: LinkConfig, frame: FrameConfig, err: TimingError,
                    base: float) -> LossBreakdown:
    """loss_breakdown given base = throughput_matrix(link, frame), which a
    caller that reports the rate already holds.  Every slope branch comes
    from one factorization of A."""
    err.require_point("loss_breakdown")
    r_e = _throughput_with_error(link, frame, err, base)
    delta = base - r_e
    if base <= 0.0:
        raise DomainError("loss ratio undefined: no-error throughput is zero")
    inv = _inverse_bands(link, frame)
    # each slope branch once: the headline slopes are the positive ones
    c1 = _sync_slope(inv, frame, 1)
    c2 = _coord_slope(inv, frame, 1)
    c1_err = c1 if err.eps1 >= 0.0 else _sync_slope(inv, frame, -1)
    c2_err = c2 if err.eps2 >= 0.0 else _coord_slope(inv, frame, -1)
    return LossBreakdown(
        exact_throughput_with_error=r_e,
        delta=delta,
        delta_lin_sync=err.eps1 * c1_err,
        delta_lin_coord=err.eps2 * c2_err,
        c1=c1,
        c2=c2,
        gamma=delta / base,
    )
