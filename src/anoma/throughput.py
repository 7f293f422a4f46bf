"""Sum throughput of the two-user asynchronous uplink, three ways.

All rates are in bits per symbol interval (log base 2).  The frame
occupies n + tau symbol intervals, so every rate carries a 1/(n + tau)
prefactor unless stated otherwise.

Routes, kept deliberately independent of each other:

* matrix    -- log-det of the sampled linear model, via a banded
               Cholesky factorization of D^-1 + R with D = H H^H;
* closed    -- the characteristic-root closed form, evaluated in the
               log domain so any frame length is safe;
* recursion -- the literal interleaved three-term determinant
               recursion, with mantissa/exponent rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bands
from .model import (_GAIN, _MU_MIN, _TINY, DomainError, FrameConfig,
                    LinkConfig, _config, _every, _frame, _length, _link,
                    _noise_covariance, _real)

# broadcast size from which closed_rate tests which powers underflow
_CUT_POINTS = 256


@dataclass(frozen=True)
class ThroughputReport:
    """All throughput figures for one operating point, in bits/interval."""

    anoma_matrix: float
    anoma_closed: float
    anoma_recursion: float
    anoma_n_plus_1: float
    noma: float
    oma: float
    asymptotic: float


def _sync_rate(mu1, mu2):
    """log2(1 + mu1 + mu2): the synchronous rate, which every rate limit
    returns exactly at tau = 0."""
    return np.log2(1.0 + mu1 + mu2)


def _char_roots(mu1, mu2, tau):
    """(r1, r2, r1 - r2) of x^2 - S x + tau^2 (1-tau)^2 with
    S = 1/mu1 + 1/mu2 + 1/(mu1 mu2) + 2 tau (1 - tau), elementwise.

    The gap r1 - r2 equals sqrt(S^2 - 4P); the radicand is evaluated in
    the cancellation-free product form s0 * (s0 + 4 tau (1 - tau)), and
    r2 as P / r1, so high-SNR inputs lose no precision.  The gains must
    be numpy values: a product that underflows to 0 gives inf, not
    ZeroDivisionError.
    """
    s0 = 1.0 / mu1 + 1.0 / mu2 + 1.0 / (mu1 * mu2)
    g = 2.0 * tau * (1.0 - tau)
    gap = np.sqrt(s0 * (s0 + 2.0 * g))
    r1 = 0.5 * ((s0 + g) + gap)
    r2 = (tau * (1.0 - tau)) ** 2 / r1
    return r1, r2, gap


def _together(names: str, *values) -> tuple:
    """values, or DomainError naming them unless they broadcast together."""
    try:
        np.broadcast(*values)
    except ValueError:
        raise DomainError(f"{names} must broadcast together, got shapes "
                          + ", ".join(str(np.shape(v)) for v in values)) from None
    return values


def _require_finite(value, what: str, **point) -> None:
    """DomainError naming the first point at which value is not finite;
    point holds the inputs value was broadcast from."""
    if _every(np.isfinite(value)):
        return
    bad = ~np.isfinite(value)
    at = np.unravel_index(np.argmax(bad), bad.shape)
    coords = ", ".join(f"{k}={np.broadcast_to(v, bad.shape)[at].item()!r}"
                       for k, v in point.items())
    raise DomainError(f"{what} is not finite at {coords}")


def log2_det_no_error(link: LinkConfig, frame: FrameConfig) -> float:
    """log2 det(I + H H^H R), the shared numerator of all rate variants.

    Uses det(I + D R) = det(D) det(D^-1 + R); the second factor is
    symmetric positive definite and tridiagonal for every tau in [0, 1),
    so a banded Cholesky gives the log-determinant stably in O(n).
    """
    n = _frame(frame, 8).n
    dinv = np.tile([1.0 / _link(link).mu1, 1.0 / link.mu2], n)
    a = _noise_covariance(frame, 0.0) + _bands.diagonal(dinv)
    logdet_gain = n * (math.log2(link.mu1) + math.log2(link.mu2))
    try:
        return logdet_gain + _bands.logdet2_sym_pd(a)
    except _bands.NotPositiveDefinite:
        raise _not_positive_definite(link, frame) from None


def _not_positive_definite(link: LinkConfig, frame: FrameConfig) -> DomainError:
    """The error for a D^-1 + R whose banded Cholesky fails in floating
    point: at tau = 0 its 2x2 blocks are [[1 + 1/mu1, 1], [1, 1 + 1/mu2]]."""
    return DomainError(
        f"D^-1 + R is not positive definite in floating point at "
        f"mu1={link.mu1}, mu2={link.mu2}, n={frame.n}, tau={frame.tau}: "
        f"near tau = 0 its second Cholesky pivot (1 + 1/mu2) - 1/(1 + 1/mu1) "
        f"cancels once 1/mu is below machine epsilon; lower the gains or "
        f"raise tau")


def throughput_matrix(link: LinkConfig, frame: FrameConfig) -> float:
    """Log-det route: log2 det(I + H H^H R) / (n + tau)."""
    return log2_det_no_error(link, frame) / (frame.n + frame.tau)


def _power(q, n):
    """q ** n, bit for bit, without pow's slow path for powers that
    underflow.

    Where q < 2^(-1100/n), q^n < 2^-1100, far below half the least
    subnormal (2^-1075), so pow's result is exactly +0: those points
    keep the +0 they start with and pow is not called there.  Only an
    array of float frame lengths over at least _CUT_POINTS points is cut;
    on fewer the test costs more than the slow pow calls it saves, and a
    scalar n keeps numpy's scalar-power paths.
    """
    if n.ndim:
        shape = np.broadcast(q, n).shape
        if math.prod(shape) >= _CUT_POINTS:
            cut = np.exp2(np.where(n > 0.0, -1100.0 / n, -np.inf))
            return np.power(q, n, out=np.zeros(shape), where=~(q < cut))
    return q ** n


def closed_rate(mu1, mu2, n, tau):
    """Closed-form rate at every point of the broadcast of mu1, mu2, n, tau.

    Evaluates n log2(mu1 mu2 r1) plus a bounded correction, all in the
    log domain; r1^n never materializes, so large frames cannot
    overflow.  tau = 0 reduces analytically to the synchronous rate
    log2(1 + mu1 + mu2) (r2 = 0 branch), which is returned exactly there.
    A point whose rate is not finite raises DomainError naming it.
    Returns a float for one point, else an array of the broadcast shape.

    An array of frame lengths is converted to float once, the value
    numpy's int-to-float cast would give at every point of the
    broadcast, and (r2 / r1)^n is skipped wherever it is sure to
    underflow to +0 (see _power), so the bits are those of the plain
    formula.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is fast
    mu1, mu2 = (_real(k, v, _MU_MIN, rule=_GAIN, batch=True)[()]
                for k, v in (("mu1", mu1), ("mu2", mu2)))
    n = _length("frame length n", n, batch=True)[()]
    tau = _real("tau", tau, 0.0, 1.0, "lie in [0, 1)", batch=True)[()]
    return _closed_rate(*_together("mu1, mu2, n and tau", mu1, mu2, n, tau))


def _closed_rate(mu1, mu2, n, tau):
    """closed_rate at checked numpy arguments (n an int scalar or array)."""
    n_in = n
    with np.errstate(all="ignore"):
        r1, r2, gap = _char_roots(mu1, mu2, tau)
        if n.ndim:
            n = n.astype(float)
        qn = _power(r2 / r1, n)
        corr = np.log2((r1 - r2 * qn + tau * tau * (1.0 - qn)) / gap)
        lead = n * (np.log2(mu1) + np.log2(mu2) + np.log2(r1))
        rate = (lead + corr) / (n + tau)
        if not _every(tau):  # some tau is 0
            rate = np.where(tau == 0.0, _sync_rate(mu1, mu2), rate)
    _require_finite(rate, "closed-form rate", mu1=mu1, mu2=mu2, n=n_in, tau=tau)
    return rate[()]


def throughput_closed(link: LinkConfig, frame: FrameConfig) -> float:
    """Closed-form route: closed_rate at one point."""
    return _closed(_link(link), _config("frame", frame, FrameConfig))


def _closed(link: LinkConfig, frame: FrameConfig) -> float:
    """throughput_closed, its arguments already checked."""
    return float(_closed_rate(np.float64(link.mu1), np.float64(link.mu2),
                              np.int64(frame.n), np.float64(frame.tau)))


def determinant_recursion_log2(mu1: float, mu2: float, tau: float, n: int) -> float:
    """log2 of det(D^-1 + R) by the literal interleaved recursion.

    d_0 = 1, d_1 = 1 + 1/mu1 (from d_-1 = 0), then
        d_{2k}   = (1 + 1/mu2) d_{2k-1} - (1 - tau)^2 d_{2k-2}
        d_{2k+1} = (1 + 1/mu1) d_{2k}   - tau^2       d_{2k-1}
    A step multiplies the pair by less than 2^e = 2^frexp(max(a1, a2)), so
    a pair in [2^-w, 2^w], w = min(512, 1021 - e), steps to a finite value.
    The pair is rescaled exactly after every step that leaves that window,
    the step to (d_0, d_1) from (d_-1, d_0) = (0, 1) included: by 2^-+512
    if w = 512, else by frexp.  n and tau must pass FrameConfig's checks.
    """
    frame = FrameConfig(n, tau)  # O(n) in time, O(1) in memory
    mu1, mu2 = (_real(k, v, _TINY, rule="be finite and > 0")
                for k, v in (("mu1", mu1), ("mu2", mu2)))
    if not math.isfinite(1.0 / mu1 + 1.0 / mu2):
        raise DomainError("recursion needs finite 1/mu1 and 1/mu2")
    return _recursion_log2(mu1, mu2, frame.tau, frame.n)


def _recursion_log2(mu1: float, mu2: float, tau: float, n: int) -> float:
    """determinant_recursion_log2, its arguments already checked."""
    a1 = 1.0 + 1.0 / mu1
    a2 = 1.0 + 1.0 / mu2
    c_even = (1.0 - tau) ** 2
    c_odd = tau * tau
    w = min(512, 1021 - math.frexp(max(a1, a2))[1])
    hi, lo = 2.0 ** w, 2.0 ** -w
    d_prev, d_curr = 0.0, 1.0  # d_-1, d_0
    shift = 0
    for m in range(1, 2 * n + 1):
        if m % 2 == 0:
            d_next = a2 * d_curr - c_even * d_prev
        else:
            d_next = a1 * d_curr - c_odd * d_prev
        d_prev, d_curr = d_curr, d_next
        if d_curr > hi or 0.0 < d_curr < lo:
            if w < 512:
                e = math.frexp(d_curr)[1]
            else:
                e = 512 if d_curr > hi else -512
            d_prev, d_curr = math.ldexp(d_prev, -e), math.ldexp(d_curr, -e)
            shift += e
    if d_curr <= 0.0:
        raise DomainError("determinant recursion left the positive cone")
    return math.log2(d_curr) + shift


def throughput_recursion(link: LinkConfig, frame: FrameConfig) -> float:
    """Recursion route: independent oracle for the other two."""
    return _recursion(_link(link), _config("frame", frame, FrameConfig))


def _recursion(link: LinkConfig, frame: FrameConfig) -> float:
    """throughput_recursion, its arguments already checked."""
    n, tau = frame.n, frame.tau
    ld = _recursion_log2(link.mu1, link.mu2, tau, n)
    return (n * (math.log2(link.mu1) + math.log2(link.mu2)) + ld) / (n + tau)


def throughput_asymptotic(mu1, mu2, tau):
    """Infinite-frame limit log2(mu1 mu2 r1), in the expanded form

        (s + m g)/2 + sqrt(s^2 + 2 s m g)/2,
        s = 1 + mu1 + mu2,  m = mu1 mu2,  g = 2 tau (1 - tau),

    which is cancellation-free and manifestly >= s.  Where it overflows
    (s^2 does once s passes about 1.3e154), it is evaluated scaled by s,

        log2 s + log2((1 + m')/2 + sqrt(1 + 2 m')/2),  m' = (mu1/s) mu2 g,

    so the limit is finite wherever s is.  Elementwise over the broadcast
    of mu1, mu2 and tau: a float for one point, else an array; a point
    whose limit is not finite raises DomainError naming it.
    """
    mu1, mu2 = (_real(k, v, _TINY, rule="be finite and > 0", batch=True)[()]
                for k, v in (("mu1", mu1), ("mu2", mu2)))
    tau = _real("tau", tau, 0.0, 1.0, "lie in [0, 1)", batch=True)[()]
    return _asymptotic(*_together("mu1, mu2 and tau", mu1, mu2, tau))


def _asymptotic(mu1, mu2, tau):
    """throughput_asymptotic at checked numpy arguments."""
    with np.errstate(all="ignore"):
        s = 1.0 + mu1 + mu2
        mg = mu1 * mu2 * 2.0 * tau * (1.0 - tau)
        val = 0.5 * (s + mg) + 0.5 * np.sqrt(s * s + 2.0 * s * mg)
        log_val = np.log2(val)
        over = ~np.isfinite(val)
        if over.any():
            m = (mu1 / s) * mu2 * 2.0 * tau * (1.0 - tau)
            log_val = np.where(over, np.log2(s) + np.log2(
                0.5 * (1.0 + m) + 0.5 * np.sqrt(1.0 + 2.0 * m)), log_val)
        rate = np.where(tau == 0.0, _sync_rate(mu1, mu2), log_val)
    _require_finite(rate, "asymptotic rate", mu1=mu1, mu2=mu2, tau=tau)
    return rate[()]


def _baseline_gains(who: str, mu1, mu2) -> tuple[float, float]:
    """mu1 and mu2 as floats, which a baseline takes finite and >= 0."""
    rule = f"be finite and >= 0: {who} needs finite mu1, mu2 >= 0"
    return _real("mu1", mu1, 0.0, rule=rule), _real("mu2", mu2, 0.0, rule=rule)


def throughput_noma(mu1: float, mu2: float) -> float:
    """Synchronous baseline with ideal interference cancellation."""
    rate = float(_sync_rate(*_baseline_gains("noma", mu1, mu2)))
    return _real("noma's log2(1 + mu1 + mu2)", rate)  # mu1 + mu2 may overflow


def throughput_oma(mu1: float, mu2: float) -> float:
    """Equal time-split TDMA at full per-user power."""
    return _oma(*_baseline_gains("oma", mu1, mu2))


def _oma(mu1: float, mu2: float) -> float:
    return 0.5 * math.log2(1.0 + mu1) + 0.5 * math.log2(1.0 + mu2)


def throughput_report(link: LinkConfig, frame: FrameConfig) -> ThroughputReport:
    """Evaluate every throughput figure at one operating point."""
    num = log2_det_no_error(link, frame)  # checks link and frame
    mu1, mu2 = link.mu1, link.mu2
    return ThroughputReport(
        anoma_matrix=num / (frame.n + frame.tau),
        anoma_closed=_closed(link, frame),
        anoma_recursion=_recursion(link, frame),
        anoma_n_plus_1=num / (frame.n + 1),
        noma=float(_sync_rate(mu1, mu2)),
        oma=_oma(mu1, mu2),
        asymptotic=_asymptotic(np.float64(mu1), np.float64(mu2),
                               np.float64(frame.tau)),
    )
