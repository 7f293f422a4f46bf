"""The argument boundary: every public callable, fed a bad value in any
one argument, returns finite values or raises a DomainError that names
that argument or the point it failed at."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import anoma
from anoma import (FrameConfig, LinkConfig, TimingError, design,
                   generate_symbols, model, waveform)

LINK = LinkConfig.from_gains(1.0, 0.5)
FRAME = FrameConfig(4, 0.5)
ERR = TimingError(0.01, -0.02)
POINT = dict(link=LINK, frame=FRAME, err=ERR)
SYMBOLS = generate_symbols(4, seed=0)

# every callable of anoma.__all__ at arguments it accepts, by name
VALID = {
    "LinkConfig": dict(p1=1.0, p2=0.5, h1=1.0, h2=1j),
    "FrameConfig": dict(n=4, tau=0.5),
    "TimingError": dict(eps1=0.01, eps2=-0.02),
    "SymbolFrame": dict(s1=[1.0, 1j], s2=[0.5, -1.0]),
    "build_correlation": dict(frame=FRAME),
    "build_error_matrices": dict(frame=FRAME, err=ERR),
    "build_gain": dict(link=LINK, n=4),
    "build_noise_covariance": dict(frame=FRAME, eps2=0.01),
    "closed_rate": dict(mu1=1.0, mu2=0.5, n=4, tau=0.5),
    "coord_loss_slope": dict(link=LINK, frame=FRAME),
    "determinant_recursion_log2": dict(mu1=1.0, mu2=0.5, tau=0.5, n=4),
    "draw_colored_noise": dict(frame=FRAME, eps2=0.01,
                               rng=np.random.default_rng(0)),
    "generate_symbols": dict(n=4, constellation="qpsk", seed=0),
    "log2_det_no_error": dict(link=LINK, frame=FRAME),
    "loss_breakdown": POINT,
    "loss_ratio": POINT,
    "matched_filter_outputs": dict(symbols=SYMBOLS, link=LINK, frame=FRAME,
                                   err=ERR, noiseless=False, rng=0),
    "model_outputs": dict(symbols=SYMBOLS, link=LINK, frame=FRAME, err=ERR),
    "noise_covariance_mc": dict(frame=FrameConfig(1, 0.5), eps2=0.01,
                                trials=10_000, seed=0),
    "optimal_tau": dict(link=LINK, n=[1, 4], grid_resolution=0.01),
    "sync_loss_slope": dict(link=LINK, frame=FRAME),
    "throughput_asymptotic": dict(mu1=1.0, mu2=0.5, tau=0.5),
    "throughput_closed": dict(link=LINK, frame=FRAME),
    "throughput_loss": POINT,
    "throughput_loss_display": POINT,
    "throughput_matrix": dict(link=LINK, frame=FRAME),
    "throughput_noma": dict(mu1=1.0, mu2=0.5),
    "throughput_oma": dict(mu1=1.0, mu2=0.5),
    "throughput_recursion": dict(link=LINK, frame=FRAME),
    "throughput_report": dict(link=LINK, frame=FRAME),
    "throughput_with_error": POINT,
    "verify_full_power": dict(p1_values=[0.5, 1.0], p2_values=[0.5, 1.0],
                              h1_sq=1.0, h2_sq=0.5, frame=FRAME),
}
# what the package returns or raises, never takes
RECORDS = {"BandedMatrix", "DomainError", "LossBreakdown",
           "NoiseCovarianceReport", "PowerSweepReport", "SampleVectors",
           "ThroughputReport"}

BAD = [
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, 1e300, -1e300, 1e-300,
    True, False, "x", "", None,
    [[1.0], [1.0, 2.0]], [[0.5]], [0.5, 1.0], [],
    np.array(0.5), np.array([]), np.float64(0.5), np.int64(3),
    np.float32(0.25), np.bool_(True),
    10 ** 400, -10 ** 400, 2 ** 62,
    # configs of the wrong class, a frame past the byte budget, and a
    # zero timing error
    LINK, FrameConfig(2 ** 62, 0.5), TimingError(0.0, 0.0),
]
# the recursion is O(n) in time and O(1) in memory, so no budget refuses
# it: at n = 2^62 it would run for millennia before it returned
SLOW = {("determinant_recursion_log2", "n"), ("throughput_recursion", "frame")}
# a message may name the point it failed at instead of the argument
AT_POINT = re.compile(r"at mu1=|\(eps1, eps2\) = ")


def finite(value) -> bool:
    """Whether every number in value, a result record included, is finite."""
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return all(map(finite, value))
    if isinstance(value, str):
        return True
    a = np.asarray(value)
    return a.dtype.kind in "biufc" and bool(np.isfinite(a).all())


def test_every_export_is_fuzzed_or_a_record():
    assert set(VALID) | RECORDS == set(anoma.__all__)
    assert not set(VALID) & RECORDS


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_give_finite_values(name):
    assert finite(getattr(anoma, name)(**VALID[name]))


@pytest.mark.parametrize("name", sorted(VALID))
def test_a_bad_argument_is_named(name):
    fn = getattr(anoma, name)
    for arg in VALID[name]:
        for bad in BAD:
            if ((name, arg) in SLOW and isinstance(bad, (int, FrameConfig))
                    and getattr(bad, "n", bad) == 2 ** 62):
                continue
            try:
                out = fn(**(VALID[name] | {arg: bad}))
            except anoma.DomainError as exc:
                message = str(exc)
                assert (re.search(rf"\b{arg}\b", message)
                        or AT_POINT.search(message)), (arg, bad, message)
            else:
                assert finite(out), (arg, bad, out)


# each O(n) route, the frame length it is measured at and its arguments
# there: one float row of 2n entries is 64 KiB at n = 4096
N = 4096
BIG = dict(link=LINK, frame=FrameConfig(N, 0.5))
BIG_POINT = BIG | dict(err=ERR)
BUDGETED = {
    "build_correlation": (N, dict(frame=BIG["frame"])),
    "build_error_matrices": (N, dict(frame=BIG["frame"], err=TimingError(
        [0.01, 0.02, -0.01], -0.02))),
    "build_gain": (N, dict(link=LINK, n=N)),
    "build_noise_covariance": (N, dict(frame=BIG["frame"], eps2=[0.01, 0.02])),
    "coord_loss_slope": (N, BIG),
    "draw_colored_noise": (N, dict(frame=BIG["frame"], eps2=0.01,
                                   rng=np.random.default_rng(0))),
    "generate_symbols": (N, dict(n=N, seed=0)),
    "log2_det_no_error": (N, BIG),
    "loss_breakdown": (N, BIG_POINT),
    "loss_ratio": (N, BIG_POINT),
    "matched_filter_outputs": (N, dict(symbols=generate_symbols(N, seed=0),
                                       noiseless=False, rng=0) | BIG_POINT),
    "model_outputs": (N, dict(symbols=generate_symbols(N, seed=0), link=LINK,
                              frame=BIG["frame"], err=TimingError(
                                  [0.01, 0.02], -0.02))),
    "noise_covariance_mc": (100, dict(frame=FrameConfig(100, 0.5), eps2=0.01,
                                      seed=0)),
    "sync_loss_slope": (N, BIG),
    "throughput_loss": (N, BIG_POINT),
    "throughput_loss_display": (N, BIG_POINT),
    "throughput_matrix": (N, BIG),
    "throughput_report": (N, BIG),
    "throughput_with_error": (N, BIG_POINT),
    # a 300 x 300 power grid, at n = 300 for a slack of 4.8 KB
    "verify_full_power": (300, dict(p1_values=np.linspace(0.1, 1.0, 300),
                                    p2_values=np.linspace(0.1, 1.0, 300),
                                    h1_sq=1.0, h2_sq=0.5, frame=FRAME)),
}


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budget_is_the_measured_peak(name, monkeypatch):
    # what a route asks of MAX_BYTES covers its traced peak, and is no
    # more than a quarter above it: the budget refuses no frame that fits
    n, kwargs = BUDGETED[name]
    asked = []

    def record(what, n_bytes):
        asked.append(n_bytes)

    for module in (model, waveform, design):
        monkeypatch.setattr(module, "_require_bytes", record)
    getattr(anoma, name)(**kwargs)  # a first call imports what it needs
    asked.clear()
    tracemalloc.start()
    try:
        getattr(anoma, name)(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = 16 * n
    assert peak <= max(asked) + row, (peak / row, max(asked) / row)
    assert max(asked) <= 1.25 * peak + row, (peak / row, max(asked) / row)


def test_recursion_is_not_held_to_a_byte_budget():
    # 2^21 symbols: 0.5 s of scalar steps and no array, so the recursion
    # asks nothing of MAX_BYTES at any frame length
    n = 2 ** 21
    closed = anoma.throughput_closed(LINK, FrameConfig(n, 0.5))
    expected = closed * (n + 0.5) - n * math.log2(0.5)
    assert anoma.determinant_recursion_log2(1.0, 0.5, 0.5, n) == pytest.approx(
        expected, rel=1e-12)
