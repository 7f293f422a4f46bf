"""Machine-checkable validation suites over the whole toolkit.

Each check returns CheckResult rows with a measured value and the
tolerance it was held to; the CLI prints them one per line and the
acceptance tests assert them.  Grids and tolerances are pinned here, in
one place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import design, throughput, timing, waveform
from .model import FrameConfig, LinkConfig, TimingError

MU_GRID = (0.1, 1.0, 10.0)
TAU_GRID = (0.0, 0.1, 0.5, 0.9)
N_GRID = (1, 2, 5, 10, 50)
DEFAULT_LINK = LinkConfig.from_gains(1.0, 0.5)
DEFAULT_FRAME = FrameConfig(10, 0.5)

# closed acceptance bands are checked with this much relative slack so a
# boundary value (e.g. a slope ratio that is exactly 5/2) survives float
# rounding
_EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{self.name} measured={self.measured:.6g} "
                f"tol={self.tolerance:.6g} verdict={verdict}{extra}")


def check_route_agreement() -> list[CheckResult]:
    """Closed form, log-det, and recursion agree across the pinned grid."""
    t0 = time.perf_counter()
    results = []
    for name, n_values, tol in (("routes.agreement_n_le_50", N_GRID, 1e-9),
                                ("routes.agreement_n_2000", (2000,), 1e-6)):
        worst = 0.0
        for mu1 in MU_GRID:
            for mu2 in MU_GRID:
                link = LinkConfig.from_gains(mu1, mu2)
                for tau in TAU_GRID:
                    for n in n_values:
                        frame = FrameConfig(n, tau)
                        rm = throughput.throughput_matrix(link, frame)
                        rc = throughput.throughput_closed(link, frame)
                        rr = throughput.throughput_recursion(link, frame)
                        rel = max(abs(rm - rc), abs(rm - rr)) / abs(rm)
                        worst = max(worst, rel)
        results.append(CheckResult(name, worst, tol, worst <= tol))
    elapsed = time.perf_counter() - t0
    results.append(CheckResult("routes.runtime_seconds", elapsed, 30.0,
                               elapsed <= 30.0))
    return results


def check_noma_collapse() -> list[CheckResult]:
    """Closed form at tau = 0 equals the synchronous rate bit-exactly."""
    worst = 0.0
    for mu1 in MU_GRID:
        for mu2 in MU_GRID:
            link = LinkConfig.from_gains(mu1, mu2)
            for n in N_GRID:
                got = throughput.throughput_closed(link, FrameConfig(n, 0.0))
                ref = throughput.throughput_noma(mu1, mu2)
                worst = max(worst, abs(got - ref))
    return [CheckResult("routes.noma_collapse", worst, 0.0, worst == 0.0)]


def check_asymptote_convergence() -> list[CheckResult]:
    frame = FrameConfig(2000, 0.5)
    gap = abs(throughput.throughput_closed(DEFAULT_LINK, frame)
              - throughput.throughput_asymptotic(1.0, 0.5, 0.5))
    return [CheckResult("theorems.asymptote_gap_n2000", gap, 1e-3, gap <= 1e-3)]


def check_asymptotic_gain() -> list[CheckResult]:
    """Large-frame rate strictly beats the synchronous rate off tau = 0."""
    margin = math.inf
    for mu1 in MU_GRID:
        for mu2 in MU_GRID:
            for tau in np.arange(0.1, 0.95, 0.1):
                margin = min(margin,
                             throughput.throughput_asymptotic(mu1, mu2, float(tau))
                             - throughput.throughput_noma(mu1, mu2))
    eq = 0.0
    for mu1 in MU_GRID:
        for mu2 in MU_GRID:
            eq = max(eq, abs(throughput.throughput_asymptotic(mu1, mu2, 0.0)
                             - throughput.throughput_noma(mu1, mu2)))
    return [
        CheckResult("theorems.asymptotic_gain_margin", margin, 0.0, margin > 0.0,
                    detail="min over grid, must be > 0"),
        CheckResult("theorems.tau0_equality", eq, 0.0, eq == 0.0),
    ]


def check_full_power() -> list[CheckResult]:
    report = design.verify_full_power(
        np.arange(0.1, 1.01, 0.1), np.arange(0.1, 1.01, 0.1),
        h1_sq=1.0, h2_sq=0.5, frame=FrameConfig(10, 0.5))
    at_ceiling = report.argmax == (1.0, 1.0)
    return [
        CheckResult("theorems.full_power_violations",
                    float(len(report.violations)), 0.0,
                    not report.violations),
        CheckResult("theorems.full_power_argmax",
                    0.0 if at_ceiling else 1.0, 0.0, at_ceiling,
                    detail=f"argmax={report.argmax}"),
    ]


def check_tau_star() -> list[CheckResult]:
    worst = 0.0
    for mu1 in (0.5, 1.0, 2.0):
        for mu2 in (0.5, 1.0, 2.0):
            star = design.optimal_tau(LinkConfig.from_gains(mu1, mu2), 1000)
            worst = max(worst, abs(star - 0.5))
    stars = design.optimal_tau(DEFAULT_LINK,
                               np.array([1, 2, 5, 10, 50, 200, 1000]))
    small = float(stars[0])
    res_grid = 1e-3
    slip = float(np.max(stars[:-1] - stars[1:]))
    return [
        CheckResult("theorems.tau_star_n1000", worst, 0.01, worst <= 0.01),
        CheckResult("theorems.tau_star_n1", small, 0.1, small <= 0.1),
        CheckResult("theorems.tau_star_trend_slip", max(slip, 0.0), res_grid,
                    slip <= res_grid,
                    detail="largest decrease across the N ladder"),
    ]


def check_zero_error() -> list[CheckResult]:
    zero = TimingError(0.0, 0.0)
    r_e = timing.throughput_with_error(DEFAULT_LINK, DEFAULT_FRAME, zero)
    base = throughput.throughput_matrix(DEFAULT_LINK, DEFAULT_FRAME)
    delta = timing.throughput_loss(DEFAULT_LINK, DEFAULT_FRAME, zero)
    dev = max(abs(r_e - base), abs(delta))
    return [CheckResult("timing.zero_error_identity", dev, 0.0, dev == 0.0)]


def check_linear_loss() -> list[CheckResult]:
    """First-order models within 10% of the exact loss for |eps| <= 0.02."""
    c1, c2 = timing._loss_slopes(DEFAULT_LINK, DEFAULT_FRAME)
    worst = 0.0
    for eps in (-0.02, -0.01, -0.005, 0.005, 0.01, 0.02):
        for err, c in ((TimingError(eps, 0.0), c1), (TimingError(0.0, eps), c2)):
            exact = timing.throughput_loss(DEFAULT_LINK, DEFAULT_FRAME, err)
            worst = max(worst, abs(abs(eps) * c - exact) / abs(exact))
    ratio = c1 / c2
    lo, hi = 1.5, 2.5
    in_band = (lo * (1 - _EDGE_SLACK) <= ratio <= hi * (1 + _EDGE_SLACK))
    return [
        CheckResult("timing.linear_loss_rel_error", worst, 0.1, worst <= 0.1),
        CheckResult("timing.slope_ratio_c1_c2", ratio, hi, in_band,
                    detail=f"band [{lo}, {hi}]"),
    ]


def check_gamma_surface() -> list[CheckResult]:
    """gamma has its grid minimum at the origin and no jump at the kinks."""
    # steps of res over [-0.1, 0.1], integer-scaled so the origin is
    # exactly 0.0
    res = 0.005
    eps = res * np.arange(-20, 21)
    e1, e2 = np.meshgrid(eps, eps, indexing="ij")
    grid = timing.loss_ratio(DEFAULT_LINK, DEFAULT_FRAME, TimingError(e1, e2))
    i0 = int(np.argmin(np.abs(eps)))
    origin = grid[i0, i0]
    min_off = float(np.min(grid) - origin)

    floor = 1e-12
    worst_ratio = 0.0
    for j in range(len(eps)):  # scan each eps2 row along the eps1 axis
        row = grid[:, j]
        for kink in (0.0, -float(eps[j])):  # eps1 = 0 and eps1 + eps2 = 0
            hits = np.where(np.isclose(eps, kink, atol=res / 4))[0]
            if len(hits) == 0:
                continue
            k = int(hits[0])
            if k - 2 < 0 or k + 2 >= len(eps):
                continue
            slope = max(abs(row[k - 1] - row[k - 2]),
                        abs(row[k + 2] - row[k + 1]), floor)
            jump = max(abs(row[k] - row[k - 1]), abs(row[k + 1] - row[k]))
            worst_ratio = max(worst_ratio, jump / slope)
    return [
        CheckResult("timing.gamma_origin_is_minimum", min_off, 0.0,
                    min_off >= 0.0 and origin == 0.0,
                    detail=f"gamma(0,0)={origin:.3g}"),
        CheckResult("timing.gamma_kink_jump_ratio", worst_ratio, 10.0,
                    worst_ratio <= 10.0),
    ]


def check_scheme_ordering() -> list[CheckResult]:
    anoma = throughput.throughput_matrix(DEFAULT_LINK, DEFAULT_FRAME)
    noma = throughput.throughput_noma(1.0, 0.5)
    oma = throughput.throughput_oma(1.0, 0.5)
    ok = anoma > noma > oma
    margin = min(anoma - noma, noma - oma)
    return [CheckResult("schemes.ordering_anoma_noma_oma", margin, 0.0, ok,
                        detail=f"anoma={anoma:.4f} noma={noma:.4f} oma={oma:.4f}")]


def check_waveform_equivalence() -> list[CheckResult]:
    """Noiseless matched-filter outputs equal the banded linear model."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        sym = waveform.generate_symbols(n, "gaussian",
                                        seed=int(rng.integers(0, 2 ** 31)))
        link = LinkConfig(p1=float(rng.uniform(0.2, 3.0)),
                          p2=float(rng.uniform(0.2, 3.0)),
                          h1=complex(rng.normal(), rng.normal()),
                          h2=complex(rng.normal(), rng.normal()))
        for tau in (0.1, 0.3, 0.5, 0.7):
            frame = FrameConfig(n, tau)
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    eps1 = s1 * 0.04
                    err = TimingError(eps1, s2 * 0.03 - eps1)
                    got = waveform.matched_filter_outputs(
                        sym, link, frame, err).interleaved()
                    ref = waveform.model_outputs(sym, link, frame, err)
                    worst = max(worst, float(np.max(np.abs(got - ref))))
    return [CheckResult("waveform.model_equivalence", worst, 1e-12,
                        worst <= 1e-12)]


def check_noise_covariance() -> list[CheckResult]:
    t0 = time.perf_counter()
    rep0 = waveform.noise_covariance_mc(FrameConfig(2, 0.5), eps2=0.0,
                                        trials=1_000_000, seed=511)
    rep1 = waveform.noise_covariance_mc(FrameConfig(2, 0.5), eps2=0.05,
                                        trials=1_000_000, seed=512)
    elapsed = time.perf_counter() - t0
    dev = max(rep0.max_abs_deviation, rep1.max_abs_deviation)
    adj0 = float(rep0.empirical[0, 1].real)
    adj1 = float(rep1.empirical[0, 1].real)
    return [
        CheckResult("waveform.noise_covariance_dev", dev, 0.01, dev <= 0.01,
                    detail=f"adjacency {adj0:.4f}~0.5, {adj1:.4f}~0.45"),
        CheckResult("waveform.noise_covariance_runtime", elapsed, 60.0,
                    elapsed <= 60.0),
    ]


SUITES: dict[str, tuple] = {
    "routes": (check_route_agreement, check_noma_collapse),
    "theorems": (check_asymptote_convergence, check_asymptotic_gain,
                 check_full_power, check_tau_star),
    "timing": (check_zero_error, check_linear_loss, check_gamma_surface,
               check_scheme_ordering),
    "waveform": (check_waveform_equivalence, check_noise_covariance),
}
SUITES["all"] = tuple(fn for suite in ("routes", "theorems", "timing", "waveform")
                      for fn in SUITES[suite])


def run_suite(name: str) -> list[CheckResult]:
    results: list[CheckResult] = []
    for fn in SUITES[name]:
        results.extend(fn())
    return results
