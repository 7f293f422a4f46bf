"""Seeded inputs, timed operations and output checks for each workload.

Every workload is a closed loop: one client runs the ops of a pass one
after another.  ``make_ops(name, seed, index)`` builds pass ``index`` as
plain JSON data, so one seed always gives byte-identical inputs; every
pass draws fresh inputs from the same strata, so passes cost about the
same and repeated passes add samples rather than copies.
``WORKLOADS[name].run`` is the timed region and drives the public API of
``anoma`` with its default settings; ``.check`` compares the op's output
with an independent route, outside the timed region, at the tolerances
the acceptance tests pin.  It returns "" when the output passes, and the
reason otherwise.  An op fails if it raises (caught by the caller),
exits non-zero, returns a non-finite value, or its output disagrees
with the independent route.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from anoma import cli, throughput, timing, waveform
from anoma.model import FrameConfig, LinkConfig, TimingError

# three-route agreement: acceptance c01 pins 1e-9 up to n = 50 and 1e-6
# for long frames
ROUTE_TOL_SHORT = 1e-9
ROUTE_TOL_LONG = 1e-6
SHORT_FRAME = 50
# loss by definition vs the rearranged display (tests/test_timing.py)
LOSS_ROUTE_TOL = 1e-9
# waveform vs linear model (acceptance c11)
WAVEFORM_TOL = 1e-12

LOSS_GRID_POINTS = 41 * 41       # default loss_heatmap eps grid, step 0.005
LOSS_GRID_CORNER = 0.1           # default eps_max
# long enough for the dense kernels to take most of the time, short
# enough that a run holds over 100 ops and op_s_tail is a real tail
LONG_FRAME_N = 300
TAU_SEARCH_ROWS = 10             # default tau_star_vs_n n_values
TAU_GRID_RESOLUTION = 1e-3       # default tau_star_vs_n grid_resolution
GAIN_LO, GAIN_HI = 1e-300, 1e300  # admissible gain range (ROADMAP item 5)
MC_SUBSAMPLES = 64               # noise_covariance_mc default sub-grid


@dataclass(frozen=True)
class Workload:
    make: Callable[[np.random.Generator], list[dict]]
    run: Callable[[dict, Path], Any]
    check: Callable[[dict, Any, Path], str]
    # timed seconds of one pass at the seed commit on a 2-vCPU VM; a
    # constant, so that a run of --seconds makes the same passes on
    # every commit
    pass_s: float


def make_ops(name: str, seed: int, index: int = 0) -> list[dict]:
    """Pass ``index`` of the workload, generated from the seed alone."""
    return WORKLOADS[name].make(np.random.default_rng([seed, index]))


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(a) if a != 0.0 else abs(b)


def _route_tol(n: int) -> float:
    return ROUTE_TOL_SHORT if n <= SHORT_FRAME else ROUTE_TOL_LONG


def _sets(params: dict) -> list[str]:
    out = []
    for key, val in params.items():
        out += ["--set", f"{key}={val!r}"]
    return out


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """anoma.cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue().strip()


def _cli_failure(rc: int, stderr: str) -> str:
    return f"exit code {rc}: {stderr}" if rc != 0 else ""


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def _three_routes(link: LinkConfig, frame: FrameConfig) -> str:
    values = (throughput.throughput_matrix(link, frame),
              throughput.throughput_closed(link, frame),
              throughput.throughput_recursion(link, frame))
    if not all(math.isfinite(v) for v in values):
        return f"non-finite route at n={frame.n}"
    gap = max(_rel(values[0], v) for v in values[1:])
    if gap > _route_tol(frame.n):
        return f"routes differ by {gap:.3g} at n={frame.n}"
    return ""


# ---------------------------------------------------------------------------
# loss_grid: one default loss_heatmap sweep per op


def _loss_grid_make(rng: np.random.Generator) -> list[dict]:
    # n is stratified over [8, 32]; tau stays inside [0.2, 0.8), where
    # the whole +-0.1 grid is admissible
    return [{"mu1": _loguniform(rng, 0.1, 10.0),
             "mu2": _loguniform(rng, 0.1, 10.0),
             "tau": float(rng.uniform(0.25, 0.75)),
             "n": 8 + 12 * k + int(rng.integers(0, 13))}
            for k in range(2)]


def _loss_grid_run(spec: dict, out_path: Path):
    out_path.unlink(missing_ok=True)
    return _cli(["sweep", "loss_heatmap", *_sets(spec), "--out", str(out_path)])


def _loss_grid_check(spec: dict, result, out_path: Path) -> str:
    failure = _cli_failure(result[0], result[2])
    if failure:
        return failure
    rows = _read_csv(out_path)[1:]
    if len(rows) != LOSS_GRID_POINTS:
        return f"{len(rows)} grid rows"
    gamma = {(float(e1), float(e2)): float(g) for e1, e2, g in rows}
    if not all(math.isfinite(g) for g in gamma.values()):
        return "non-finite gamma"
    link = LinkConfig.from_gains(spec["mu1"], spec["mu2"])
    frame = FrameConfig(spec["n"], spec["tau"])
    failure = _three_routes(link, frame)
    if failure:
        return failure
    # gamma at the four grid corners, one per sign branch, by the
    # rearranged-display route
    base = throughput.throughput_matrix(link, frame)
    for e1 in (-LOSS_GRID_CORNER, LOSS_GRID_CORNER):
        for e2 in (-LOSS_GRID_CORNER, LOSS_GRID_CORNER):
            ref = timing.throughput_loss_display(link, frame,
                                                 TimingError(e1, e2)) / base
            if _rel(ref, gamma[(e1, e2)]) > LOSS_ROUTE_TOL:
                return f"gamma({e1}, {e2}) differs from display"
    return ""


# ---------------------------------------------------------------------------
# long_frame: anoma query plus the display-route loss at one long frame


def _long_frame_make(rng: np.random.Generator) -> list[dict]:
    # one frame length: the dense kernels cost O(n^2)-O(n^3), so a spread
    # of n would make every latency quantile jump with the sample
    return [{"mu1": _loguniform(rng, 0.1, 10.0),
             "mu2": _loguniform(rng, 0.1, 10.0),
             "tau": float(rng.uniform(0.25, 0.75)),
             "n": LONG_FRAME_N,
             "eps1": float(rng.uniform(-0.1, 0.1)),
             "eps2": float(rng.uniform(-0.1, 0.1))}
            for _ in range(2)]


def _point(spec: dict) -> tuple[LinkConfig, FrameConfig, TimingError]:
    return (LinkConfig.from_gains(spec["mu1"], spec["mu2"]),
            FrameConfig(spec["n"], spec["tau"]),
            TimingError(spec["eps1"], spec["eps2"]))


def _long_frame_run(spec: dict, out_path: Path):
    rc, out, err = _cli(["query", *_sets(spec)])
    display = timing.throughput_loss_display(*_point(spec))
    return rc, out, err, display


def _long_frame_check(spec: dict, result, out_path: Path) -> str:
    rc, out, err, display = result
    failure = _cli_failure(rc, err)
    if failure:
        return failure
    fields = dict(tok.split("=", 1) for tok in out.split())
    values = {k: float(v) for k, v in fields.items()}
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad or not math.isfinite(display):
        return f"non-finite {', '.join(bad) or 'display loss'}"
    tol = _route_tol(spec["n"])
    for key in ("anoma_closed", "anoma_recursion"):
        if _rel(values["anoma_matrix"], values[key]) > tol:
            return f"query {key} differs from anoma_matrix"
    delta = timing.throughput_loss(*_point(spec))
    if _rel(delta, display) > LOSS_ROUTE_TOL:
        return "display loss differs from definition"
    if _rel(delta, values["delta"]) > LOSS_ROUTE_TOL:
        return "query delta differs from definition"
    return ""


# ---------------------------------------------------------------------------
# tau_search: one tau_star_vs_n sweep for a single gain pair

# every fifth pair puts at least one gain at an end of the admissible
# range; each pass holds each of these eight classes once
_EXTREMES = (("lo", "x"), ("x", "lo"), ("hi", "x"), ("x", "hi"),
             ("lo", "lo"), ("hi", "hi"), ("lo", "hi"), ("hi", "lo"))
_ENDS = {"lo": GAIN_LO, "hi": GAIN_HI}


def _tau_search_make(rng: np.random.Generator) -> list[dict]:
    classes = [_EXTREMES[i] for i in rng.permutation(len(_EXTREMES))]
    ops = []
    for i in range(5 * len(_EXTREMES)):
        ordinary = (_loguniform(rng, 1e-2, 1e2), _loguniform(rng, 1e-2, 1e2))
        if i % 5 == 4:
            gains = tuple(_ENDS.get(c, g) for c, g in zip(classes[i // 5], ordinary))
        else:
            gains = ordinary
        ops.append({"mu1": gains[0], "mu2": gains[1]})
    return ops


def _tau_search_run(spec: dict, out_path: Path):
    out_path.unlink(missing_ok=True)
    gains = f"gains=[[{spec['mu1']!r}, {spec['mu2']!r}]]"
    return _cli(["sweep", "tau_star_vs_n", "--set", gains,
                 "--out", str(out_path)])


def _tau_search_check(spec: dict, result, out_path: Path) -> str:
    failure = _cli_failure(result[0], result[2])
    if failure:
        return failure
    rows = _read_csv(out_path)[1:]
    if len(rows) != TAU_SEARCH_ROWS:
        return f"{len(rows)} rows"
    link = LinkConfig.from_gains(spec["mu1"], spec["mu2"])
    for n_text, tau_text in rows:
        n, tau_star = int(n_text), float(tau_text)
        if not math.isfinite(tau_star):
            return f"non-finite tau* at n={n}"
        if not 0.0 <= tau_star < 1.0:
            return f"tau*={tau_star} outside [0, 1) at n={n}"
        frame = FrameConfig(n, tau_star)
        closed = throughput.throughput_closed(link, frame)
        matrix = throughput.throughput_matrix(link, frame)
        if not (math.isfinite(closed) and math.isfinite(matrix)):
            return f"non-finite rate at tau* for n={n}"
        if _rel(matrix, closed) > _route_tol(n):
            return f"closed and matrix differ at tau* for n={n}"
        # tau* beats its neighbours one search-grid cell away
        for tau in (tau_star - TAU_GRID_RESOLUTION, tau_star + TAU_GRID_RESOLUTION):
            if 0.0 <= tau < 1.0:
                near = throughput.throughput_matrix(link, FrameConfig(n, tau))
                if near > matrix + _route_tol(n) * abs(matrix):
                    return f"tau*={tau_star} is no maximum at n={n}"
    return ""


# ---------------------------------------------------------------------------
# waveform: noisy matched-filter frames plus one noise Monte Carlo


def _waveform_make(rng: np.random.Generator) -> list[dict]:
    # frame lengths stratified over [100, 1000]
    ops: list[dict] = [{
        "kind": "frame",
        "n": 100 + 75 * k + int(rng.integers(0, 76)),
        "tau": float(rng.uniform(0.25, 0.75)),
        "p1": float(rng.uniform(0.2, 3.0)), "p2": float(rng.uniform(0.2, 3.0)),
        "h1": [float(v) for v in rng.normal(size=2)],
        "h2": [float(v) for v in rng.normal(size=2)],
        "eps1": float(rng.uniform(-0.1, 0.1)),
        "eps2": float(rng.uniform(-0.1, 0.1)),
        "symbol_seed": int(rng.integers(0, 2 ** 31)),
        "noise_seed": int(rng.integers(0, 2 ** 31)),
    } for k in range(12)]
    # window edges on the Monte Carlo sub-grid, where it has no
    # discretization bias and stat_bound is the right yardstick
    ops.append({"kind": "mc", "n": 2,
                "tau": int(rng.integers(16, 49)) / MC_SUBSAMPLES,
                "eps2": int(rng.integers(-6, 7)) / MC_SUBSAMPLES,
                "trials": 50_000, "seed": int(rng.integers(0, 2 ** 31))})
    return ops


def _frame_inputs(spec: dict):
    return (waveform.generate_symbols(spec["n"], "gaussian",
                                      seed=spec["symbol_seed"]),
            LinkConfig(p1=spec["p1"], p2=spec["p2"],
                       h1=complex(*spec["h1"]), h2=complex(*spec["h2"])),
            FrameConfig(spec["n"], spec["tau"]),
            TimingError(spec["eps1"], spec["eps2"]))


def _waveform_run(spec: dict, out_path: Path):
    if spec["kind"] == "mc":
        return waveform.noise_covariance_mc(
            FrameConfig(spec["n"], spec["tau"]), eps2=spec["eps2"],
            trials=spec["trials"], seed=spec["seed"])
    return waveform.matched_filter_outputs(
        *_frame_inputs(spec), noiseless=False,
        rng=np.random.default_rng(spec["noise_seed"]))


def _waveform_check(spec: dict, result, out_path: Path) -> str:
    if spec["kind"] == "mc":
        if not np.all(np.isfinite(result.empirical)):
            return "non-finite covariance"
        if not result.max_abs_deviation <= result.stat_bound:
            return "Monte Carlo deviation above stat_bound"
        return ""
    noisy = result.interleaved()
    if not np.all(np.isfinite(noisy)):
        return "non-finite samples"
    symbols, link, frame, err = _frame_inputs(spec)
    clean = waveform.matched_filter_outputs(symbols, link, frame, err).interleaved()
    model = waveform.model_outputs(symbols, link, frame, err)
    gap = float(np.max(np.abs(clean - model)))
    if gap > WAVEFORM_TOL:
        return f"noiseless outputs differ from the linear model by {gap:.2g}"
    noise = waveform.draw_colored_noise(
        frame, spec["eps2"], np.random.default_rng(spec["noise_seed"]))
    if np.max(np.abs(noisy - (clean + noise))) > WAVEFORM_TOL:
        return "noisy outputs differ from clean plus noise"
    return ""


WORKLOADS = {
    "loss_grid": Workload(_loss_grid_make, _loss_grid_run, _loss_grid_check,
                          2.1),
    "long_frame": Workload(_long_frame_make, _long_frame_run,
                           _long_frame_check, 0.22),
    "tau_search": Workload(_tau_search_make, _tau_search_run,
                           _tau_search_check, 2.2),
    "waveform": Workload(_waveform_make, _waveform_run, _waveform_check, 0.85),
}
