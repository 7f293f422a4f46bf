"""Command-line front end: figure sweeps to CSV, validation suites, queries.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error.
Each figure returns its header and its whole columns, in header order,
to one writer, which checks every cell before it opens the file and
formats an integer column as %d and any other as %.12g.  Sweep grids are
evaluated and written in axis order, so the output is byte-for-byte
deterministic for a fixed spec.  The timing-error figures evaluate their
whole grid in one batched call, and the closed-form figures
(power_surface, rate_vs_gain, tau_star_vs_n) one closed_rate evaluation
per grid or gain pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import design, timing, validate
from .model import (DomainError, FrameConfig, LinkConfig, TimingError, _length,
                    _real, _require_bytes)
from .throughput import (closed_rate, throughput_asymptotic,
                         throughput_matrix, throughput_noma, throughput_oma,
                         throughput_report)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


# a CSV column this long formats each distinct value once (_cell_texts)
_DISTINCT_MIN = 256
# a CSV cell's share of a sweep's peak memory, checked against
# model.MAX_BYTES: its float, its text and its share of the row's line
# and of the figure's arrays, which tracemalloc puts at 70 to 120 bytes
_CELL_BYTES = 128


class UsageError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return format(float(v), ".12g")


def _axis(params: dict, lo_key: str, hi_key: str, step_key: str,
          columns: int, dims: int = 1) -> np.ndarray:
    """Inclusive grid over [lo, hi] with the given step, for a sweep over
    dims such axes whose CSV has columns cells per row.

    When step * k lands within 1e-9 |v| of each endpoint v for a whole k,
    the grid is built as step * k, so symmetric ranges hit 0.0 exactly;
    otherwise it is anchored at lo and clamped to hi, so it never leaves
    [lo, hi].  Either way each point is a single product (or hi itself),
    never an accumulated sum.
    """
    lo, hi, step = params[lo_key], params[hi_key], params[step_key]
    if step <= 0:
        raise UsageError(f"{step_key} must be > 0")
    if hi < lo:
        raise UsageError(f"{hi_key} must be >= {lo_key}")
    keys = f"{lo_key}, {hi_key} and {step_key}"
    try:
        k0, k1 = round(lo / step), round(hi / step)
        exact = all(abs(step * k - v) <= 1e-9 * abs(v)
                    for k, v in ((k0, lo), (k1, hi)))
        count = k1 - k0 + 1 if exact else int(math.floor((hi - lo) / step
                                                         + 1e-9)) + 1
        n_bytes = _CELL_BYTES * columns * math.prod([float(count)] * dims)
    except (OverflowError, ValueError):  # a count past the float range
        raise UsageError(f"{keys} span more grid points than an array can "
                         "index") from None
    _require_bytes(f"{keys} span {count}^{dims} grid points, which", n_bytes)
    if exact:  # k past int64 is still a float
        return step * np.arange(k0, k1 + 1, dtype=float)
    return np.minimum(lo + step * np.arange(count), hi)


# ---------------------------------------------------------------------------
# figure sweeps


def _fig_rate_vs_gain(p: dict):
    h2_list = list(p["h2_sq_values"])
    h1_grid = _axis(p, "h1_sq_min", "h1_sq_max", "h1_sq_step",
                    columns=1 + 3 * len(h2_list))
    # each channel is the square root of its |h|^2
    for key, v in (("h1_sq_min", h1_grid[0]), ("h2_sq_values", min(h2_list))):
        _real(key, v, 0.0, rule="be >= 0")
    frame = FrameConfig(p["n"], p["tau"])
    header = ["h1_sq"]
    for h2 in h2_list:
        tag = _fmt(h2)
        header += [f"anoma_matrix_h2sq{tag}", f"anoma_closed_h2sq{tag}",
                   f"noma_h2sq{tag}"]

    links = [[LinkConfig(p1=p["p1"], p2=p["p2"], h1=math.sqrt(h1_sq),
                         h2=math.sqrt(h2_sq)) for h2_sq in h2_list]
             for h1_sq in h1_grid]
    matrix = np.array([[throughput_matrix(link, frame) for link in row]
                       for row in links])
    # one gain per h1 row and one per h2 column, as LinkConfig computes them
    mu1 = np.array([row[0].mu1 for row in links])
    mu2 = np.array([link.mu2 for link in links[0]])
    closed = closed_rate(mu1[:, None], mu2, frame.n, frame.tau)
    columns = [h1_grid]
    for j, b in enumerate(mu2):
        columns += [matrix[:, j], closed[:, j],
                    [throughput_noma(a, b) for a in mu1]]
    return header, columns


def _fig_rate_vs_n(p: dict):
    taus = list(p["tau_values"])
    if p["n_points"] < 1 or p["n_min"] < 1 or p["n_max"] < p["n_min"]:
        raise UsageError("n_min/n_max/n_points must define a non-empty range")
    _require_bytes(f"n_points = {p['n_points']}",
                   _CELL_BYTES * p["n_points"] * (2 + 2 * len(taus)))
    _length("frame length n", p["n_max"])  # the log-spaced ladder is in floats
    # Python ints: FrameConfig checks each, where an int64 cast would wrap
    ns = [int(v) for v in np.unique(np.round(np.logspace(
        math.log10(p["n_min"]), math.log10(p["n_max"]), p["n_points"])))]
    link = LinkConfig.from_gains(p["mu1"], p["mu2"])
    header = (["N"] + [f"anoma_tau{_fmt(t)}" for t in taus] + ["noma"]
              + [f"asymptote_{_fmt(t)}" for t in taus])
    matrix = np.array([[throughput_matrix(link, FrameConfig(n, t)) for t in taus]
                       for n in ns])
    # neither baseline depends on N: one value per column
    flat = [throughput_noma(link.mu1, link.mu2)]
    flat += [throughput_asymptotic(link.mu1, link.mu2, t) for t in taus]
    return header, [ns, *matrix.T, *(np.full(len(ns), v) for v in flat)]


def _fig_power_surface(p: dict):
    pg = _axis(p, "p_min", "p_max", "p_step", columns=3, dims=2)
    frame = FrameConfig(p["n"], p["tau"])
    rate = design.verify_full_power(pg, pg, p["h1_sq"], p["h2_sq"],
                                    frame).throughput
    header = ["p1", "p2", "throughput"]
    return header, [np.repeat(pg, len(pg)), np.tile(pg, len(pg)), rate.ravel()]


def _fig_tau_star_vs_n(p: dict):
    gains = [tuple(g) for g in p["gains"]]
    n_values = p["n_values"]
    res = p["grid_resolution"]
    header = ["N"] + [f"tau_star_mu{_fmt(a)}_{_fmt(b)}" for a, b in gains]

    stars = [design.optimal_tau(LinkConfig.from_gains(mu1, mu2), n_values,
                                grid_resolution=res)
             for mu1, mu2 in gains]
    return header, [n_values, *stars]


def _fig_loss_heatmap(p: dict):
    eps = _axis(p, "eps_min", "eps_max", "eps_step", columns=3, dims=2)
    link = LinkConfig.from_gains(p["mu1"], p["mu2"])
    frame = FrameConfig(p["n"], p["tau"])
    header = ["eps1", "eps2", "gamma"]
    e1, e2 = (v.ravel() for v in np.meshgrid(eps, eps, indexing="ij"))
    gamma = timing.loss_ratio(link, frame, TimingError(e1, e2))
    return header, [e1, e2, gamma]


def _slices(eps: np.ndarray) -> TimingError:
    """The sync-error slice (eps, 0), then the coordination slice (0, eps),
    as one batch."""
    zeros = np.zeros_like(eps)
    return TimingError(np.concatenate([eps, zeros]), np.concatenate([zeros, eps]))


def _fig_loss_slices(p: dict):
    eps = _axis(p, "eps_min", "eps_max", "eps_step", columns=5)
    link = LinkConfig.from_gains(p["mu1"], p["mu2"])
    frame = FrameConfig(p["n"], p["tau"])
    base = throughput_matrix(link, frame)
    c1, c2 = timing._loss_slopes(link, frame)
    header = ["eps", "gamma_sync_exact", "gamma_sync_linear",
              "gamma_coord_exact", "gamma_coord_linear"]
    gamma = timing._exact_loss(link, frame, _slices(eps), base)[2]
    return header, [eps, gamma[:len(eps)], np.abs(eps) * c1 / base,
                    gamma[len(eps):], np.abs(eps) * c2 / base]


def _fig_scheme_comparison(p: dict):
    eps = _axis(p, "eps_min", "eps_max", "eps_step", columns=5)
    link = LinkConfig.from_gains(p["mu1"], p["mu2"])
    frame = FrameConfig(p["n"], p["tau"])
    noma = throughput_noma(link.mu1, link.mu2)
    oma = throughput_oma(link.mu1, link.mu2)
    header = ["eps", "anoma_sync_error", "anoma_coord_error", "noma", "oma"]
    rate = timing.throughput_with_error(link, frame, _slices(eps))
    return header, [eps, rate[:len(eps)], rate[len(eps):],
                    np.full(len(eps), noma), np.full(len(eps), oma)]


FIGURES = {
    "rate_vs_gain": (_fig_rate_vs_gain, {
        "p1": 1.0, "p2": 1.0, "tau": 0.5, "n": 10,
        "h1_sq_min": 0.1, "h1_sq_max": 2.0, "h1_sq_step": 0.1,
        "h2_sq_values": [0.5, 1.0],
    }),
    "rate_vs_n": (_fig_rate_vs_n, {
        "mu1": 1.0, "mu2": 0.5, "tau_values": [0.5, 0.1],
        "n_min": 1, "n_max": 200, "n_points": 25,
    }),
    "power_surface": (_fig_power_surface, {
        "h1_sq": 1.0, "h2_sq": 0.5, "p_min": 0.1, "p_max": 1.0,
        "p_step": 0.1, "tau": 0.5, "n": 10,
    }),
    "tau_star_vs_n": (_fig_tau_star_vs_n, {
        "gains": [[1.0, 0.5], [1.0, 1.0], [2.0, 1.0]],
        "n_values": [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
        "grid_resolution": 1e-3,
    }),
    "loss_heatmap": (_fig_loss_heatmap, {
        "mu1": 1.0, "mu2": 0.5, "tau": 0.5, "n": 10,
        "eps_min": -0.1, "eps_max": 0.1, "eps_step": 0.005,
    }),
    "loss_slices": (_fig_loss_slices, {
        "mu1": 1.0, "mu2": 0.5, "tau": 0.5, "n": 10,
        "eps_min": -0.1, "eps_max": 0.1, "eps_step": 0.005,
    }),
    "scheme_comparison": (_fig_scheme_comparison, {
        "mu1": 1.0, "mu2": 0.5, "tau": 0.5, "n": 10,
        "eps_min": -0.4, "eps_max": 0.4, "eps_step": 0.05,
    }),
}

QUERY_DEFAULTS = {"mu1": 1.0, "mu2": 0.5, "tau": 0.5, "n": 10,
                  "eps1": 0.0, "eps2": 0.0}


def _parse_set(entries: list[str]) -> dict:
    out = {}
    for item in entries:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _conform(key: str, val, default):
    """val as a value of default's kind, else UsageError or DomainError
    naming key: for an int default a whole number (1e3 gives 1000), for a
    float one a finite number (kept as given), and for a list one a
    non-empty list of values of its first entry's kind, and of that
    entry's length when the entries are lists (gain pairs).
    """
    if isinstance(default, list):
        item = default[0]
        if not isinstance(val, list) or not val or (isinstance(item, list) and any(
                not isinstance(v, list) or len(v) != len(item) for v in val)):
            shape = f"{len(item)}-element lists" if isinstance(item, list) else "values"
            raise UsageError(f"{key} must be a non-empty list of {shape}, got {val!r}")
        return [_conform(key, v, item) for v in val]
    if isinstance(default, int):
        if isinstance(val, float) and val.is_integer():
            val = int(val)
        return _real(key, val, rule=None, kind=int)
    _real(key, val)
    return val


def _merge_params(defaults: dict, config_path: str | None,
                  overrides: dict) -> dict:
    """defaults, then the config file's fields, then the overrides, each
    value checked against its default's kind (_conform)."""
    params, file_params = dict(defaults), {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                file_params = json.load(f)
        except OSError as exc:
            raise OSError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {config_path} is not valid JSON: {exc}")
        if not isinstance(file_params, dict):
            raise UsageError("config file must hold a JSON object")
    for what, given in (("config field", file_params), ("field", overrides)):
        for key, val in given.items():
            if key not in params:
                raise UsageError(f"unknown {what} {key!r}")
            params[key] = _conform(key, val, defaults[key])
    return params


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Header, then row i holding entry i of each column (equal-length
    1-D arrays or lists, in header order).

    A non-finite cell raises DomainError naming its row and column
    before the file is opened, so no partial CSV is left.  An integer
    column prints as %d and any other as %.12g, _fmt's two formats.
    """
    columns = [np.asarray(c) for c in columns]
    cells = np.column_stack(columns)
    bad = np.argwhere(~np.isfinite(cells))
    if len(bad):
        i, j = bad[0]
        raise DomainError(f"not writing {path}: row {i + 1}, column "
                          f"{header[j]!r} is {cells[i, j]}")
    lines = [",".join(header), *map(",".join, zip(*map(_cell_texts, columns)))]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _cell_texts(column: np.ndarray) -> list[str]:
    """The cells of one column as _write_csv prints them.  A long column
    formats each distinct value once, floats told apart by their bits,
    so -0.0 still prints as -0; below _DISTINCT_MIN cells, finding them
    costs more than it saves."""
    fmt = "%d" if column.dtype.kind in "iu" else "%.12g"
    if len(column) < _DISTINCT_MIN:
        return [fmt % v for v in column.tolist()]
    keys = column if fmt == "%d" else column.astype(float).view(np.int64)
    distinct, index = np.unique(keys, return_inverse=True)
    if fmt != "%d":
        distinct = distinct.view(float)
    texts = np.array([fmt % v for v in distinct.tolist()], dtype=object)
    return texts[index].tolist()


def _cmd_sweep(args) -> int:
    if args.figure_id not in FIGURES:
        raise UsageError(f"unknown figure_id {args.figure_id!r}; "
                         f"choose from {', '.join(sorted(FIGURES))}")
    fn, defaults = FIGURES[args.figure_id]
    params = _merge_params(defaults, args.config, _parse_set(args.set))
    header, columns = fn(params)
    out = args.out or f"{args.figure_id}.csv"
    _write_csv(out, header, columns)
    print(f"wrote {out}: {len(columns[0])} rows")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.suite not in validate.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(sorted(validate.SUITES))}")
    results = [r for fn in validate.SUITES[args.suite] for r in fn()]
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_query(args) -> int:
    params = _merge_params(QUERY_DEFAULTS, None, _parse_set(args.set))
    link = LinkConfig.from_gains(params["mu1"], params["mu2"])
    frame = FrameConfig(params["n"], params["tau"])
    err = TimingError(params["eps1"], params["eps2"])
    fields = dataclasses.asdict(throughput_report(link, frame))
    # the report's log-det rate is the base of every loss below
    base = fields["anoma_matrix"]
    if frame.tau > 0.0:
        loss = timing._loss_breakdown(link, frame, err, base)
    else:
        # sensitivity slopes need tau in (0, 1); the loss itself is still defined
        r_e, delta, gamma = timing._exact_loss(link, frame, err, base)
        loss = timing.LossBreakdown(
            exact_throughput_with_error=r_e, delta=delta,
            delta_lin_sync=math.nan, delta_lin_coord=math.nan,
            c1=math.nan, c2=math.nan, gamma=gamma)
    fields.update(dataclasses.asdict(loss))
    point = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
    values = " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())
    print(f"{point} {values}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and every --set list starts from a fresh copy of its default."""
    parser = argparse.ArgumentParser(
        prog="anoma",
        description="Two-user asynchronous uplink throughput toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="write one figure's data as CSV")
    p_sweep.add_argument("figure_id")
    p_sweep.add_argument("--config", help="JSON file with sweep parameters")
    p_sweep.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", help="override one parameter")
    p_sweep.add_argument("--out", help="output CSV path (default <figure>.csv)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run a validation suite")
    p_val.add_argument("suite")
    p_val.set_defaults(fn=_cmd_validate)

    p_query = sub.add_parser("query", help="report all figures for one point")
    p_query.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", help="set a point parameter")
    p_query.set_defaults(fn=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy raises its _ArrayMemoryError, a MemoryError, for an array
        # that does not fit; the byte budget (model.MAX_BYTES) refuses
        # what it foresees, and this catches what it does not
        print(f"error: out of memory: {exc} (the arrays grow with the frame "
              "length n and with the number of sweep points)", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
