"""CLI contract: CSV schemas, determinism, exit codes, config precedence."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anoma import cli, validate
from anoma.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from anoma.model import MAX_BYTES, DomainError, FrameConfig, LinkConfig
from anoma.throughput import throughput_closed

# the gain pairs of each extreme class whose closed form is not finite
# somewhere on the tau grid: a gain at 1e-300, or both gains at 1e300
NON_FINITE_GAINS = [(1e-300, 0.7), (3.0, 1e-300), (1e-300, 1e-300),
                    (1e300, 1e300), (1e-300, 1e300), (1e300, 1e-300)]

GOLDEN_HEADERS = {
    "rate_vs_gain": ("h1_sq,anoma_matrix_h2sq0.5,anoma_closed_h2sq0.5,"
                     "noma_h2sq0.5,anoma_matrix_h2sq1,anoma_closed_h2sq1,"
                     "noma_h2sq1"),
    "rate_vs_n": "N,anoma_tau0.5,anoma_tau0.1,noma,asymptote_0.5,asymptote_0.1",
    "power_surface": "p1,p2,throughput",
    "tau_star_vs_n": "N,tau_star_mu1_0.5,tau_star_mu1_1,tau_star_mu2_1",
    "loss_heatmap": "eps1,eps2,gamma",
    "loss_slices": ("eps,gamma_sync_exact,gamma_sync_linear,"
                    "gamma_coord_exact,gamma_coord_linear"),
    "scheme_comparison": "eps,anoma_sync_error,anoma_coord_error,noma,oma",
}

FAST_OVERRIDES = {
    "rate_vs_gain": ["--set", "h1_sq_max=0.3"],
    "rate_vs_n": ["--set", "n_max=20", "--set", "n_points=5"],
    "power_surface": ["--set", "p_step=0.5"],
    "tau_star_vs_n": ["--set", "n_values=[1,5]", "--set", "grid_resolution=0.01"],
    "loss_heatmap": ["--set", "eps_min=-0.02", "--set", "eps_max=0.02",
                     "--set", "eps_step=0.01"],
    "loss_slices": ["--set", "eps_min=-0.03", "--set", "eps_max=0.03",
                    "--set", "eps_step=0.01"],
    "scheme_comparison": ["--set", "eps_min=-0.1", "--set", "eps_max=0.1",
                          "--set", "eps_step=0.05"],
}


def run_sweep(tmp_path, figure, extra=()):
    out = tmp_path / f"{figure}.csv"
    code = main(["sweep", figure, "--out", str(out),
                 *FAST_OVERRIDES[figure], *extra])
    assert code == EXIT_OK
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("figure", sorted(GOLDEN_HEADERS))
def test_csv_header_schema(tmp_path, figure):
    text = run_sweep(tmp_path, figure)
    assert text.splitlines()[0] == GOLDEN_HEADERS[figure]


@pytest.mark.parametrize("figure", ["rate_vs_n", "loss_heatmap"])
def test_byte_determinism(tmp_path, figure):
    a = run_sweep(tmp_path, figure)
    b = run_sweep(tmp_path, figure)
    assert a == b


def test_csv_rows_are_formatted_as_fmt_formats_each_cell(tmp_path):
    # whole columns, as the figures hand them over: lists or arrays
    columns = [[1, 1000, 2],
               [0.1, -0.30000000000000004, 5e-324],
               [np.float64(-0.0), 1e300, 1.7976931348623157e308],
               np.array([2.0 / 3.0, 12345678901234.0, -1.5]),
               [1e-300, -1e-300, 0.0],
               np.array([7, -3, 0], dtype=np.int64)]
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ["a", "b", "c", "d", "e", "f"], columns)
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join(cli._fmt(col[i]) for col in columns) + "\n" for i in range(3))
    assert out.read_text(encoding="utf-8") == want
    cli._write_csv(str(out), ["a"], [[]])
    assert out.read_text(encoding="utf-8") == "a\n"


@pytest.mark.parametrize("rows", [3, cli._DISTINCT_MIN, 3 * cli._DISTINCT_MIN + 1])
def test_csv_cells_print_as_fmt_prints_each_one(tmp_path, rows):
    # repeats with 0.0 and -0.0 among them, distinct floats and integers,
    # in columns shorter and longer than those that format each distinct
    # value once
    rng = np.random.default_rng(rows)
    pool = np.array([0.0, -0.0, 0.1, -0.30000000000000004, 5e-324, 1e300,
                     2.0 / 3.0, 12345678901234.0])
    columns = [rng.choice(pool, size=rows), rng.normal(size=rows),
               rng.integers(-5, 5, size=rows), rng.choice(pool, size=rows).tolist(),
               rng.integers(-5, 5, size=rows).tolist()]
    assert {"0", "-0"} <= {cli._fmt(v) for v in columns[0]}
    out = tmp_path / "cells.csv"
    cli._write_csv(str(out), ["a", "b", "c", "d", "e"], columns)
    want = "a,b,c,d,e\n" + "".join(
        ",".join(cli._fmt(col[i]) for col in columns) + "\n" for i in range(rows))
    assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_csv_writer_refuses_non_finite_cell_before_opening(tmp_path, bad):
    # columns n, b, c; the first bad cell in row order is row 2's c
    columns = [[1, 2, 3], [0.5, 0.25, bad], [2.0, bad, 1.0]]
    fresh = tmp_path / "fresh.csv"
    with pytest.raises(DomainError, match=r"row 2, column 'c'"):
        cli._write_csv(str(fresh), ["n", "b", "c"], columns)
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")
    with pytest.raises(DomainError):
        cli._write_csv(str(kept), ["n", "b", "c"], columns)
    assert kept.read_text(encoding="utf-8") == "old\n"


def test_power_surface_equals_one_point_closed_route(tmp_path):
    text = run_sweep(tmp_path, "power_surface", ["--set", "p_step=0.3"])
    frame = FrameConfig(10, 0.5)
    for line in text.splitlines()[1:]:
        p1, p2, rate = line.split(",")
        link = LinkConfig(p1=float(p1), p2=float(p2), h1=1.0, h2=math.sqrt(0.5))
        assert rate == cli._fmt(throughput_closed(link, frame))


def test_rate_vs_gain_closed_columns_equal_one_point_route(tmp_path):
    text = run_sweep(tmp_path, "rate_vs_gain")
    frame = FrameConfig(10, 0.5)
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        for h2_sq, closed in ((0.5, cells[2]), (1.0, cells[5])):
            link = LinkConfig(p1=1.0, p2=1.0, h1=math.sqrt(float(cells[0])),
                              h2=math.sqrt(h2_sq))
            assert closed == cli._fmt(throughput_closed(link, frame))


@pytest.mark.parametrize("mu1,mu2", NON_FINITE_GAINS)
def test_tau_star_at_non_finite_gains_is_usage_error(tmp_path, capsys, mu1, mu2):
    out = tmp_path / "tau.csv"
    code = main(["sweep", "tau_star_vs_n", "--set", f"gains=[[{mu1!r}, {mu2!r}]]",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "closed-form rate is not finite at" in err
    assert all(f"{k}=" in err for k in ("mu1", "mu2", "n", "tau"))
    assert not out.exists()


def test_rate_vs_n_converges_toward_asymptote(tmp_path):
    text = run_sweep(
        tmp_path, "rate_vs_n", ["--set", "n_max=400", "--set", "n_points=9"])
    rows = [line.split(",") for line in text.splitlines()[1:]]
    gap_first = abs(float(rows[0][1]) - float(rows[0][4]))
    gap_last = abs(float(rows[-1][1]) - float(rows[-1][4]))
    assert gap_last < gap_first / 10


def test_scheme_comparison_ordering_at_zero_error(tmp_path):
    text = run_sweep(tmp_path, "scheme_comparison")
    rows = {float(r.split(",")[0]): r.split(",") for r in text.splitlines()[1:]}
    zero = rows[0.0]
    anoma, noma, oma = float(zero[1]), float(zero[3]), float(zero[4])
    assert anoma > noma > oma


def test_loss_heatmap_minimum_at_origin(tmp_path):
    text = run_sweep(tmp_path, "loss_heatmap")
    gammas = {}
    for line in text.splitlines()[1:]:
        e1, e2, g = (float(v) for v in line.split(","))
        gammas[(e1, e2)] = g
    assert gammas[(0.0, 0.0)] == 0.0
    assert all(g >= 0.0 for g in gammas.values())


def test_inadmissible_sweep_point_is_named(tmp_path, capsys):
    # at tau = 0.1 the corner eps1 = eps2 = -0.1 puts eps1 + eps2 below -tau
    code = main(["sweep", "loss_heatmap", "--set", "tau=0.1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "outside [-tau, 1-tau] for tau=0.1" in err
    assert "at (eps1, eps2) = (-0.1, -0.1)" in err


def test_config_file_applies_and_flags_win(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"n_max": 10, "n_points": 3, "mu2": 1.0}),
                   encoding="utf-8")
    out = tmp_path / "x.csv"
    code = main(["sweep", "rate_vs_n", "--config", str(cfg),
                 "--set", "n_points=4", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) <= 4
    # mu2 = 1 from the file: noma column is log2(3)
    assert math.isclose(float(rows[0][3]), math.log2(3.0), rel_tol=1e-12)


def test_unknown_figure_is_usage_error(capsys):
    assert main(["sweep", "nonexistent_figure"]) == EXIT_USAGE
    assert "figure_id" in capsys.readouterr().err


def test_unknown_field_is_usage_error(capsys):
    code = main(["sweep", "rate_vs_n", "--set", "bogus_field=1"])
    assert code == EXIT_USAGE
    assert "bogus_field" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_field": 1}), encoding="utf-8")
    code = main(["sweep", "rate_vs_n", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "not_a_field" in capsys.readouterr().err


def test_unwritable_path_is_io_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["sweep", "rate_vs_n", *FAST_OVERRIDES["rate_vs_n"],
                 "--out", str(target)])
    assert code == EXIT_IO


def test_validate_routes_passes(capsys):
    assert main(["validate", "routes"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "routes.agreement_n_le_50" in out
    assert "verdict=PASS" in out
    assert "verdict=FAIL" not in out


def test_validate_prints_every_check_then_the_count(monkeypatch, capsys):
    # a failing check is printed in its suite's order and fails the run
    first = validate.CheckResult("fake.first", 1.0, 2.0, True)
    bad = validate.CheckResult("fake.bad", 3.0, 2.0, False, detail="over")
    last = validate.CheckResult("fake.last", 0.0, 0.0, True)
    monkeypatch.setitem(validate.SUITES, "timing",
                        (lambda: [first, bad], lambda: [last]))
    assert main(["validate", "timing"]) == EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines() == [
        first.line(), bad.line(), last.line(), "2/3 checks passed"]


def test_validate_unknown_suite(capsys):
    assert main(["validate", "everything"]) == EXIT_USAGE
    assert "suite" in capsys.readouterr().err


def test_query_default_point(capsys):
    assert main(["query"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out.count("\n") == 0  # single line
    fields = dict(kv.split("=") for kv in out.split())
    assert math.isclose(float(fields["delta"]), 0.0, abs_tol=0.0)
    assert float(fields["gamma"]) == 0.0
    assert math.isclose(float(fields["anoma_matrix"]),
                        float(fields["anoma_closed"]), rel_tol=1e-11)


def test_query_tau0_collapses_to_noma(capsys):
    assert main(["query", "--set", "tau=0"]) == EXIT_OK
    fields = dict(kv.split("=") for kv in
                  capsys.readouterr().out.strip().split())
    assert fields["noma"] == fields["anoma_closed"]


def test_query_linear_loss_agrees_at_small_offset(capsys):
    assert main(["query", "--set", "eps1=0.01"]) == EXIT_OK
    fields = dict(kv.split("=") for kv in
                  capsys.readouterr().out.strip().split())
    delta = float(fields["delta"])
    lin = float(fields["delta_lin_sync"])
    assert abs(lin - delta) / delta <= 0.1


@pytest.mark.parametrize("sets,rate", [
    # the log-det rate is exactly 0.0 here, with and without the slopes
    (["mu1=1e-18", "mu2=1e-18", "n=1", "tau=0"], "0"),
    (["mu1=1e-18", "mu2=1e-18", "n=1", "tau=0.001"], "0"),
    # and a negative rounding residue here
    (["mu1=1e-300", "mu2=1e-300", "n=10", "tau=0"], "-3.63797880709e-13"),
])
def test_query_without_a_positive_rate_is_usage_error(capsys, sets, rate):
    assert main(["query", *(t for s in sets for t in ("--set", s))]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: loss ratio undefined: no-error throughput "
                            f"is {rate}, not positive (raise the gains)\n")


def test_query_at_a_gain_past_the_squared_overflow(capsys):
    # s = 1 + mu1 + mu2 squared overflows; the asymptote is still finite
    assert main(["query", "--set", "mu1=1e200", "--set", "mu2=1e-5",
                 "--set", "n=3", "--set", "tau=0.4"]) == EXIT_OK
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert math.isfinite(float(fields["asymptotic"]))
    assert float(fields["asymptotic"]) >= float(fields["anoma_matrix"])


def test_query_subnormal_gain_is_usage_error(capsys):
    assert main(["query", "--set", "mu1=1e-310"]) == EXIT_USAGE
    assert "mu1" in capsys.readouterr().err


def test_query_invalid_point_is_usage_error(capsys):
    assert main(["query", "--set", "tau=1.5"]) == EXIT_USAGE


def test_query_cancelled_tau0_pivot_is_usage_error(capsys):
    assert main(["query", "--set", "mu1=1e300", "--set", "mu2=1e300",
                 "--set", "tau=0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "machine epsilon" in captured.err and "tau=0.0" in captured.err


def test_sweep_cancelled_tau0_pivot_writes_no_csv(tmp_path, capsys):
    out = tmp_path / "rate_vs_n.csv"
    assert main(["sweep", "rate_vs_n", *FAST_OVERRIDES["rate_vs_n"],
                 "--set", "tau_values=[0.0]", "--set", "mu1=1e17",
                 "--set", "mu2=1e17", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "machine epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["query", "--set", "n=1.5"], "n"),
    (["query", "--set", "n=true"], "n"),
    (["query", "--set", "n=abc"], "n"),
    (["query", "--set", 'tau="0.3"'], "tau"),
    (["query", "--set", "tau=true"], "tau"),
    (["query", "--set", "tau=null"], "tau"),
    (["query", "--set", "mu1=[1.0]"], "mu1"),
    (["query", "--set", "mu1=" + "9" * 400], "mu1"),  # an int past floats
    (["sweep", "tau_star_vs_n", "--set", "n_values=[1.9, 2]"], "n_values"),
    (["sweep", "tau_star_vs_n", "--set", "n_values=5"], "n_values"),
    (["sweep", "tau_star_vs_n", "--set", "gains=[[1]]"], "gains"),
    (["sweep", "tau_star_vs_n", "--set", 'grid_resolution="x"'], "grid_resolution"),
    (["sweep", "loss_heatmap", "--set", "eps_step=NaN"], "eps_step"),
    (["sweep", "loss_heatmap", "--set", "eps_max=Infinity"], "eps_max"),
    (["sweep", "rate_vs_gain", "--set", "h2_sq_values=[-1]"], "h2_sq_values"),
    (["sweep", "rate_vs_gain", "--set", "h1_sq_min=-1"], "h1_sq_min"),
    (["sweep", "power_surface", "--set", "h1_sq=-1"], "h1_sq"),
    (["sweep", "power_surface", "--set", "h2_sq=-1"], "h2_sq"),
])
def test_malformed_value_is_usage_error(tmp_path, capsys, argv, field):
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] == "sweep" else []
    assert main(argv + extra) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be ")
    assert not out.exists()


@pytest.mark.parametrize("sets", [
    ["eps_max=1e300"],
    # eps_min / eps_step overflows to inf on an empty span
    ["eps_min=1e300", "eps_max=1e300", "eps_step=1e-10"],
])
def test_grid_beyond_array_size_is_usage_error(tmp_path, capsys, sets):
    # a grid numpy cannot index names its keys, not a traceback
    out = tmp_path / "out.csv"
    argv = ["sweep", "loss_heatmap", *(t for s in sets for t in ("--set", s))]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps_min, eps_max and eps_step ")
    assert not out.exists()


@pytest.mark.parametrize("figure,sets,column", [
    ("loss_slices", ["eps_min=1e-12", "eps_max=0.01"], "eps"),
    ("power_surface", ["p_min=1e-12"], "p1"),
])
def test_grid_starts_at_a_tiny_positive_lo(tmp_path, figure, sets, column):
    # 1e-12 is a whole multiple of the step to within 1e-9 steps, but 0,
    # the multiple, is not within 1e-9 |lo| of it: the grid is anchored
    # at lo, not moved to 0 (outside the range, and not a positive power)
    out = tmp_path / "out.csv"
    argv = ["sweep", figure, *(t for s in sets for t in ("--set", s))]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    header, first = out.read_text(encoding="utf-8").splitlines()[:2]
    assert first.split(",")[header.split(",").index(column)] == "1e-12"


def test_anchored_grid_never_passes_hi(tmp_path):
    # (0.01 - 1e-12) / 0.005 is 2 less 2e-10 steps: inside the 1e-9-step
    # slack, so the third point lands on hi, not 1e-12 past it
    grid = cli._axis({"lo": 1e-12, "hi": 0.01, "step": 0.005},
                     "lo", "hi", "step", columns=1)
    assert len(grid) == 3
    assert np.all((grid >= 1e-12) & (grid <= 0.01)) and grid[-1] == 0.01
    out = tmp_path / "out.csv"
    assert main(["sweep", "loss_slices", "--set", "eps_min=1e-12",
                 "--set", "eps_max=0.01", "--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines()[-1].startswith("0.01,")


def test_tau_grid_beyond_array_size_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", "tau_star_vs_n", "--set", "grid_resolution=1e-300",
                 "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid_resolution 1e-300 ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["query", "--set", "n=1e20"],
    ["sweep", "tau_star_vs_n", "--set", "n_values=[10, 1e20]"],
    ["sweep", "rate_vs_n", "--set", "n_min=1e20", "--set", "n_max=1e20",
     "--set", "n_points=1"],
    ["sweep", "rate_vs_n", "--set", "n_min=1e19", "--set", "n_max=1e20"],
])
def test_frame_length_beyond_int64_is_usage_error(tmp_path, capsys, argv):
    # FrameConfig refuses n before any route allocates O(n) memory; the
    # message carries the value itself, not an int64 wrap of it
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] == "sweep" else []
    assert main(argv + extra) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: frame length n must be an int in "
                                   "[1, 9223372036854775807], got 1000000000")
    assert not out.exists()


# the child caps its own address space at 3 GiB, so no allocation of an
# O(n) array can reach the machine's memory whatever the kernel's
# overcommit policy; one BLAS thread keeps the cap above its buffers.
# The byte budget refuses the frame before any such allocation
OUT_OF_MEMORY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from anoma.cli import main
sys.exit(main(["query", "--set", "n=1e15"]))
"""


# the sweeps that evaluate a grid in batched calls, at about 10,000
# rows: rate_vs_gain and rate_vs_n, a log-det call per point, are
# counted the same way but take seconds under tracemalloc
BUDGET_SWEEPS = {
    "power_surface": ["p_step=0.01"],
    "loss_heatmap": ["eps_step=0.002"],
    "loss_slices": ["eps_step=0.00002"],
    "scheme_comparison": ["eps_step=0.00008"],
}


@pytest.mark.parametrize("figure", sorted(BUDGET_SWEEPS))
def test_sweep_budget_is_the_measured_peak(tmp_path, monkeypatch, figure):
    # what a sweep asks of MAX_BYTES for its grid covers the traced peak
    # of the whole command, and is at most twice it
    asked = []
    monkeypatch.setattr(cli, "_require_bytes",
                        lambda what, n_bytes: asked.append(n_bytes))
    argv = ["sweep", figure, "--out", str(tmp_path / "x.csv")]
    for entry in BUDGET_SWEEPS[figure]:
        argv += ["--set", entry]
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= max(asked) <= 2 * peak, (peak, asked)


def test_gain_sweep_budget_counts_every_h2_column(tmp_path, capsys):
    # 950,001 h1 points fit at one cell each (122 MB), not at the ten
    # cells of three h2 values (1.2 GB)
    code = main(["sweep", "rate_vs_gain", "--set", "h1_sq_step=2e-6",
                 "--set", "h2_sq_values=[0.5,1.0,2.0]",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: h1_sq_min, h1_sq_max and h1_sq_step span "
                          "950001^1 grid points, which needs about 1.22e+09 ")
    assert not (tmp_path / "x.csv").exists()


def test_memory_error_past_the_budget_is_usage_error(monkeypatch, capsys):
    # the budget is an estimate; an allocation it did not foresee still
    # ends in exit 2, not a traceback
    def allocate(link, frame):
        raise MemoryError("Unable to allocate 46.0 TiB")

    monkeypatch.setattr(cli, "throughput_report", allocate)
    assert main(["query"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: out of memory: Unable to allocate 46.0 TiB")


def test_frame_length_beyond_memory_is_usage_error():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY_CHILD],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: frame length n = 1000000000000000 needs about ")
    assert f"MAX_BYTES = {MAX_BYTES}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "out of memory" not in proc.stderr


def test_whole_float_is_the_int_it_names(capsys):
    assert query_line(capsys, "n=1e1", "eps1=0.01") == query_line(
        capsys, "n=10", "eps1=0.01")


def query_line(capsys, *sets):
    assert main(["query", *(tok for s in sets for tok in ("--set", s))]) == EXIT_OK
    return capsys.readouterr().out


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_starts_every_call_from_its_defaults(capsys):
    assert "n=5 " in query_line(capsys, "n=5")
    assert "n=10 " in query_line(capsys)


def test_reused_parser_survives_a_usage_exit(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
    assert query_line(capsys, "eps1=0.01").startswith("mu1=1 ")


def test_reused_parser_prints_identical_bytes(capsys):
    first = query_line(capsys, "n=7", "eps2=-0.02")
    assert query_line(capsys, "n=7", "eps2=-0.02") == first


# sha256 of each default sweep CSV; a change that moves a cell updates
# its hash here and names the cell
DEFAULT_CSV_SHA256 = {
    "rate_vs_gain": "b5d0b18cb2be7d49c59cc2bb562a5ad6e2df175c3612d626ba29afdf8d1e3f05",
    "rate_vs_n": "c4faed87059e1169c7dd63bfd5fb584f6c081b3a7095aa8c5a1b8c712a6c5c78",
    "power_surface": "8e9a9883071e9a6673d6aabc29dc863e3773723159d2ccb91ae1d30de4cb49d8",
    "tau_star_vs_n": "080aefc0c123e52453d6922536dc3e3b9ef0b54e06051c16a39a405432eca8e0",
    "loss_heatmap": "4e6310fb3d4e1ccdfd827f79ff935d83fe32f468c388dd59d8b07d969db25546",
    "loss_slices": "95e942c3b8bb2b4cb091f0f09877872132186979553ea860b7afddb1495ca61b",
    "scheme_comparison": "3b33c3f241c0e55d796f94c584ee8ca87fb2016f9ccdcf3492d99da81df0f4cb",
}

# sha256 of one non-default tau_star_vs_n sweep: a gain at 1e300, rows
# clipped at tau = 0, and zooms of five rounds (res 5e-3)
TAU_STAR_SETS = ("gains=[[1.0, 0.5], [1e300, 0.03], [0.02, 30.0]]",
                 "n_values=[1, 2, 3, 7, 40, 1000, 100000]",
                 "grid_resolution=5e-3")
TAU_STAR_SHA256 = "88caa56f474770429469947ef9c8634f2e297e24c8c699938542698d193798fb"

QUERY_LINES = {
    ("tau=0",): (
        "mu1=1 mu2=0.5 tau=0 n=10 eps1=0 eps2=0 anoma_matrix=1.32192809489 "
        "anoma_closed=1.32192809489 anoma_recursion=1.32192809489 "
        "anoma_n_plus_1=1.20175281353 noma=1.32192809489 oma=0.792481250361 "
        "asymptotic=1.32192809489 exact_throughput_with_error=1.32192809489 "
        "delta=0 delta_lin_sync=nan delta_lin_coord=nan c1=nan c2=nan "
        "gamma=0\n"),
    ("tau=0", "n=300", "eps2=0.05"): (
        "mu1=1 mu2=0.5 tau=0 n=300 eps1=0 eps2=0.05 "
        "anoma_matrix=1.32192809489 anoma_closed=1.32192809489 "
        "anoma_recursion=1.32192809489 anoma_n_plus_1=1.3175363072 "
        "noma=1.32192809489 oma=0.792481250361 asymptotic=1.32192809489 "
        "exact_throughput_with_error=1.32192809489 delta=1.53210777398e-13 "
        "delta_lin_sync=nan delta_lin_coord=nan c1=nan c2=nan "
        "gamma=1.15899478944e-13\n"),
    (): ("mu1=1 mu2=0.5 tau=0.5 n=10 eps1=0 eps2=0 anoma_matrix=1.39349260628 "
         "anoma_closed=1.39349260628 anoma_recursion=1.39349260628 "
         "anoma_n_plus_1=1.33015203326 noma=1.32192809489 oma=0.792481250361 "
         "asymptotic=1.45644156317 exact_throughput_with_error=1.39349260628 "
         "delta=0 delta_lin_sync=0 delta_lin_coord=0 c1=2.39429863612 "
         "c2=0.957719454446 gamma=0\n"),
    ("n=300", "tau=0.4", "eps1=0.03", "eps2=-0.05"): (
        "mu1=1 mu2=0.5 tau=0.4 n=300 eps1=0.03 eps2=-0.05 "
        "anoma_matrix=1.44961583479 anoma_closed=1.44961583479 "
        "anoma_recursion=1.44961583479 anoma_n_plus_1=1.44672623512 "
        "noma=1.32192809489 oma=0.792481250361 asymptotic=1.45140072728 "
        "exact_throughput_with_error=1.38560974359 delta=0.0640060911962 "
        "delta_lin_sync=0.0757078864801 delta_lin_coord=0.0504719243201 "
        "c1=2.523596216 c2=1.0094384864 gamma=0.0441538300425\n"),
}


@pytest.mark.parametrize("figure", sorted(DEFAULT_CSV_SHA256))
def test_default_sweep_bytes_are_pinned(tmp_path, capsys, figure):
    out = tmp_path / f"{figure}.csv"
    assert main(["sweep", figure, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CSV_SHA256[figure]


def test_non_default_tau_star_bytes_are_pinned(tmp_path):
    out = tmp_path / "tau_star.csv"
    sets = [tok for s in TAU_STAR_SETS for tok in ("--set", s)]
    assert main(["sweep", "tau_star_vs_n", *sets, "--out", str(out)]) == EXIT_OK
    rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TAU_STAR_SHA256


@pytest.mark.parametrize("sets", sorted(QUERY_LINES))
def test_query_line_is_pinned(capsys, sets):
    assert query_line(capsys, *sets) == QUERY_LINES[sets]


def query_gains():
    """Log-uniform over the whole gain range, or over [1e-25, 1e3], where
    the rate runs from rounding residue up to ordinary values."""
    return st.one_of(st.floats(-300.0, 300.0), st.floats(-25.0, 3.0)).map(
        lambda e: 10.0 ** e)


@st.composite
def query_points(draw):
    """--set tokens for one query: gains, tau, n and an admissible error
    pair (eps1 in [tau - 1, tau], eps1 + eps2 in [-tau, 1 - tau]), (0, 0)
    included."""
    tau = draw(st.one_of(st.sampled_from([0.0, 1e-9, 0.001]),
                         st.floats(0.0, 1.0, exclude_max=True)))
    if draw(st.booleans()):
        e1 = e2 = 0.0
    else:
        e1 = tau - 1.0 + draw(st.floats(0.0, 1.0))
        e2 = draw(st.floats(0.0, 1.0)) - tau - e1
    keys = {"mu1": draw(query_gains()), "mu2": draw(query_gains()),
            "n": draw(st.sampled_from([1, 2, 3, 5, 10, 50])), "tau": tau,
            "eps1": e1, "eps2": e2}
    return [tok for k, v in keys.items() for tok in ("--set", f"{k}={v!r}")]


@settings(max_examples=150, deadline=None)
@given(query_points())
@example(["--set", "mu1=1e-18", "--set", "mu2=1e-18", "--set", "n=1",
          "--set", "tau=0.0", "--set", "eps1=0.0", "--set", "eps2=0.0"])
def test_query_prints_one_line_or_exits_2(argv):
    # an exception escaping main fails the test by itself
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["query", *argv])
    assert code in (EXIT_OK, EXIT_USAGE)
    assert out.getvalue().count("\n") == (code == EXIT_OK)
    assert err.getvalue().startswith("error: ") == (code == EXIT_USAGE)


# the bad values tests/test_inputs.py passes to the library, as --set
# values: JSON, or a bare word that stays a string
SET_VALUES = ["NaN", "Infinity", "-Infinity", "0", "0.0", "-1", "-0.5",
              "1e300", "-1e300", "1e-300", "true", "false", '"x"', '""', "x",
              "null", "[[1.0], [1.0, 2.0]]", "[[0.5]]", "[0.5, 1.0]", "[]",
              str(10 ** 400), str(-10 ** 400), str(2 ** 62)]


@st.composite
def figure_sets(draw):
    """A figure and --set tokens for one to three of its keys, each from
    SET_VALUES, after the figure's FAST_OVERRIDES."""
    figure = draw(st.sampled_from(sorted(cli.FIGURES)))
    keys = draw(st.lists(st.sampled_from(sorted(cli.FIGURES[figure][1])),
                         min_size=1, max_size=3, unique=True))
    sets = [f"{k}={draw(st.sampled_from(SET_VALUES))}" for k in keys]
    return figure, [tok for s in sets for tok in ("--set", s)]


@settings(max_examples=150, deadline=None)
@given(figure_sets())
@example(("rate_vs_n", ["--set", "n_max=1e300"]))
@example(("loss_heatmap", ["--set", "eps_step=1e-300"]))
@example(("tau_star_vs_n", ["--set", "n_values=[4611686018427387904]"]))
def test_sweep_exits_0_2_or_3_without_a_traceback(figure_argv):
    # an exception escaping main fails the test by itself
    figure, argv = figure_argv
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["sweep", figure, *FAST_OVERRIDES[figure], *argv,
                     "--out", os.devnull])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)
    assert err.getvalue().startswith("error: ") == (code == EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
