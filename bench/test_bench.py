"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import anoma  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    def inputs(seed):
        return json.dumps([workloads.make_ops(name, seed, i)
                           for i in range(3)]).encode()
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert workloads.make_ops(name, 7, 1) != workloads.make_ops(name, 7, 2)


def test_tail_percentile_rule():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (9, 0)
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(100))) == (90, 89)
    assert run.tail_percentile(list(range(105))) == (90, 94)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    for n in range(11, 400):
        p, value = run.tail_percentile(list(range(n)))
        beyond = n - 1 - value
        assert beyond >= run.TAIL_BEYOND
        # one percentile higher leaves fewer than ten samples beyond
        assert n - math.ceil((p + 1) * n / 100) < run.TAIL_BEYOND


def test_pass_count_gives_long_frame_a_p90_tail():
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ops = run.pass_count("long_frame", seconds) * len(workloads.make_ops("long_frame", 0))
    assert ops >= 100
    assert run.tail_percentile([0.0] * ops)[0] >= 90
    for name in workloads.WORKLOADS:
        assert run.pass_count(name, 0.001) * len(workloads.make_ops(name, 0)) > run.TAIL_BEYOND


def _bump_corner_gamma(result, out_path: Path):
    with open(out_path, newline="") as f:
        rows = list(csv.reader(f))
    rows[-1][2] = repr(float(rows[-1][2]) * (1 + 1e-6))
    with open(out_path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return result


def _bump_display_loss(result, out_path: Path):
    rc, out, err, display = result
    return rc, out, err, display * (1 + 1e-6)


def _shift_tau_star(result, out_path: Path):
    with open(out_path, newline="") as f:
        rows = list(csv.reader(f))
    rows[-1][1] = repr(float(rows[-1][1]) + 0.05)
    with open(out_path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return result


def _bump_sample(result, out_path: Path):
    y1 = result.y1.copy()
    y1[0] += 1e-6
    return anoma.SampleVectors(y1, result.y2)


@pytest.mark.parametrize("name, corrupt", [
    ("loss_grid", _bump_corner_gamma),
    ("long_frame", _bump_display_loss),
    ("tau_search", _shift_tau_star),
    ("waveform", _bump_sample),
])
def test_corrupted_output_counts_as_failed_op(name, corrupt, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    spec = workloads.make_ops(name, 3)[0]

    honest = run.Run(name, 3)
    honest.op(spec)
    assert (honest.attempted, honest.failed, honest.unverified) == (1, 0, 0)

    corrupted = run.Run(name, 3)
    wl = corrupted.wl
    corrupted.wl = dataclasses.replace(
        wl, run=lambda s, path: corrupt(wl.run(s, path), path))
    corrupted.op(spec)
    assert (corrupted.attempted, corrupted.failed, corrupted.unverified) == (1, 1, 0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_self_time_takes_the_union_of_overlapping_children():
    # root [0, 10] on thread 0; children [1, 5] and [3, 8] on threads 1
    # and 2 overlap, so they cover 7 s; grandchild [1, 2] under the first
    parent = np.array([-1, 0, 0, 1])
    thread = np.array([0, 1, 2, 1])
    t0 = np.array([0.0, 1.0, 3.0, 1.0])
    t1 = np.array([10.0, 5.0, 8.0, 2.0])
    assert tracing.self_times(parent, thread, t0, t1).tolist() == [3.0, 3.0, 5.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_it():
    orig = anoma.throughput.throughput_matrix
    t = tracing.Tracer()
    t.install()
    try:
        wrapped = anoma.throughput.throughput_matrix
        assert wrapped is not orig
        assert anoma.timing.throughput_matrix is wrapped
        assert anoma.cli.throughput_matrix is wrapped
        assert anoma.throughput_matrix is wrapped
        t.active = True
        with t.op_span():
            anoma.timing.throughput_loss_display(
                anoma.LinkConfig.from_gains(1.0, 0.5), anoma.FrameConfig(4, 0.5),
                anoma.TimingError(0.02, -0.01))
        t.active = False
    finally:
        t.uninstall()
    assert anoma.timing.throughput_matrix is orig
    spans = t.arrays()
    names = [t.names[i] for i in spans["name_id"]]
    display = names.index("timing.throughput_loss_display")
    assert spans["parent"][display] == names.index("op")
    children = {names[i] for i in np.nonzero(spans["parent"] == display)[0]}
    assert {"bands.solve_general", "bands.to_dense",
            "model.build_error_matrices"} <= children
    metrics = t.layer_metrics(passes=1)
    assert metrics["timing.throughput_loss_display.calls"] == 1
    assert metrics["bands.dense_bytes"] > 0
