"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function in ``LAYER_FUNCTIONS``
with a wrapper, at every name it is bound under in the loaded ``anoma``
modules (``timing`` and ``cli`` import ``throughput_matrix`` directly,
for example), so calls between layers are seen as well as calls from the
benchmark.  ``uninstall`` puts the originals back.

A span records its name, start, end, thread, whether it failed, and the
span that caused it: the innermost open span on its own thread or, for a
thread with no open span (a ``cli`` pool worker), the innermost open span
of the main thread.  Spans stay in memory until ``save``.  A layer's self
time is its span time minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import math
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# (layer, module, function); the layer is the module's name, with
# ``bands`` for ``anoma._bands``
LAYER_FUNCTIONS = (
    ("cli", "anoma.cli", "main"),
    ("design", "anoma.design", "optimal_tau"),
    ("throughput", "anoma.throughput", "throughput_matrix"),
    ("throughput", "anoma.throughput", "throughput_closed"),
    ("throughput", "anoma.throughput", "throughput_recursion"),
    ("throughput", "anoma.throughput", "throughput_report"),
    ("timing", "anoma.timing", "throughput_with_error"),
    ("timing", "anoma.timing", "loss_ratio"),
    ("timing", "anoma.timing", "sync_loss_slope"),
    ("timing", "anoma.timing", "coord_loss_slope"),
    ("timing", "anoma.timing", "loss_breakdown"),
    ("timing", "anoma.timing", "throughput_loss_display"),
    ("model", "anoma.model", "build_correlation"),
    ("model", "anoma.model", "build_error_matrices"),
    ("bands", "anoma._bands", "cholesky_upper"),
    ("bands", "anoma._bands", "logdet2_sym_pd"),
    ("bands", "anoma._bands", "solve_sym_pd"),
    ("bands", "anoma._bands", "solve_general"),
    ("bands", "anoma._bands", "BandedMatrix.to_dense"),
    ("waveform", "anoma.waveform", "matched_filter_outputs"),
    ("waveform", "anoma.waveform", "model_outputs"),
    ("waveform", "anoma.waveform", "draw_colored_noise"),
    ("waveform", "anoma.waveform", "noise_covariance_mc"),
)
SPAN_NAMES = tuple(f"{layer}.{func.rsplit('.', 1)[-1]}"
                   for layer, _, func in LAYER_FUNCTIONS)
# (suffix, unit) of the four metrics of each span name
SPAN_METRICS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                ("failed", "count"))
# bands functions whose dense (2-D) results count towards bands.dense_bytes
_DENSE_RESULTS = {"bands.to_dense", "bands.solve_sym_pd", "bands.solve_general"}
OP_SPAN = "op"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{name}.{suffix}": unit
             for name in SPAN_NAMES for suffix, unit in SPAN_METRICS}
    units["bands.dense_bytes"] = "bytes_computed"
    units["trace.overhead_s"] = "s"
    return units


def _failed(name: str, out) -> bool:
    """A span fails if it raised (handled by the caller), exited non-zero,
    or returned a non-finite float, directly or in a result record."""
    if name == "cli.main":
        return out != 0
    if isinstance(out, float):
        return not math.isfinite(out)
    if dataclasses.is_dataclass(out):
        return any(isinstance(v, float) and not math.isfinite(v)
                   for v in (getattr(out, f.name) for f in dataclasses.fields(out)))
    return False


class _Buffer:
    """Spans recorded by one thread; a span's id is (thread, index)."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[int] = []
        self.name_id = array("h")
        self.parent_tid = array("h")
        self.parent_idx = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.failed = array("b")
        self.dense_bytes = 0

    def open(self, name_idx: int, main: "_Buffer") -> int:
        if self.stack:
            ptid, pidx = self.tid, self.stack[-1]
        elif main.stack:
            ptid, pidx = main.tid, main.stack[-1]
        else:
            ptid = pidx = -1
        idx = len(self.t0)
        self.name_id.append(name_idx)
        self.parent_tid.append(ptid)
        self.parent_idx.append(pidx)
        self.t1.append(math.nan)
        self.failed.append(0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.t1[idx] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.failed[idx] = 1


class Tracer:
    def __init__(self) -> None:
        self.names = (OP_SPAN,) + SPAN_NAMES
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    @contextlib.contextmanager
    def op_span(self):
        """One benchmark op, the root of the spans it causes."""
        buf = self._buffer()
        idx = buf.open(self.names.index(OP_SPAN), self._main)
        failed = True
        try:
            yield
            failed = False
        finally:
            buf.close(idx, failed)

    def _wrap(self, name: str, fn):
        name_idx = self.names.index(name)
        counts_dense = name in _DENSE_RESULTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            idx = buf.open(name_idx, tracer._main)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                buf.close(idx, True)
                raise
            buf.close(idx, _failed(name, out))
            if counts_dense and isinstance(out, np.ndarray) and out.ndim == 2:
                buf.dense_bytes += out.nbytes
            return out

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "anoma" or key.startswith("anoma.")]
        for name, (_, module_name, func) in zip(SPAN_NAMES, LAYER_FUNCTIONS):
            module = importlib.import_module(module_name)
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(module, func)
            wrapper = self._wrap(name, orig)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans, one thread's after another, with global parent ids."""
        offsets = np.cumsum([0] + [len(b.t0) for b in self._buffers])
        cols = {"name_id": [], "parent": [], "thread": [], "t0": [],
                "t1": [], "failed": []}
        for b in self._buffers:
            ptid = np.frombuffer(b.parent_tid, dtype=np.int16).astype(np.int64)
            pidx = np.frombuffer(b.parent_idx, dtype=np.int32)
            cols["parent"].append(np.where(ptid >= 0, offsets[ptid] + pidx, -1))
            cols["thread"].append(np.full(len(b.t0), b.tid, dtype=np.int16))
            cols["name_id"].append(np.frombuffer(b.name_id, dtype=np.int16))
            cols["t0"].append(np.frombuffer(b.t0, dtype=np.float64))
            cols["t1"].append(np.frombuffer(b.t1, dtype=np.float64))
            cols["failed"].append(np.frombuffer(b.failed, dtype=np.int8))
        return {k: np.concatenate(v) for k, v in cols.items()}

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, total_s, self_s and failed of every span name."""
        a = self.arrays()
        k = len(self.names)
        own = self_times(a["parent"], a["thread"], a["t0"], a["t1"])
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=a["t1"] - a["t0"], minlength=k)
        own = np.bincount(a["name_id"], weights=own, minlength=k)
        failed = np.bincount(a["name_id"], weights=a["failed"], minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] = calls[i] / passes
            out[f"{name}.total_s"] = total[i] / passes
            out[f"{name}.self_s"] = own[i] / passes
            out[f"{name}.failed"] = failed[i] / passes
        out["bands.dense_bytes"] = sum(b.dense_bytes for b in self._buffers) / passes
        return {key: float(v) for key, v in out.items()}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total, cur_s, cur_e = 0.0, -math.inf, -math.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if s > cur_e:
            total += cur_e - cur_s if cur_e > cur_s else 0.0
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e > cur_s else 0.0)


def self_times(parent: np.ndarray, thread: np.ndarray, t0: np.ndarray,
               t1: np.ndarray) -> np.ndarray:
    """Span time minus the part of it covered by child spans.

    Children on one thread nest and never overlap, so their durations
    add up; a parent whose children ran on several threads gets the
    length of the union of their intervals, clipped to its own.
    """
    dur = t1 - t0
    has_parent = parent >= 0
    if not has_parent.any():
        return dur
    kids_parent = parent[has_parent]
    covered = np.bincount(kids_parent, weights=dur[has_parent],
                          minlength=len(dur))
    pairs = np.unique(np.stack([kids_parent, thread[has_parent]]), axis=1)
    multi = np.unique(pairs[0][1:][pairs[0][1:] == pairs[0][:-1]])
    for p in multi.tolist():
        kids = np.nonzero(parent == p)[0]
        covered[p] = _union_length(np.clip(t0[kids], t0[p], t1[p]),
                                   np.clip(t1[kids], t0[p], t1[p]))
    return dur - covered
