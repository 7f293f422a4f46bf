"""Benchmark of the anoma toolkit, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  A run warms up with the first op, then runs passes of seeded
ops (see ``workloads.py``), one op after another.  The number of passes
is ``--seconds`` over the workload's nominal pass time, a constant, so
that every commit runs the same ops and each percentile below is taken
at the same rank.  Every op's output is checked against an independent
route outside the timed region.  ``ANOMA_THREADS`` is cleared, so the
program's default thread pool is what gets measured.

``--trace 0`` reports the end-to-end metrics:

* setup_s     -- fresh interpreter to first completed op: the median of
                 SETUP_REPEATS probes spread evenly between the passes;
* wall_s      -- wall time of one pass (median over passes);
* cpu_s       -- process user+sys CPU time of one pass (median);
* op_s_p50    -- median op latency;
* op_s_tail   -- latency at the highest percentile with at least ten
                 samples beyond it (percentile and count are printed);
* peak_rss_mb -- peak resident memory of the process that ran the passes;
* failed_frac -- failed ops over attempted ops.  It is printed, and is
                 the result line's failed/attempted, but it is no bounded
                 metric, since it is 0 on most workloads.

``--trace 1`` runs half the passes untraced, then as many traced passes
(see ``tracer.py``), and reports per-pass calls, total_s, self_s and
failed of every wrapped function, plus bands.dense_bytes and
trace.overhead_s (traced minus untraced pass wall time).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
``correct`` is false when a check could not be carried out, so that an
output went unverified; ops whose output failed its check are counted in
``failed``.  Details, including the machine and settings, go to
``.bench_out/result_<workload>_<seed>_<trace>.json`` and traced spans to
``.bench_out/spans_<workload>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
PROBE_DONE = "first-op-done"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB"}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(p, value): the highest integer percentile p whose nearest-rank
    value has at least TAIL_BEYOND samples above its rank; None when
    there are too few samples for any percentile."""
    n = len(samples)
    p = (100 * (n - TAIL_BEYOND)) // n if n else 0
    if p < 1:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def import_program():
    """Import anoma from this checkout's src/ and nowhere else."""
    if not (SRC / "anoma" / "__init__.py").is_file():
        raise ImportError(f"no anoma package under {SRC}")
    sys.path.insert(0, str(SRC))
    import anoma
    if Path(anoma.__file__).resolve().parent != SRC / "anoma":
        raise ImportError(f"anoma imported from {anoma.__file__}, not {SRC}")
    return anoma


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def pass_count(name: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes: the workload's nominal pass
    time fixes it, so every commit runs the same ops, however fast."""
    import workloads
    wl = workloads.WORKLOADS[name]
    per_pass = len(workloads.make_ops(name, 0))
    return max(MIN_PASSES, math.ceil((TAIL_BEYOND + 1) / per_pass),
               round(seconds / wl.pass_s))


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)


class Run:
    """The passes of one workload run and the outcome of every op."""

    def __init__(self, name: str, seed: int, tracer=None) -> None:
        import workloads
        self.name, self.seed, self.tracer = name, seed, tracer
        self.wl = workloads.WORKLOADS[name]
        self.make_ops = workloads.make_ops
        self.out_path = OUT / f"op_{name}.csv"
        self.passes: list[Pass] = []
        self.attempted = self.failed = self.unverified = 0
        self.reasons: dict[str, int] = {}

    def op(self, spec: dict, count: bool = True) -> tuple[float, float]:
        """Run one op, check it, and return its wall and CPU time."""
        tracing = self.tracer is not None
        error = None
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            if tracing:
                self.tracer.active = True
                with self.tracer.op_span():
                    result = self.wl.run(spec, self.out_path)
            else:
                result = self.wl.run(spec, self.out_path)
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        finally:
            latency = time.perf_counter() - t0
            cpu = _cpu_s() - c0
            if tracing:
                self.tracer.active = False
        unverified = False
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                reason = self.wl.check(spec, result, self.out_path)
            except Exception as exc:  # the output could not be checked
                unverified = True
                reason = f"check raised {type(exc).__name__}: {exc}"
        if count:
            self.attempted += 1
            self.unverified += unverified
            if reason:
                self.failed += 1
                self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return latency, cpu

    def run_pass(self, index: int) -> None:
        p = Pass()
        for spec in self.make_ops(self.name, self.seed, index):
            latency, cpu = self.op(spec)
            p.latencies.append(latency)
            p.cpu.append(cpu)
        self.passes.append(p)


def median_wall(passes: list[Pass]) -> float:
    return statistics.median(sum(p.latencies) for p in passes)


def setup_time(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to its first op done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or line != PROBE_DONE:
        raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    import_program()
    import workloads
    wl = workloads.WORKLOADS[workload]
    out_path = OUT / f"probe_{workload}.csv"
    wl.run(workloads.make_ops(workload, seed)[0], out_path)
    print(PROBE_DONE, flush=True)
    return 0


def machine(seed: int, threads_env: str | None) -> dict:
    import numpy
    import scipy
    git_sha = None
    if (ROOT / ".git").exists():  # never look into a repository above ROOT
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "anoma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "git_sha": git_sha,
            "src_sha256": digest.hexdigest(), "seed": seed,
            "ANOMA_THREADS": "unset" if threads_env is None
            else f"unset (caller had {threads_env!r})"}


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    latencies = [x for p in run.passes for x in p.latencies]
    tail = tail_percentile(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": setup_s,
              "wall_s": median_wall(run.passes),
              "cpu_s": statistics.median(sum(p.cpu) for p in run.passes),
              "op_s_p50": statistics.median(latencies),
              "op_s_tail": tail[1],
              "peak_rss_mb": rss_kb / 1024.0}
    notes = {"op_s_tail": f"p{tail[0]}, {len(latencies)} samples, "
                          f"at least {TAIL_BEYOND} beyond"}
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads_env = os.environ.pop("ANOMA_THREADS", None)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    first_op = workloads.make_ops(args.workload, args.seed)[0]
    info = machine(args.seed, threads_env)
    n_passes = pass_count(args.workload, args.seconds)
    notes: dict[str, str] = {}
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        untraced = Run(args.workload, args.seed)
        untraced.op(first_op, count=False)  # warm caches and lazy imports
        half = max(1, n_passes // 2)
        for i in range(half):
            untraced.run_pass(i)
        traced = Run(args.workload, args.seed, tracer)
        tracer.install()
        try:
            for i in range(half, 2 * half):
                traced.run_pass(i)
        finally:
            tracer.uninstall()
        tracer.save(OUT / f"spans_{args.workload}.npz")
        metrics = tracer.layer_metrics(half)
        metrics["trace.overhead_s"] = (median_wall(traced.passes)
                                       - median_wall(untraced.passes))
        units = tracing.metric_units()
        runs = (untraced, traced)
    else:
        run = Run(args.workload, args.seed)
        run.op(first_op, count=False)  # warm caches and lazy imports
        setup = []
        for i in range(n_passes):
            run.run_pass(i)
            while len(setup) < SETUP_REPEATS * (i + 1) // n_passes:
                setup.append(setup_time(args.workload, args.seed))
        metrics, notes = end_to_end(run, statistics.median(setup))
        units = END_TO_END_UNITS
        runs = (run,)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    reasons: dict[str, int] = {}
    for r in runs:
        for key, count in r.reasons.items():
            reasons[key] = reasons.get(key, 0) + count
    passes = [p for r in runs for p in r.passes]
    result = {"correct": not any(r.unverified for r in runs),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}

    print(f"# machine: {' '.join(f'{k}={v}' for k, v in info.items())}")
    print(f"# {args.workload}: {len(passes)} passes, "
          f"{attempted} ops attempted, {failed} failed")
    for key, count in sorted(reasons.items()):
        print(f"#   {count} x {key}")
    for key in units:
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {metrics[key]:.6g} {units[key]}{note}")
    print(f"failed_frac {failed / attempted:.6g} frac  ({failed}/{attempted})")
    detail = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, machine=info, notes=notes,
                  failure_reasons=reasons,
                  pass_wall_s=[sum(p.latencies) for p in passes])
    path = OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
