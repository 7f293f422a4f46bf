"""Repeat the benchmark over seeds and record the result as BENCH_<label>.json.

    python3 bench/baseline.py --label LABEL

Runs ``bench/run.py`` once per workload and seed (seeds 1..SEEDS) with
tracing off, then once per workload with tracing on (seed 1), one run
at a time.  Writes ``bench/BENCH_<label>.json`` with, per workload, each
end-to-end metric's values, median, quartiles and spread (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), the failed fraction, and the traced per-layer metrics.  It
prints each spread next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" /
                         f"result_{workload}_{seed}_{trace}.json").read_text())
    return result, detail


def failure_reasons(runs: list[tuple[dict, dict]]) -> dict[str, int]:
    total: dict[str, int] = {}
    for _, detail in runs:
        for reason, count in detail["failure_reasons"].items():
            total[reason] = total.get(reason, 0) + count
    return total


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"label": args.label, "run_seconds": spec["run_seconds"],
           "seeds": list(range(1, SEEDS + 1)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(workload, seed, spec["run_seconds"], 0)
                for seed in out["seeds"]]
        out.setdefault("machine", {k: v for k, v in runs[0][1]["machine"].items()
                                   if k != "seed"})
        metrics = {name: summarize([r["metrics"][name]["value"] for r, _ in runs])
                   for name in bounds}
        traced, traced_detail = bench_run(workload, 1, spec["run_seconds"], 1)
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "tail_notes": [d["notes"]["op_s_tail"] for _, d in runs],
            "failure_reasons": failure_reasons(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_failure_reasons": traced_detail["failure_reasons"],
        }
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread"
            print(f"{workload:11s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound/3 {bounds[name] / 3:.4f})"
                  f"{flag}", flush=True)
        print(f"{workload:11s} failed_frac {failed}/{attempted}", flush=True)
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
