"""Steadiness of the benchmark: run each workload over several seeds.

    python3 loopbench/steady.py --seeds 1-10
    python3 loopbench/steady.py --workloads attribution --seeds 1-5 --trace 1

Each run is a fresh `python3 loopbench/run.py` process, one after another,
from the repository root. For every metric the report gives the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median. With --trace 0 it flags an end-to-end metric whose
spread exceeds a third of its bound in BENCHMARK.json; set-up time is
only reported. It exits 1 if a run failed or a spread was flagged. The
bounds and the run length were chosen from this report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    unsteady = failed = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls, bad = [], []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "loopbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            walls.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad.append(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                bad.append(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
                           f"/{result['attempted']}: {proc.stderr.strip()[-300:]}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}: {len(walls)} runs, wall per run median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s")
        for problem in bad:
            print(f"  FAILED {problem}")
        failed += len(bad)
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
                unsteady += 1
            print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {units[name]}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 1 if unsteady or failed else 0


if __name__ == "__main__":
    sys.exit(main())
