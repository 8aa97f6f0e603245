"""Closed-loop benchmark of welloop: one workload per run, metrics as JSON.

    python3 loopbench/run.py --workload design-search --seed 1 --seconds 20 --trace 0

Run from the repository root. welloop is imported from ./src, so nothing
needs installing. A run sets the workload up several times (the last
set-up is kept), then repeats timed passes until --seconds have gone by
(two at least), then checks the outputs off the clock. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics with tracing off; their times
are rescaled to the reference host speed (hostspeed.py), and the wall
times they came from are printed above the JSON line. --trace 1 runs
one warm-up pass, then alternates untraced and traced passes and
reports the per-layer metrics in wall seconds (medians over traced
passes), the tracing overhead and how much of the traced pass the
layers' self times account for; its spans are written to
.loopbench/spans/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (3, 10)  # at least 3 set-ups, more while under SETUP_SECONDS
SETUP_SECONDS = 6.0
MIN_PASSES = 2  # two passes with one seed must leave identical manifests

E2E_UNITS = {"setup_s": "s", "run_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_welloop():
    """Cap BLAS threads at the CPUs this process may use, then import the
    benchmark modules, which import welloop from ROOT/src."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "welloop" / "__init__.py").is_file():
        raise SystemExit(f"welloop sources not found under {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (imports welloop, numpy and scipy)

    return workloads


@dataclass
class Timed:
    """A run of operations: wall seconds, the same rescaled to the
    reference host speed, and the rescaled seconds per pipeline stage."""

    wall: float
    scaled: float
    stages: dict

    @property
    def fit(self) -> float:
        return self.stages.get("train", 0.0) + self.stages.get("stack", 0.0)


class Runner:
    """Set-up, passes and checks of one workload in this process."""

    def __init__(self, wl_module, workload, seed):
        import hostspeed
        import tracing

        self.hostspeed = hostspeed
        self.tracing = tracing
        self.w = wl_module
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".loopbench" / "work" / f"{workload.name}-{os.getpid()}"
        self.ctx = None
        self.attempted = 0
        self.last_op = ""
        self.failed_ops: list[str] = []
        self.problems: list[str] = []
        self.manifests: list[bytes] = []
        self.probes: list[float] = [hostspeed.probe(workload.probe)]
        self.timer = tracing.StageTimer()
        self.patches = tracing.Patches()
        self.timer.install(self.patches, tracing.STAGES)
        self.patches.attr("welloop.cli:shap_interactions", self._tap_interactions)

    def _tap_interactions(self, fn):
        def tapped(*args, **kwargs):
            self.ctx.interactions = fn(*args, **kwargs)
            return self.ctx.interactions

        return tapped

    def _ops(self, ops, label) -> Timed:
        """Run ops back to back, a host-speed probe after each. Exit codes
        and manifest stage statuses are read between ops, off the clock."""
        wall = scaled = 0.0
        stages = defaultdict(float)
        for op in ops:
            self.attempted += 1
            self.last_op = f"{label} {op.command}"
            self.timer.take()
            start = time.perf_counter()
            try:
                code = self.w.invoke(self.ctx, op)
            except Exception:  # an escaped exception is a failed operation
                code = traceback.format_exc()
            took = time.perf_counter() - start
            op_stages = self.timer.take()
            self.probes.append(self.hostspeed.probe(self.workload.probe))
            factor = self.hostspeed.factor(self.workload.probe, *self.probes[-2:])
            wall += took
            scaled += took * factor
            for stage, seconds in op_stages.items():
                stages[stage] += seconds * factor

            problems = [f"exit {code}"] if code != 0 else []
            try:
                problems += self.w.checks.stages(self.ctx.out, op.expect_ok)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"no readable manifest: {exc!r}")
            if problems:
                self.failed_ops.append(self.last_op)
                self.problems += [f"{self.last_op}: {p}" for p in problems]
        return Timed(wall, scaled, dict(stages))

    def setup(self) -> Timed:
        self.ctx = self.w.fresh_context(self.workload, self.seed, self.work)
        return self._ops(self.workload.setup_ops, "setup")

    def one_pass(self, number, tracer=None) -> Timed:
        patches = None
        if tracer is not None:
            patches = self.tracing.Patches()
            self.tracing.install_probes(patches, tracer, self.tracing.STAGES)
            self.missing_probes = len(patches.missing)
        try:
            timed = self._ops(self.workload.pass_ops, f"pass {number}")
        finally:
            if patches is not None:
                patches.undo()
        manifest = self.ctx.out / "manifest.json"
        self.manifests.append(manifest.read_bytes() if manifest.is_file() else b"")
        return timed

    def finish(self):
        """Off-clock checks of the outputs the last pass left (every pass
        left the same manifest); a problem fails that pass's last operation."""
        found = []
        if any(m != self.manifests[0] for m in self.manifests):
            found.append("passes with one seed left different manifests")
        try:
            found += self.w.checks.manifest(self.ctx.out) + self.workload.check(self.ctx)
        except Exception:  # a check that cannot read an output fails too
            found.append(traceback.format_exc())
        if found:
            self.failed_ops.append(self.last_op)
            self.problems += found
        self.patches.undo()

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def run_e2e(runner, seconds, import_s):
    setups = []
    fewest, most = SETUP_REPEATS
    while len(setups) < fewest or (
        len(setups) < most and sum(s.wall for s in setups) < SETUP_SECONDS
    ):
        setups.append(runner.setup())
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.one_pass(len(passes)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fits = setups if runner.workload.fit_in_setup else passes
    # import time is rescaled by the probe taken right after the imports
    reference = runner.hostspeed.TASKS[runner.workload.probe][1]
    import_scaled = import_s * reference / runner.probes[0]

    print(f"import: {import_s:.3f} s wall")
    print("set-ups (wall s):", " ".join(f"{s.wall:.3f}" for s in setups))
    print("passes (wall s):", " ".join(f"{p.wall:.3f}" for p in passes))
    print(f"host probe ({runner.workload.probe}): median"
          f" {statistics.median(runner.probes):.4f} s, reference {reference} s")
    return {
        "setup_s": import_scaled + statistics.median(s.scaled for s in setups),
        "run_s": statistics.median(p.scaled for p in passes),
        "fit_s": statistics.median(t.fit for t in fits),
        "peak_rss_mb": peak_mb,
    }


def _quality(out):
    """Holdout MSE of the model ICE and optimize interrogate (stacked when
    trained, else the first kind) and the summed EUR gain of the searches."""
    import csv

    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        test = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    final = next((r for r in test if r["model"] == "stacked"), test[0])
    uplift = 0.0
    comparison = out / "optimize" / "comparison.csv"
    if comparison.is_file():
        with open(comparison, newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                uplift += float(r["eur_optimized"]) - float(r["eur_original"])
    return {"quality.holdout_mse": float(final["mse"]), "quality.eur_uplift": uplift}


def run_traced(runner, seconds):
    """After one warm-up pass, alternate untraced and traced passes, at
    least two of each."""
    tracing = runner.tracing
    tracer = tracing.Tracer()
    runner.setup()
    runner.one_pass("warm-up")
    plain, traced, bounds, per_pass = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(runner.one_pass(len(plain) + len(traced)).wall)
        first = len(tracer.spans)
        traced.append(runner.one_pass(len(plain) + len(traced), tracer).wall)
        bounds.append((first, len(tracer.spans)))
        per_pass.append(
            tracing.layer_metrics(tracer.spans, first, len(tracer.spans))
            | tracing.artifact_metrics(runner.ctx.out)
        )
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in per_pass}) != 1:
            runner.problems.append(f"{name} differs between traced passes")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in tracing.LAYER_METRICS}
    run_s = statistics.median(traced)
    plain_s = statistics.median(plain)
    metrics["trace.run_s"] = run_s
    metrics["trace.untraced_run_s"] = plain_s
    metrics["trace.overhead_pct"] = 100.0 * (run_s - plain_s) / plain_s
    metrics["trace.self_sum_pct"] = 100.0 * statistics.median(
        m["_self_total_s"] / t for m, t in zip(per_pass, traced)
    )
    metrics["trace.missing_probes"] = runner.missing_probes
    reference = runner.hostspeed.TASKS[runner.workload.probe][1]
    metrics["host.speed"] = reference / statistics.median(runner.probes)
    metrics.update(_quality(runner.ctx.out))
    spans_dir = ROOT / ".loopbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{runner.workload.name}-seed{runner.seed}.jsonl", bounds)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        wl = _import_welloop()
    except ImportError as exc:
        print(f"cannot import the benchmark or welloop: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    runner = Runner(wl, workload, args.seed)
    try:
        if args.trace:
            values = run_traced(runner, args.seconds)
            specs = {**runner.tracing.LAYER_METRICS, **runner.tracing.TRACE_METRICS}
            units = {name: unit for name, (unit, _) in specs.items()}
        else:
            values = run_e2e(runner, args.seconds, import_s)
            units = E2E_UNITS
        runner.finish()
    finally:
        runner.cleanup()

    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(set(runner.failed_ops)),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
