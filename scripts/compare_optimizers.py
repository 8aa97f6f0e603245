"""Race the three search methods on wells of a noiseless synthetic field.

Each optimizer re-designs the same wells' engineering parameters against
the known response surface under its own evaluation budget, so the only
differences are search strategy and budget. Each method searches all the
wells in one optimize_wells call, whose wall time it prints. Prints a
comparison table and, with --trace-dir, writes every evaluation to CSV
for plotting.

Usage:
    python3 scripts/compare_optimizers.py [--seed 11] [--budget 400] [--wells 1]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from welloop.data import ground_truth_eur, synthesize
from welloop.optimize import METHODS, optimize_wells


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rows", type=int, default=40)
    ap.add_argument("--row", type=int, default=None, help="well to redesign; default the worst producers")
    ap.add_argument("--wells", type=int, default=1, help="how many of the worst producers to redesign")
    ap.add_argument("--budget", type=int, default=400, help="evaluations for pso and de")
    ap.add_argument("--bayes-budget", type=int, default=120, help="evaluations for bayes; surrogate refits get cubic in history size")
    ap.add_argument("--trace-dir", default=None, help="write per-well, per-method evaluation traces here")
    args = ap.parse_args()

    table = synthesize(args.seed, n=args.rows, noise_sd=0.0)
    if args.row is not None:
        rows = [args.row]
    else:
        rows = [int(r) for r in np.argsort(table.target(), kind="stable")[: args.wells]]
    variables = [s.name for s in table.feature_specs if s.optimizable]
    print(f"wells {rows} of {table.n_rows}, {len(variables)} free parameters:")
    for name in variables:
        current = ", ".join(f"{table.column(name)[row]:.3f}" for row in rows)
        print(f"  {name:<28} currently {current}")

    budgets = {"pso": args.budget, "de": args.budget, "bayes": args.bayes_budget}
    results = {}
    for method in METHODS:
        start = time.perf_counter()
        found = optimize_wells(
            ground_truth_eur,
            table,
            rows,
            variables,
            method=method,
            budget=budgets[method],
            seeds=[args.seed] * len(rows),
        )
        elapsed = time.perf_counter() - start
        print(f"\n{method:<6} {len(rows)} wells in {elapsed:.3f}s")
        for row, r in zip(rows, found):
            results[row, method] = r
            print(
                f"  well {row}: {r.original_eur:.4f} -> {r.optimized_eur:.4f}"
                f"  ({r.optimized_eur - r.original_eur:+.4f},"
                f" {len(r.trace.entries)} evaluations)"
            )
            for name, orig, opt in zip(r.variable_names, r.original, r.optimized):
                print(f"    {name:<26} {orig:>9.3f} -> {opt:>9.3f}")

    print("\nsummary (gap = shortfall vs the well's best method):")
    print(f"  {'well':>5}  {'method':<8}{'optimized':>11}{'gap %':>8}{'evals':>7}")
    for row in rows:
        best = max(results[row, method].optimized_eur for method in METHODS)
        for method in METHODS:
            r = results[row, method]
            gap = 100.0 * (best - r.optimized_eur) / abs(best)
            print(
                f"  {row:>5}  {method:<8}{r.optimized_eur:>11.4f}{gap:>8.3f}"
                f"{len(r.trace.entries):>7}"
            )

    if args.trace_dir:
        out = Path(args.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        for (row, method), r in results.items():
            path = out / f"trace_w{row}_{method}.csv"
            r.trace.write_csv(path, variable_names=r.variable_names)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
