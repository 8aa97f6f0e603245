"""Check the polynomial tree attribution against exhaustive enumeration.

For growing feature counts, fits a small boosted ensemble on random
data, computes attributions both ways for a handful of rows, and prints
the worst absolute disagreement next to the wall time of each route.
The enumeration cost doubles with every added feature while the tree
path algorithm stays polynomial, which is the whole point. On all rows
it also prints the worst additivity residual |base + sum(phi) - predict|
and, for the interaction tensors, the worst asymmetry |I - I^T| and
row-sum residual |sum_j I[:, j] - phi|. Exits 1 if any of these exceeds
1e-9.

Usage:
    python3 scripts/shap_vs_exact.py [--max-features 11] [--seed 0]
"""

import argparse
import time

import numpy as np

from welloop.explain import shap_interactions, shapley_exact, tree_game, tree_shap
from welloop.trees import HyperParams, fit_gbdt, predict

TOLERANCE = 1e-9


def one_size(m, seed, n_rows=60, n_probe=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, m))
    y = x @ rng.normal(size=m) + 0.5 * x[:, 0] * x[:, -1] + rng.normal(size=n_rows)
    hp = HyperParams(n_trees=25, max_depth=3, seed=seed)
    ensemble = fit_gbdt(x, y, hp)
    probe = x[:n_probe]

    start = time.perf_counter()
    fast = tree_shap(ensemble, probe).values
    fast_s = time.perf_counter() - start

    start = time.perf_counter()
    slow = np.array([shapley_exact(tree_game(ensemble, row)) for row in probe])
    slow_s = time.perf_counter() - start

    attr = tree_shap(ensemble, x)
    tensor = shap_interactions(ensemble, x, attr).values
    recon = attr.base_value + attr.values.sum(axis=1)
    residuals = (
        float(np.abs(recon - predict(ensemble, x)).max()),
        float(np.abs(tensor - tensor.transpose(0, 2, 1)).max()),
        float(np.abs(tensor.sum(axis=2) - attr.values).max()),
    )
    return float(np.abs(fast - slow).max()), fast_s, slow_s, residuals


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-features", type=int, default=11)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(
        f"{'features':>9}{'subsets':>9}{'max |diff|':>13}{'fast s':>9}{'exact s':>9}"
        f"{'additivity':>13}{'asymmetry':>13}{'row sums':>13}"
    )
    worst = np.zeros(4)
    for m in range(2, args.max_features + 1):
        err, fast_s, slow_s, residuals = one_size(m, args.seed)
        worst = np.maximum(worst, (err, *residuals))
        print(
            f"{m:>9}{2 ** m:>9}{err:>13.2e}{fast_s:>9.3f}{slow_s:>9.3f}"
            + "".join(f"{r:>13.2e}" for r in residuals)
        )

    print(f"\nworst disagreement overall: {worst[0]:.2e}")
    print(
        f"worst additivity residual {worst[1]:.2e}, interaction asymmetry"
        f" {worst[2]:.2e}, interaction row-sum residual {worst[3]:.2e}"
    )
    if worst.max() <= TOLERANCE:
        print("all within 1e-9; the fast path is exact and consistent on these models")
        return 0
    print("a check exceeds 1e-9")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
