"""Check the polynomial tree attribution against exhaustive enumeration.

For growing feature counts, fits a small boosted ensemble on random
data, computes attributions both ways for a handful of rows, and prints
the worst absolute disagreement next to the wall time of each route.
The enumeration cost doubles with every added feature while the tree
path algorithm stays polynomial, which is the whole point. On all rows
it also prints the worst additivity residual |base + sum(phi) - predict|
and, for the interaction tensors, the worst asymmetry |I - I^T| and
row-sum residual |sum_j I[:, j] - phi|. Then it runs the same checks on
a small stacked model, whose exact values enumerate the game the
stacking defines: the meta intercept plus each kind's meta weight times
the mean of its fold sub-models' games. Exits 1 if any of these exceeds
1e-9. It also times the explain layer on that stacked model, freshly
fitted: tree_shap, then shap_interactions given those attributions, as
the CLI's explain stage calls them, on --rows drawn rows, and prints the
seconds per row of each.

Usage:
    python3 scripts/shap_vs_exact.py [--max-features 11] [--seed 0] [--rows 40]
"""

import argparse
import time

import numpy as np

from welloop.explain import (
    CoalitionalGame,
    shap_interactions,
    shapley_exact,
    tree_expectation,
    tree_game,
    tree_shap,
)
from welloop.stack import fit_stacked
from welloop.trees import HyperParams, fit_gbdt, predict

TOLERANCE = 1e-9


def stacked_game(model, row):
    """The stacked model's game at one row, built from the sub-models'
    games as the stacking defines it, not from the model's own terms."""

    def payoff(subset):
        total = model.meta_intercept
        for weight, per_fold in zip(model.meta_weights, model.sub_models):
            total += weight * np.mean([tree_expectation(s, row, subset) for s in per_fold])
        return total

    return CoalitionalGame(n_players=len(model.feature_names), payoff=payoff)


def check(model, game, x, n_probe=4):
    """(max |fast - exact| over the first n_probe rows, fast s, exact s,
    (additivity, asymmetry, row-sum residuals over all rows))."""
    probe = x[:n_probe]
    start = time.perf_counter()
    fast = tree_shap(model, probe).values
    fast_s = time.perf_counter() - start

    start = time.perf_counter()
    slow = np.array([shapley_exact(game(model, row)) for row in probe])
    slow_s = time.perf_counter() - start

    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x, attr).values
    recon = attr.base_value + attr.values.sum(axis=1)
    residuals = (
        float(np.abs(recon - predict(model, x)).max()),
        float(np.abs(tensor - tensor.transpose(0, 2, 1)).max()),
        float(np.abs(tensor.sum(axis=2) - attr.values).max()),
    )
    return float(np.abs(fast - slow).max()), fast_s, slow_s, residuals


def data(m, seed, n_rows=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, m))
    y = x @ rng.normal(size=m) + 0.5 * x[:, 0] * x[:, -1] + rng.normal(size=n_rows)
    return x, y


def one_size(m, seed):
    x, y = data(m, seed)
    ensemble = fit_gbdt(x, y, HyperParams(n_trees=25, max_depth=3, seed=seed))
    return check(ensemble, tree_game, x)


def fit_small_stacked(m, seed):
    x, y = data(m, seed)
    hps = {
        "RF": HyperParams(n_trees=4, max_depth=3),
        "GBDT": HyperParams(n_trees=4, max_depth=3, learning_rate=0.3),
        "XGB": HyperParams(n_trees=4, max_depth=3, learning_rate=0.3),
    }
    return fit_stacked(x, y, hps, k=3, seed=seed), x


def explain_seconds(model, n_rows, seed):
    """Seconds per row of tree_shap, then of shap_interactions given its
    attributions, on n_rows rows drawn like the training rows."""
    x = np.random.default_rng(seed + 1).normal(size=(n_rows, len(model.feature_names)))
    start = time.perf_counter()
    attr = tree_shap(model, x)
    mid = time.perf_counter()
    shap_interactions(model, x, attr)
    return (mid - start) / n_rows, (time.perf_counter() - mid) / n_rows


def report(label, m, result):
    err, fast_s, slow_s, residuals = result
    print(
        f"{label:>9}{m:>9}{2 ** m:>9}{err:>13.2e}{fast_s:>9.3f}{slow_s:>9.3f}"
        + "".join(f"{r:>13.2e}" for r in residuals)
    )
    return np.array((err, *residuals))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-features", type=int, default=11)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rows", type=int, default=40)
    args = ap.parse_args()

    print(
        f"{'model':>9}{'features':>9}{'subsets':>9}{'max |diff|':>13}{'fast s':>9}"
        f"{'exact s':>9}{'additivity':>13}{'asymmetry':>13}{'row sums':>13}"
    )
    worst = np.zeros(4)
    for m in range(2, args.max_features + 1):
        worst = np.maximum(worst, report("gbdt", m, one_size(m, args.seed)))
    model, x = fit_small_stacked(4, args.seed)
    shap_s, pairs_s = explain_seconds(model, args.rows, args.seed)
    worst = np.maximum(worst, report("stacked", 4, check(model, stacked_game, x)))

    print(f"\nworst disagreement overall: {worst[0]:.2e}")
    print(
        f"worst additivity residual {worst[1]:.2e}, interaction asymmetry"
        f" {worst[2]:.2e}, interaction row-sum residual {worst[3]:.2e}"
    )
    print(
        f"stacked model ({len(model.trees)} trees), {args.rows} drawn rows:"
        f" tree_shap {shap_s:.2e} s/row, shap_interactions {pairs_s:.2e} s/row"
    )
    if worst.max() <= TOLERANCE:
        print("all within 1e-9; the fast path is exact and consistent on these models")
        return 0
    print("a check exceeds 1e-9")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
