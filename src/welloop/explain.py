"""Game-theoretic attribution for tree ensembles.

The payoff of a feature subset S at a sample x is the ensemble's
path-dependent expectation: splits on features in S follow x's branch,
splits on absent features blend both children weighted by training cover.
`shapley_exact` evaluates the classic factorial-weighted sum over all
subsets; `tree_shap` computes the same numbers in polynomial time by
pushing weighted subset counts down each tree path. `shap_interactions`
splits each attribution into pairwise interaction terms plus a main
effect by differencing two runs that hold one feature fixed present or
fixed absent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import rankdata

from welloop.trees import TreeEnsemble, _as_matrix, predict
from welloop.utils import fmt, subseed_rng
from welloop.data import WellTable

_DUMMY = -1  # path slot for the root, carries no feature
_MARKER = -2  # path slot for a conditioned split, carries no feature

_CLUSTER_TAG = 21


class ModelIntegrityError(ValueError):
    """A tree carries impossible bookkeeping, e.g. a non-positive cover."""


@dataclass(frozen=True)
class CoalitionalGame:
    """A set of players and a payoff defined on every player subset."""

    n_players: int
    payoff: Callable[[frozenset], float]


def shapley_exact(game: CoalitionalGame) -> np.ndarray:
    """Exact Shapley values by enumerating all 2^M subsets.

    Each player's value is the factorial-weighted average of its marginal
    contributions over every subset of the others. Exponential in the
    player count, so games beyond 20 players are refused; use tree_shap
    for models over wide tables.
    """
    m = game.n_players
    if m < 1:
        raise ValueError("need at least one player")
    if m > 20:
        raise ValueError(
            "exact enumeration is limited to 20 players; use tree_shap instead"
        )
    size = 1 << m
    pay = np.empty(size)
    for mask in range(size):
        pay[mask] = game.payoff(frozenset(i for i in range(m) if mask >> i & 1))
    fact = [math.factorial(s) for s in range(m + 1)]
    weight = [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]
    phi = np.zeros(m)
    for mask in range(size):
        s = mask.bit_count()
        for i in range(m):
            if not mask >> i & 1:
                phi[i] += weight[s] * (pay[mask | (1 << i)] - pay[mask])
    return phi


# --- path-dependent expectation ---------------------------------------------


def _check_node(node):
    if node.cover <= 0:
        raise ModelIntegrityError("encountered a node with non-positive cover")


def _expect_node(node, x, subset):
    _check_node(node)
    if node.is_leaf:
        return node.value
    if node.feature in subset:
        child = node.left if x[node.feature] <= node.threshold else node.right
        return _expect_node(child, x, subset)
    _check_node(node.left)
    _check_node(node.right)
    wl = node.left.cover / node.cover
    wr = node.right.cover / node.cover
    return wl * _expect_node(node.left, x, subset) + wr * _expect_node(
        node.right, x, subset
    )


def _combine(per_tree, ensemble):
    if ensemble.kind == "RF":
        return sum(per_tree) / len(ensemble.trees)
    return ensemble.base_score + ensemble.learning_rate * sum(per_tree)


def tree_expectation(ensemble: TreeEnsemble, x, subset) -> float:
    """Expected ensemble output when only the features in `subset` are
    known to equal x's values; all other splits blend children by cover."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != ensemble.n_features:
        raise ValueError(f"expected {ensemble.n_features} feature values")
    s = frozenset(int(i) for i in subset)
    if s and (min(s) < 0 or max(s) >= ensemble.n_features):
        raise ValueError("subset contains an out-of-range feature index")
    if not ensemble.trees:
        if ensemble.kind == "RF":
            raise ValueError("RF ensemble has no trees")
        return ensemble.base_score
    vals = [_expect_node(t, x, s) for t in ensemble.trees]
    return float(_combine(vals, ensemble))


def tree_game(ensemble: TreeEnsemble, x) -> CoalitionalGame:
    """The coalitional game a single sample induces on the features."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return CoalitionalGame(
        n_players=ensemble.n_features,
        payoff=lambda s: tree_expectation(ensemble, x, s),
    )


# --- polynomial attribution ---------------------------------------------------
#
# The recursion carries a path of (feature, zero fraction, one fraction,
# weight) slots, one per distinct feature met so far, where the weights
# encode how many weighted subsets of each size flow down the branch.
# Extending the path adds a feature's fractions; unwinding removes them
# so a repeated feature can be re-extended with merged fractions.


def _extend(path, pz, po, pi):
    l = len(path)
    path.append([pi, pz, po, 1.0 if l == 0 else 0.0])
    for i in range(l - 1, -1, -1):
        path[i + 1][3] += po * path[i][3] * (i + 1) / (l + 1)
        path[i][3] = pz * path[i][3] * (l - i) / (l + 1)


def _unwind(path, i):
    length = len(path)
    z = path[i][1]
    o = path[i][2]
    n = path[length - 1][3]
    if o != 0:
        for j in range(length - 2, -1, -1):
            t = path[j][3]
            path[j][3] = n * length / ((j + 1) * o)
            n = t - path[j][3] * z * (length - 1 - j) / length
    else:
        for j in range(length - 2, -1, -1):
            path[j][3] = path[j][3] * length / (z * (length - 1 - j))
    for j in range(i, length - 1):
        path[j][0] = path[j + 1][0]
        path[j][1] = path[j + 1][1]
        path[j][2] = path[j + 1][2]
    path.pop()


def _unwound_sum(path, i):
    length = len(path)
    z = path[i][1]
    o = path[i][2]
    total = 0.0
    if o != 0:
        n = path[length - 1][3]
        for j in range(length - 2, -1, -1):
            t = n * length / ((j + 1) * o)
            total += t
            n = path[j][3] - t * z * (length - 1 - j) / length
    else:
        for j in range(length - 2, -1, -1):
            total += path[j][3] * length / (z * (length - 1 - j))
    return total


def _shap_recurse(node, x, phi, path, pz, po, pi, condition, cond_feature):
    path = [e[:] for e in path]
    _extend(path, pz, po, pi)
    if node.is_leaf:
        for i in range(1, len(path)):
            d = path[i][0]
            if d < 0:
                continue
            w = _unwound_sum(path, i)
            phi[d] += w * (path[i][2] - path[i][1]) * node.value
        return
    _check_node(node)
    _check_node(node.left)
    _check_node(node.right)
    f = node.feature
    if condition != 0 and f == cond_feature:
        # a conditioned split adds a feature-less slot so the subtree's
        # weight scales uniformly and the split earns no attribution
        if condition > 0:
            hot = node.left if x[f] <= node.threshold else node.right
            _shap_recurse(hot, x, phi, path, 1.0, 1.0, _MARKER, condition, cond_feature)
        else:
            for child in (node.left, node.right):
                r = child.cover / node.cover
                _shap_recurse(child, x, phi, path, r, r, _MARKER, condition, cond_feature)
        return
    hot, cold = (
        (node.left, node.right)
        if x[f] <= node.threshold
        else (node.right, node.left)
    )
    iz = 1.0
    io = 1.0
    k = next((i for i in range(1, len(path)) if path[i][0] == f), None)
    if k is not None:
        iz = path[k][1]
        io = path[k][2]
        _unwind(path, k)
    _shap_recurse(
        hot, x, phi, path, iz * hot.cover / node.cover, io, f, condition, cond_feature
    )
    _shap_recurse(
        cold, x, phi, path, iz * cold.cover / node.cover, 0.0, f, condition, cond_feature
    )


def _tree_phi(root, x, n_features, condition=0, cond_feature=-1):
    phi = np.zeros(n_features)
    _shap_recurse(root, x, phi, [], 1.0, 1.0, _DUMMY, condition, cond_feature)
    return phi


def _ensemble_phi(ensemble, x, condition=0, cond_feature=-1):
    m = ensemble.n_features
    acc = np.zeros(m)
    for tree in ensemble.trees:
        acc += _tree_phi(tree, x, m, condition, cond_feature)
    if ensemble.kind == "RF":
        return acc / len(ensemble.trees)
    return acc * ensemble.learning_rate


@dataclass
class AttributionMatrix:
    """Per-sample, per-feature attribution; base_value plus a row always
    reconstructs the model's prediction for that row."""

    values: np.ndarray
    base_value: float
    feature_names: tuple

    def to_json(self) -> dict:
        return {
            "base_value": float(self.base_value),
            "feature_names": list(self.feature_names),
            "values": [[float(v) for v in row] for row in self.values],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample"] + list(self.feature_names))
            for i, row in enumerate(self.values):
                writer.writerow([i] + [fmt(v) for v in row])


@dataclass
class InteractionTensor:
    """Per-sample symmetric matrices of pairwise interaction credit; the
    diagonal holds each feature's main effect and every row sums to the
    feature's total attribution."""

    values: np.ndarray  # (n samples, M, M)
    feature_names: tuple

    def to_json(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "values": [
                [[float(v) for v in row] for row in mat] for mat in self.values
            ],
        }


def tree_shap(ensemble: TreeEnsemble, x) -> AttributionMatrix:
    """Polynomial-time attribution of every sample in x.

    Matches shapley_exact applied to the path-dependent expectation game
    feature for feature, at polynomial rather than exponential cost.
    """
    x = _as_matrix(x, ensemble.n_features)
    if not ensemble.trees:
        raise ValueError("ensemble has no trees")
    # the empty-subset expectation never reads the sample
    base = tree_expectation(ensemble, np.zeros(ensemble.n_features), frozenset())
    values = np.empty((x.shape[0], ensemble.n_features))
    for i in range(x.shape[0]):
        values[i] = _ensemble_phi(ensemble, x[i])
    return AttributionMatrix(
        values=values, base_value=float(base), feature_names=ensemble.feature_names
    )


def shap_interactions(
    ensemble: TreeEnsemble, x, attr: AttributionMatrix | None = None
) -> InteractionTensor:
    """Pairwise interaction attribution for every sample in x.

    The (i, j) entry is half the change in feature i's attribution when
    feature j flips from known-present to forced-absent; the diagonal is
    the remainder of i's total attribution after removing all pairwise
    terms. Cost grows linearly in the feature count on top of tree_shap.
    Pass tree_shap(ensemble, x) as `attr` when it is already at hand, so
    the rows are not attributed a second time.
    """
    x = _as_matrix(x, ensemble.n_features)
    if not ensemble.trees:
        raise ValueError("ensemble has no trees")
    n, m = x.shape
    if attr is None:
        attr = tree_shap(ensemble, x)
    elif attr.values.shape != (n, m):
        raise ValueError("attributions do not match the sample matrix")
    main = attr.values
    values = np.zeros((n, m, m))
    for i in range(n):
        for j in range(m):
            with_j = _ensemble_phi(ensemble, x[i], condition=1, cond_feature=j)
            without_j = _ensemble_phi(ensemble, x[i], condition=-1, cond_feature=j)
            col = (with_j - without_j) / 2.0
            col[j] = 0.0
            values[i, :, j] = col
        off_sum = values[i].sum(axis=1)
        np.fill_diagonal(values[i], main[i] - off_sum)
    return InteractionTensor(values=values, feature_names=ensemble.feature_names)


# --- downstream summaries ------------------------------------------------------


def rank_factors(attr: AttributionMatrix) -> list[tuple[str, float]]:
    """Factors ordered by mean absolute attribution, largest first; ties
    keep declaration order."""
    if attr.values.shape[0] == 0:
        raise ValueError("attribution matrix has no rows")
    eta = np.mean(np.abs(attr.values), axis=0)
    order = sorted(range(len(eta)), key=lambda i: (-eta[i], i))
    return [(attr.feature_names[i], float(eta[i])) for i in order]


@dataclass
class WellExplanation:
    """Waterfall data for one well: start at base_value, add signed
    contributions largest-magnitude first, end at the prediction."""

    base_value: float
    contributions: tuple  # ((name, value), ...) sorted by |value| desc
    prediction: float

    def to_json(self) -> dict:
        return {
            "base_value": float(self.base_value),
            "contributions": [
                {"factor": n, "value": float(v)} for n, v in self.contributions
            ],
            "prediction": float(self.prediction),
        }


def explain_well(attr: AttributionMatrix, row: int) -> WellExplanation:
    if not 0 <= row < attr.values.shape[0]:
        raise IndexError(f"row {row} outside the attribution matrix")
    phi = attr.values[row]
    order = sorted(range(len(phi)), key=lambda i: (-abs(phi[i]), i))
    contributions = tuple((attr.feature_names[i], float(phi[i])) for i in order)
    return WellExplanation(
        base_value=float(attr.base_value),
        contributions=contributions,
        prediction=float(attr.base_value + phi.sum()),
    )


def supervised_cluster(attr: AttributionMatrix, k: int, seed: int = 0) -> np.ndarray:
    """k-means on attribution rows (k-means++ start, 100 Lloyd iterations
    cap, stop when centers move under 1e-8). Returns a label per sample.

    Clustering attribution space groups wells by why the model rates them
    the way it does, not by raw factor values.
    """
    x = np.asarray(attr.values, dtype=float)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} rows")
    rng = subseed_rng(seed, _CLUSTER_TAG)
    centers = _kmeanspp(x, k, rng)
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = x[mask].mean(axis=0)
            else:
                # deterministic rescue: grab the row farthest from its center
                new_centers[j] = x[int(d2.min(axis=1).argmax())]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < 1e-8:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _kmeanspp(x, k, rng):
    n = x.shape[0]
    centers = [x[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            [((x - c) ** 2).sum(axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers.append(x[idx])
    return np.array(centers)


# --- baseline correlation measures ---------------------------------------------


@dataclass
class CorrelationReport:
    """Per-factor linear, rank, and grey relational association with the
    target, plus a best-first ranking per method. Undefined entries
    (zero-variance columns) are None and rank last."""

    factors: tuple  # ((name, {"pearson": .., "spearman": .., "gra": ..}), ...)
    rankings: dict

    def to_json(self) -> dict:
        return {
            "factors": [
                {"name": n, **{k: (None if v is None else float(v)) for k, v in d.items()}}
                for n, d in self.factors
            ],
            "rankings": {m: list(names) for m, names in self.rankings.items()},
        }


def _pearson_pair(a, b):
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0:
        return None
    return float(ac @ bc) / denom


def _minmax(a):
    lo = a.min()
    hi = a.max()
    if hi == lo:
        return None
    return (a - lo) / (hi - lo)


def baseline_correlations(table: WellTable) -> CorrelationReport:
    """Pearson, Spearman, and Deng grey relational grade of every feature
    against the target.

    The grey grade normalizes each sequence to [0, 1], forms pointwise
    absolute gaps to the target sequence, and averages the relational
    coefficients (global min gap + 0.5 * global max gap over the gap plus
    0.5 * global max gap). A feature identical to the target grades 1.
    """
    if np.isnan(table.values).any():
        raise ValueError("table still contains missing values")
    y = table.target()
    if table.n_rows < 2:
        raise ValueError("need at least 2 rows")
    names = table.feature_names
    x = table.feature_matrix()

    y_norm = _minmax(y)
    gaps = []
    defined = []
    for j in range(x.shape[1]):
        xj_norm = _minmax(x[:, j])
        if y_norm is None or xj_norm is None:
            gaps.append(None)
            defined.append(False)
        else:
            gaps.append(np.abs(y_norm - xj_norm))
            defined.append(True)
    present = [g for g in gaps if g is not None]
    if present:
        gap_min = min(float(g.min()) for g in present)
        gap_max = max(float(g.max()) for g in present)
    else:
        gap_min = gap_max = 0.0
    rho = 0.5

    factors = []
    for j, name in enumerate(names):
        xj = x[:, j]
        pearson = _pearson_pair(xj, y)
        if pearson is None or np.std(y) == 0:
            spearman = None
        else:
            spearman = _pearson_pair(rankdata(xj), rankdata(y))
        if not defined[j]:
            gra = None
        elif gap_max == 0:
            gra = 1.0
        else:
            xi = (gap_min + rho * gap_max) / (gaps[j] + rho * gap_max)
            gra = float(xi.mean())
        factors.append((name, {"pearson": pearson, "spearman": spearman, "gra": gra}))

    rankings = {}
    for method in ("pearson", "spearman", "gra"):
        def key(item):
            idx, (_, d) = item
            v = d[method]
            if v is None:
                return (1, 0.0, idx)
            return (0, -abs(v), idx)

        order = sorted(enumerate(factors), key=key)
        rankings[method] = [name for _, (name, _) in order]
    return CorrelationReport(factors=tuple(factors), rankings=rankings)


# --- plot-data emitters ----------------------------------------------------------


def write_summary_csv(attr: AttributionMatrix, x, path) -> None:
    """Long-form (sample, factor, factor value, attribution) rows backing
    a beeswarm-style summary plot."""
    x = _as_matrix(x, len(attr.feature_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "factor", "value", "attribution"])
        for i in range(x.shape[0]):
            for j, name in enumerate(attr.feature_names):
                writer.writerow([i, name, fmt(x[i, j]), fmt(attr.values[i, j])])


def write_dependency_csv(tensor: InteractionTensor, x, path) -> None:
    """Long-form (sample, factor, factor value, main effect) rows backing
    dependency plots cleaned of interaction credit."""
    x = _as_matrix(x, len(tensor.feature_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "factor", "value", "main_effect"])
        for i in range(x.shape[0]):
            for j, name in enumerate(tensor.feature_names):
                writer.writerow([i, name, fmt(x[i, j]), fmt(tensor.values[i, j, j])])
