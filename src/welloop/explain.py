"""Game-theoretic attribution for tree ensembles.

The payoff of a feature subset S at a sample x is the ensemble's
path-dependent expectation: splits on features in S follow x's branch,
splits on absent features blend both children weighted by training cover.
`shapley_exact` evaluates the classic factorial-weighted sum over all
subsets. `tree_shap` computes the same numbers in polynomial time from a
path decomposition: each tree is cut into its root-to-leaf paths, on each
of which the game is a product over the path's unique features, so a
feature's value is a closed-form sum of subset-size weights. A sample
enters a path's weights only through its branch pattern, one flag per
path feature, so the weights are computed once per distinct (path,
branch pattern) pair that the samples present and gathered per sample
(Fast TreeSHAP's sharing across samples). `shap_interactions` takes the
same sums over pairs of path features for the off-diagonal interaction
terms; the diagonal holds what is left of each attribution, the main
effect. Both read one path decomposition, cached on the model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from welloop.trees import _BLOCK_CELLS, _as_matrix, cached
from welloop.utils import fmt, raise_first, subseed_rng, write_rows
from welloop.data import WellTable

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


def _expect_node(root, x, subset):
    """Sum over the leaves x can reach of value times reach weight: a
    split on a known feature sends all weight down the branch x takes,
    any other split shares it by cover. Walked with an explicit stack, so
    depth is unlimited."""
    total = 0.0
    todo = [(root, 1.0)]
    while todo:
        node, weight = todo.pop()
        _check_node(node)
        if node.is_leaf:
            total += weight * node.value
        elif node.feature in subset:
            child = node.left if x[node.feature] <= node.threshold else node.right
            todo.append((child, weight))
        else:
            for child in (node.right, node.left):
                todo.append((child, weight * child.cover / node.cover))
    return total


def tree_expectation(model, x, subset) -> float:
    """Expected output of a TreeEnsemble or a StackedModel when only the
    features in `subset` are known to equal x's values; all other splits
    blend children by cover. The per-tree expectations are summed the way
    the model's terms() sum its trees."""
    m = len(model.feature_names)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != m:
        raise ValueError(f"expected {m} feature values")
    s = frozenset(int(i) for i in subset)
    if s and (min(s) < 0 or max(s) >= m):
        raise ValueError("subset contains an out-of-range feature index")
    weights, total, divisor = model.terms()
    for tree, weight in zip(model.trees, weights):
        total += weight * _expect_node(tree, x, s)
    return float(total / divisor)


def tree_game(model, x) -> CoalitionalGame:
    """The coalitional game a single sample induces on the features of a
    TreeEnsemble or a StackedModel."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return CoalitionalGame(
        n_players=len(model.feature_names),
        payoff=lambda s: tree_expectation(model, x, s),
    )


# --- polynomial attribution ---------------------------------------------------
#
# On one root-to-leaf path the expectation game is v * prod(o_i if i in S
# else z_i) over the path's p unique features, where z_i is the product
# of the path's cover ratios at splits on feature i and o_i is 1 when the
# sample takes all those branches. For a set D of one or two of them, the
# Shapley value (|D| = 1) or twice the interaction value (|D| = 2) is
# v * prod_{d in D}(o_d - z_d) * sum_s c_s * s!(q-s-1)!/q!, with
# q = p - |D| + 1 and c_s the t^s coefficient of prod_{i not in D}(z_i + o_i t).

def _decompose(model):
    """Cut every tree into its root-to-leaf paths with an explicit stack.
    Paths with the same number p >= 1 of unique features form one group
    (feature, zero, lo, hi, value), by increasing p: slot j of path i is
    feature[i, j] with zero fraction zero[i, j]; a sample takes every
    branch on it when not x <= lo[i, j] and x <= hi[i, j] (a NaN bound is
    no bound); value[i] is the leaf value times its tree's weight over the
    divisor of the model's terms(). Also returns the base value,
    sum(value * prod(zero)) plus the constant over the divisor."""
    weights, constant, divisor = model.terms()
    by_p = {}
    empty = []
    for root, weight in zip(model.trees, weights / divisor):
        stack = [(root, {})]  # node, {feature: (zero, lo, hi)} on its path
        while stack:
            node, path = stack.pop()
            _check_node(node)
            if node.is_leaf:
                value = node.value * weight
                empty.append(value * math.prod(z for z, _, _ in path.values()))
                by_p.setdefault(len(path), []).append((path, value))
                continue
            f, t = node.feature, node.threshold
            z, lo, hi = path.get(f, (1.0, math.nan, math.nan))
            right = dict(path)
            right_lo = t if math.isnan(lo) else max(lo, t)
            right[f] = (z * node.right.cover / node.cover, right_lo, hi)
            left = dict(path)
            left_hi = t if math.isnan(hi) else min(hi, t)
            left[f] = (z * node.left.cover / node.cover, lo, left_hi)
            stack += ((node.right, right), (node.left, left))
    groups = []
    for p, leaves in sorted(by_p.items()):
        if p:
            slots = np.array([list(path.values()) for path, _ in leaves])
            feature = np.array([list(path) for path, _ in leaves], dtype=np.intp)
            value = np.array([v for _, v in leaves])
            groups.append((feature, *np.moveaxis(slots, 2, 0), value))
    return groups, math.fsum(empty) + constant / divisor


def _subset_weights(one, zero, drop, weights):
    """sum_s c_s * weights[s] for each pair and row of `drop`, where c_s
    is the t^s coefficient of prod(zero_i + one_i * t) over the slots i
    that the row of `drop` keeps. Shapes: one and zero (pairs, p), drop
    (sets, p); result (pairs, sets). Every term is non-negative, so
    nothing cancels."""
    keep = ~drop
    coef = np.zeros((len(one), drop.shape[0], len(weights)))
    coef[..., 0] = 1.0
    for i in range(one.shape[1]):
        z = np.where(keep[:, i], zero[:, i, None], 1.0)
        shifted = coef[..., :-1] * (one[:, i, None] * keep[:, i])[..., None]
        coef *= z[..., None]
        coef[..., 1:] += shifted
    total = coef[..., 0] * weights[0]
    for s in range(1, len(weights)):
        total += coef[..., s] * weights[s]
    return total


def _classes(keys, size):
    """Dense ranks of integer keys in [0, size), and a position of each."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    rank = np.cumsum(seen) - 1
    ids = rank[keys]
    first = np.empty(rank[-1] + 1, dtype=np.intp)
    first[ids] = np.arange(len(keys))
    return ids, first


def _patterns(slot, one, count):
    """The distinct (path, branch pattern) pairs among the rows of `one`
    (pairs, p), whose paths `slot` numbers in [0, count): an id per row
    and a row of each id. The flags are folded into the ids a few slots
    at a time, re-ranked after each fold, so for at most _BLOCK_CELLS / 2
    rows the key table stays within _BLOCK_CELLS cells for any p."""
    ids, p, j = slot, one.shape[1], 0
    while j < p:
        c = min(p - j, max(1, (_BLOCK_CELLS // count).bit_length() - 1))
        ids, first = _classes(ids << c | one[:, j : j + c] @ (1 << np.arange(c)), count << c)
        count = len(first)
        j += c
    return ids, first


def _add_terms(sums, x, cell, feature, zero, lo, hi, value, members, drop, weights):
    """Add the terms above of every row of x on every path given into that
    row of `sums`, path by path, each set's at the path's `cell`. A row
    enters a path's terms only through its branch pattern, one flag a
    slot, so they are computed once per distinct (path, pattern) pair,
    in chunks of at most _BLOCK_CELLS cells, and gathered per row."""
    k, p = feature.shape
    one = (((x[:, feature] <= hi) | np.isnan(hi)) & ~(x[:, feature] <= lo)).reshape(-1, p)
    slot = np.tile(np.arange(k), len(x))
    ids, first = _patterns(slot, one, k)
    terms = np.empty((len(first), len(members)))
    chunk = max(1, _BLOCK_CELLS // (len(members) * len(weights)))
    for c0 in range(0, len(first), chunk):
        pick = first[c0 : c0 + chunk]
        o, path = one[pick].astype(float), slot[pick]
        z = zero[path]
        term = _subset_weights(o, z, drop, weights) * value[path, None]
        for d in members.T:
            term *= o[:, d] - z[:, d]
        terms[c0 : c0 + chunk] = term
    index = np.arange(len(x))[:, None] * sums.shape[1] + cell.ravel()
    np.add.at(sums.reshape(-1), index.ravel(), terms[ids].ravel())


def _path_sums(model, x, order):
    """The per-path terms above for every set D of `order` path features,
    summed over all paths into (rows, M**order) at the cell that spells
    D's features in base M; and the base value.

    The terms are computed once per distinct (path, branch pattern) pair
    among a block of rows (_add_terms), a slice of a tile's paths at a
    time. The tiles do not depend on the row count. ufunc.at adds each
    row's terms into its tile sum path by path, slice after slice, and
    the tile sum then joins the total, so no temporary exceeds
    _BLOCK_CELLS cells and a row's sums never depend on the other rows."""
    groups, base = cached(model, "_decomposed", _decompose)
    n, m = x.shape
    size = m**order
    out = np.zeros((n, size))
    for group in groups:
        feature, *_, value = group
        p = feature.shape[1]
        members = np.array(list(itertools.combinations(range(p), order)), dtype=np.intp)
        if not members.size:
            continue
        drop = np.zeros((len(members), p), dtype=bool)
        np.put_along_axis(drop, members, True, axis=1)
        q = p - order + 1
        fact = math.factorial
        weights = [fact(s) * fact(q - s - 1) / fact(q) for s in range(q)]
        step = max(1, min(len(value), _BLOCK_CELLS // (len(members) * q)))
        width = max(2, p, len(members))  # cells a (row, path) takes in _add_terms
        rows = max(1, min(n, _BLOCK_CELLS // max(size, width)))
        span = max(1, _BLOCK_CELLS // (rows * width))
        for t0 in range(0, len(value), step):
            tile = range(t0, min(t0 + step, len(value)))
            for r0 in range(0, n, rows):
                xr = x[r0 : r0 + rows]
                sums = np.zeros((len(xr), size))
                for s0 in tile[::span]:
                    ps = slice(s0, min(s0 + span, tile.stop))
                    cell = 0
                    for d in members.T:
                        cell = cell * m + feature[ps, d]
                    _add_terms(sums, xr, cell, *(a[ps] for a in group), members, drop, weights)
                out[r0 : r0 + len(xr)] += sums
    return out, base


@dataclass
class AttributionMatrix:
    """Per-sample, per-feature attribution; base_value plus a row always
    reconstructs the model's prediction for that row."""

    values: np.ndarray
    base_value: float
    feature_names: tuple


@dataclass
class InteractionTensor:
    """Per-sample symmetric matrices of pairwise interaction credit; the
    diagonal holds each feature's main effect and every row sums to the
    feature's total attribution."""

    values: np.ndarray  # (n samples, M, M)
    feature_names: tuple


def tree_shap(model, x) -> AttributionMatrix:
    """Polynomial-time attribution of every sample in x by a TreeEnsemble
    or a StackedModel.

    Matches shapley_exact applied to the path-dependent expectation game
    feature for feature, at polynomial rather than exponential cost. The
    game of a weighted sum of trees is the same weighted sum of the trees'
    games, so a stacked model needs nothing more than its terms().
    """
    x = _as_matrix(x, len(model.feature_names))
    values, base = _path_sums(model, x, 1)
    return AttributionMatrix(
        values=values, base_value=float(base), feature_names=model.feature_names
    )


def shap_interactions(
    model, x, attr: AttributionMatrix | None = None
) -> InteractionTensor:
    """Pairwise interaction attribution for every sample in x by a
    TreeEnsemble or a StackedModel.

    The (i, j) entry is half the Shapley interaction value of features i
    and j; the diagonal is the remainder of i's total attribution after
    removing all pairwise terms. Pass tree_shap(model, x) as `attr` when
    it is already at hand, so the rows are not attributed twice.
    """
    x = _as_matrix(x, len(model.feature_names))
    n, m = x.shape
    if attr is None:
        attr = tree_shap(model, x)
    elif attr.values.shape != (n, m):
        raise ValueError("attributions do not match the sample matrix")
    pairs, _ = _path_sums(model, x, 2)
    half = 0.5 * pairs.reshape(n, m, m)  # each pair at (i, j) or at (j, i)
    values = half + half.transpose(0, 2, 1)
    diag = np.arange(m)
    values[:, diag, diag] = attr.values - values.sum(axis=2)
    return InteractionTensor(values=values, feature_names=model.feature_names)


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


def row_problems(waterfalls, clusters, rows, where="") -> list[str]:
    """The problems of explaining `rows` rows: each waterfall row must be
    one of them, and they must be at least `clusters` to cluster. When
    `where`, the path of the section that holds `waterfalls` and
    `clusters`, is given, each problem is placed at its key there."""
    at = {key: f"{where}.{key}: " if where else "" for key in ("waterfalls", "clusters")}
    outside = [row for row in waterfalls if row >= rows]
    problems = [f"{at['waterfalls']}waterfall row {r} outside the explained rows" for r in outside]
    if clusters > rows:
        problems.append(f"{at['clusters']}cannot form {clusters} clusters from {rows} rows")
    return problems


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
    raise_first(row_problems((), k, n))
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


def _pearson_pair(a, b):
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0:
        return None
    return float(ac @ bc) / denom


def _average_ranks(a):
    """1-based ranks of a 1-D array, each run of ties given the mean of
    the positions it spans (scipy.stats.rankdata's 'average'). The ranks
    are half-integers, so they are exact."""
    a = np.asarray(a)
    order = np.argsort(a, kind="mergesort")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


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
            spearman = _pearson_pair(_average_ranks(xj), _average_ranks(y))
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
    rows = (
        [i, name, fmt(x[i, j]), fmt(attr.values[i, j])]
        for i in range(x.shape[0])
        for j, name in enumerate(attr.feature_names)
    )
    write_rows(path, ["sample", "factor", "value", "attribution"], rows)


def write_dependency_csv(tensor: InteractionTensor, x, path) -> None:
    """Long-form (sample, factor, factor value, main effect) rows backing
    dependency plots cleaned of interaction credit."""
    x = _as_matrix(x, len(tensor.feature_names))
    rows = (
        [i, name, fmt(x[i, j]), fmt(tensor.values[i, j, j])]
        for i in range(x.shape[0])
        for j, name in enumerate(tensor.feature_names)
    )
    write_rows(path, ["sample", "factor", "value", "main_effect"], rows)
