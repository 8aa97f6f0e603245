"""Regression trees and tree ensembles built from scratch.

Trees grow greedily, depth first, left before right: at each node every
feature's candidate thresholds (midpoints between consecutive distinct
sorted values) are scored and the best gain wins, ties going to the
lowest feature index and then the lowest threshold. Every node records
its cover, the number of training rows that reached it, which downstream
attribution relies on.

The search is exact and presorted (SLIQ; XGBoost's exact greedy search).
A tree sorts its rows once, stably, per feature, and a node keeps, for
each feature, its rows in that order. A child takes the parent's lists
with the other child's rows removed; removing rows from a stable order
leaves a stable order, so each node sees the targets in exactly the
sequence a stable sort of its own rows would give, and so the same
running sums and the same gains bit for bit. One 2-D pass scores every
feature of a node at once. Inputs must be finite.

Three ensemble kinds share the grower:

* RF: bootstrap resampling, optional per-split feature subsets, mean vote.
* GBDT: first-order boosting; each stage fits the current residuals and
  leaves hold mean residuals.
* XGB: second-order boosting for squared loss (gradient pred - y, unit
  hessian) with L2 leaf regularization lam and split penalty gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from welloop.utils import (
    _BLOCK_CELLS,
    is_int,
    is_number,
    kfold_assignments,
    mix_seed,
    raise_first,
    read_json,
    subseed_rng,
    take,
    take_list,
    typed,
    write_json,
)

# gains below this are treated as zero so constant targets stay unsplit
GAIN_EPS = 1e-12

_RF_TREE_TAG = 11
_BOOST_STAGE_TAG = 12
_TUNE_DRAW_TAG = 13
_TUNE_FOLD_TAG = 14

_INT64_MAX = int(np.iinfo(np.int64).max)  # the largest integer a tune draw gives


@dataclass
class TreeNode:
    """One node; leaves carry a value, internal nodes a split. Cover is
    the training-row count that reached the node, and an internal node's
    cover always equals the sum of its children's."""

    cover: int
    value: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class HyperParams:
    n_trees: int = 150
    max_depth: int = 4
    min_samples_leaf: int = 2
    subsample_fraction: float = 1.0
    feature_fraction: float = 1.0
    learning_rate: float = 0.1
    lam: float = 1.0
    gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must be in (0, 1]")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        for name in ("learning_rate", "lam", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# HyperParams fields that hold integers, by annotation (the rule the
# config reader applies); every other field is a float
INTEGER_FIELDS = tuple(f.name for f in fields(HyperParams) if f.type == "int")

KINDS = ("RF", "GBDT", "XGB")


@dataclass
class TreeEnsemble:
    """A trained forest or boosting chain plus everything prediction and
    attribution need: kind, base score, learning rate, feature names."""

    kind: str
    trees: tuple
    base_score: float
    learning_rate: float
    feature_names: tuple
    train_loss: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        self.trees = tuple(self.trees)
        self.feature_names = tuple(self.feature_names)

    def terms(self) -> tuple[np.ndarray, float, int]:
        """(per-tree weights, constant, divisor) of the sum predict and
        attribution take: a mean vote for RF, a shrunken sum on top of the
        base score for boosting kinds."""
        if self.kind == "RF":
            if not self.trees:
                raise ValueError("RF ensemble has no trees")
            return np.ones(len(self.trees)), 0.0, len(self.trees)
        return np.full(len(self.trees), self.learning_rate), self.base_score, 1


def _as_matrix(x, n_features=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("expected a sample matrix")
    if n_features is not None and x.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got {x.shape[1]}")
    return x


@dataclass(frozen=True)
class FlatTrees:
    """Trees compiled to parallel node arrays. Node i splits on
    feature[i] at threshold[i] and sends a row to left[i] when its value
    is <= the threshold, else to right[i]. A leaf points to itself on both
    sides and holds its value, so every row sits still once it reaches a
    leaf and `depth` steps from the roots put every row on its leaf.
    cover[i] is the training-row count that reached node i."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    tree: np.ndarray  # the tree each node belongs to
    roots: np.ndarray
    depth: int

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """(trees, rows) value of the leaf each row reaches in each tree,
        found for all trees and rows together one level per step."""
        n, m = x.shape
        flat_x = x.ravel()
        row_start = np.arange(n) * m
        node = np.repeat(self.roots[:, None], n, axis=1)
        return self.value[self.descend(node, lambda f: flat_x[row_start + f])]

    def descend(self, node: np.ndarray, column_value) -> np.ndarray:
        """The leaf each walk reaches from its start in `node`, where
        column_value(f) is each walk's value in its column f."""
        for _ in range(self.depth):
            go = column_value(self.feature[node]) <= self.threshold[node]
            node = np.where(go, self.left[node], self.right[node])
        return node

    def thresholds(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """Each tree's sorted distinct split thresholds on `column`, as
        (tree, threshold) arrays ordered by tree, then by threshold; a
        tree that never splits on it has none."""
        split = (self.feature == column) & (self.left != np.arange(self.left.size))
        tree, threshold = self.tree[split], self.threshold[split]
        order = np.lexsort((threshold, tree))
        tree, threshold = tree[order], threshold[order]
        new = np.ones(tree.size, dtype=bool)
        new[1:] = (tree[1:] != tree[:-1]) | (threshold[1:] != threshold[:-1])
        return tree[new], threshold[new]


def compile_trees(trees) -> FlatTrees:
    """Number the nodes of `trees` breadth first into one set of arrays,
    roots first; built without recursion, so no tree is too deep."""
    nodes = list(trees)
    tree = list(range(len(nodes)))
    feature, threshold, value, left = [], [], [], []
    depth, level_end = 0, len(nodes)  # node i is `depth` deep while i < level_end
    for i, node in enumerate(nodes):  # grows as children are numbered
        if i == level_end:
            depth, level_end = depth + 1, len(nodes)
        if node.is_leaf:
            feature.append(0)
            threshold.append(0.0)
            value.append(node.value)
            left.append(i)
            continue
        feature.append(node.feature)
        threshold.append(node.threshold)
        value.append(0.0)
        left.append(len(nodes))
        nodes += (node.left, node.right)
        tree += (tree[i], tree[i])
    # one array at a time, each list let go as its array is made: holding
    # them all at once raised field-1k's peak RSS by about 0.4 MB; tree
    # and cover fit int32, so a node costs 48 bytes with its cover
    feature = np.array(feature, dtype=np.intp)
    threshold = np.array(threshold, dtype=float)
    value = np.array(value, dtype=float)
    tree = np.array(tree, dtype=np.int32)
    left = np.array(left, dtype=np.intp)
    return FlatTrees(
        feature=feature,
        threshold=threshold,
        left=left,
        right=left + (left != np.arange(len(left))),  # a leaf points to itself
        value=value,
        cover=np.fromiter((node.cover for node in nodes), dtype=np.int32, count=len(nodes)),
        tree=tree,
        roots=np.arange(len(trees), dtype=np.intp),
        depth=depth,
    )


def cached(model, name, build):
    """build(model) for a TreeEnsemble or a StackedModel, made on first
    use and cached on the instance as attribute `name` for as long as its
    `trees` attribute is the same object. Nothing changes a fitted or
    loaded model's nodes or scaling in place."""
    hit = getattr(model, name, None)
    if hit is None or hit[0] is not model.trees:
        hit = (model.trees, build(model))
        setattr(model, name, hit)
    return hit[1]


def compiled(model):
    """The node arrays of a model's `trees` and its terms(), cached."""
    return cached(model, "_compiled", lambda m: (compile_trees(m.trees), m.terms()))


def predict(model, x) -> np.ndarray:
    """The output of a TreeEnsemble or a StackedModel: with (weight,
    constant, divisor) from its terms(), (constant + sum of weight[t] times
    tree t's leaf value) / divisor. The terms are added one tree at a time
    in tree order, and rows go in blocks of at most _BLOCK_CELLS cells, so
    the float result does not depend on how many rows are predicted
    together."""
    x = _as_matrix(x, len(model.feature_names))
    flat, terms = compiled(model)
    out = np.empty(x.shape[0])
    step = max(1, _BLOCK_CELLS // (len(terms[0]) + 1))
    for r0 in range(0, x.shape[0], step):
        out[r0 : r0 + step] = _add_terms(flat.leaf_values(x[r0 : r0 + step]), *terms)
    return out


def _add_terms(leaves, weight, constant, divisor) -> np.ndarray:
    """(constant + sum of weight[t] * leaves[t]) / divisor per column of
    the (trees, rows) `leaves`, the terms added one tree at a time in tree
    order."""
    terms = np.empty((len(weight) + 1, leaves.shape[1]))
    terms[0] = constant
    np.multiply(weight[:, None], leaves, out=terms[1:])
    # accumulate adds the rows strictly one after another; a reduction
    # such as np.sum may pair terms up and change the last bits
    return np.add.accumulate(terms, axis=0)[-1] / divisor


def predict_grid(model, rows, columns, grids) -> np.ndarray:
    """`predict` over a product grid: out[r, i, j, ...] is the output of
    a TreeEnsemble or a StackedModel for row r of `rows` with column
    columns[0] set to grids[0][i], columns[1] to grids[1][j], and so on,
    bit for bit what predict gives for that row. Each column is the
    integer index of a feature column, swept at most once, by a non-empty,
    non-decreasing 1-D grid; anything else is a ValueError.

    Each (tree, cell) pair of _grid_cells is walked once per row, from
    the tree's root, at the cell's first grid point; each point then
    reads its leaf from its cell, and the terms are added as predict adds
    them. Rows go in blocks that keep the walk, pairs x rows, and the sum,
    (trees + 1) x rows, within _BLOCK_CELLS cells each."""
    x = _as_matrix(rows, len(model.feature_names))
    m = x.shape[1]
    flat, terms = compiled(model)
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) != len(columns):
        raise ValueError(f"{len(columns)} columns for {len(grids)} grids")
    for column in columns:
        if not (is_int(column) and 0 <= column < m):
            raise ValueError(f"column {column!r} is not one of the {m} feature columns")
    if len(set(columns)) != len(columns):
        raise ValueError("a column is swept twice")
    if not all(g.ndim == 1 and g.size for g in grids):
        raise ValueError("a grid is not a non-empty 1-D array")
    if not all((g[1:] >= g[:-1]).all() for g in grids):
        raise ValueError("a grid is not non-decreasing")
    pair_root, swept, pair_index = _grid_cells(flat, columns, grids)
    # a walk reads a swept column from `sweep` and any other from the row;
    # the other is 0 there, and adding 0 is exact
    sweep = np.zeros((pair_root.size, m))
    sweep[:, columns] = swept
    flat_sweep = sweep.ravel()
    pair_start = np.arange(pair_root.size)[:, None] * m
    out = np.empty((x.shape[0],) + tuple(g.size for g in grids))
    step = max(1, _BLOCK_CELLS // max(pair_root.size, len(terms[0]) + 1))
    for r0 in range(0, x.shape[0], step):
        base = np.array(x[r0 : r0 + step])
        base[:, columns] = 0.0
        n = base.shape[0]
        flat_base = base.ravel()
        row_start = np.arange(n) * m
        node = flat.descend(
            np.repeat(pair_root[:, None], n, axis=1),
            lambda f: flat_base[row_start + f] + flat_sweep[pair_start + f],
        )
        leaves = flat.value[node]
        for point in np.ndindex(*out.shape[1:]):
            pairs = sum(index[i] for index, i in zip(pair_index, point))
            out[(slice(r0, r0 + step),) + point] = _add_terms(leaves[pairs], *terms)
    return out


def _grid_cells(flat: FlatTrees, columns, grids):
    """The (tree, cell) pairs of a product grid, in tree order: each
    pair's root and swept values (the first grid point of its cell), and
    per axis a (steps, trees) array; its rows at a grid point's steps,
    summed over the axes, give each tree's pair for that point.

    Along the swept columns a tree's leaf changes only at its own
    thresholds on them, and x <= t goes left, so a grid value's cell in a
    tree is the count of the tree's thresholds below it, and every grid
    point in one cell reaches one leaf. A non-decreasing grid meets a
    tree's cells in runs of steps, and on a product grid a tree's cells
    are the product of its runs per axis, numbered with the last axis
    fastest. All trees are counted together, in (trees, steps) tables."""
    n_trees = flat.roots.size
    runs, run_index, run_firsts = [], [], []
    for column, g in zip(columns, grids):
        tree, threshold = flat.thresholds(column)
        # a threshold lies below the grid values from the first one above it
        below = np.zeros((n_trees, g.size + 1), dtype=np.intp)
        np.add.at(below, (tree, np.searchsorted(g, threshold, side="right")), 1)
        cell = np.cumsum(below[:, :-1], axis=1)
        new = np.ones(cell.shape, dtype=bool)
        new[:, 1:] = cell[:, 1:] != cell[:, :-1]
        index = np.cumsum(new, axis=1) - 1  # each step's run in its tree
        runs.append(index[:, -1] + 1)
        run_index.append(index)
        run_firsts.append(g[np.nonzero(new)[1]])  # tree by tree, run by run
    cells = np.ones(n_trees, dtype=np.intp)  # a tree's cells over the axes after this one
    strides = []
    for count in reversed(runs):
        strides.insert(0, cells)
        cells = cells * count
    offset = np.cumsum(cells) - cells
    pair_index = [
        np.ascontiguousarray((index * stride[:, None]).T)
        for index, stride in zip(run_index, strides)
    ]
    pair_index[0] += offset
    pair_tree = np.repeat(np.arange(n_trees), cells)
    local = np.arange(pair_tree.size) - offset[pair_tree]
    swept = np.empty((pair_tree.size, len(grids)))
    for k, (count, stride, firsts) in enumerate(zip(runs, strides, run_firsts)):
        first_run = np.cumsum(count) - count
        run = first_run[pair_tree] + local // stride[pair_tree] % count[pair_tree]
        swept[:, k] = firsts[run]
    return flat.roots[pair_tree], swept, pair_index


def as_predictor(model):
    """The function that maps rows to `model`'s outputs: `predict` bound to
    a model, which is anything with terms() (a TreeEnsemble or a
    StackedModel); any other callable is its own predict function."""
    if callable(getattr(model, "terms", None)):
        return partial(predict, model)
    if callable(model):
        return model
    raise TypeError(f"cannot predict with object of type {type(model).__name__}")


# --- growing ---------------------------------------------------------------


def _rank(x) -> tuple[np.ndarray, np.ndarray]:
    """Rank a fit's rows once, column by column. Returns (features x rows)
    arrays: each value's dense rank in its column, in the smallest unsigned
    type that holds the row count, and the values. Equal values share a
    rank (-0.0 with 0.0), so ranks keep both the order and the ties."""
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    ordered = np.take_along_axis(xt, order, axis=1)
    ranks = np.zeros(xt.shape, dtype=np.min_scalar_type(x.shape[0]))
    rises = np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1)
    np.put_along_axis(ranks, order[:, 1:], rises, axis=1)
    return ranks, xt


def _presort(ranked, idx) -> tuple[np.ndarray, np.ndarray]:
    """Sort a tree's training rows, the rows idx of a fit ranked by _rank,
    once, stably, column by column. Sorting the ranks gives the order a
    stable sort of the values gives, and numpy sorts integers of 16 bits
    or fewer by radix. Returns (features x rows) arrays: positions in idx
    in that order, and the values."""
    ranks, xt = ranked
    order = np.argsort(ranks.take(idx, axis=1), axis=1, kind="stable")
    return order, np.take_along_axis(xt, idx[order], axis=1)


def _scan_splits(ts, vs, min_leaf, mode, lam, gamma):
    """Score the cut after every sorted position of every feature at once.
    `ts` and `vs` hold each feature's targets and values in that feature's
    order; a cut must fall between distinct values and leave min_leaf rows
    each side. Returns (feature row, position, gain) of the best cut, the
    first in feature-major order among equals; the gain is -inf when no cut
    is allowed."""
    n = ts.shape[1]
    nl = np.arange(1.0, n)
    nr = n - nl
    s1 = np.cumsum(ts, axis=1)
    total1 = s1[:, -1:]
    l1 = s1[:, :-1]
    # in place, but the same operations on the same operands as the plain
    # formula, so every gain keeps its bits
    gains = l1 * l1
    right = total1 - l1
    right *= right
    if mode == "mean":
        # drop in the sum of squared errors: sse_p - sse_l - sse_r
        s2 = np.cumsum(ts * ts, axis=1)
        total2 = s2[:, -1:]
        l2 = s2[:, :-1]
        gains /= nl
        np.subtract(l2, gains, out=gains)  # sse_l
        np.subtract(total2 - total1 * total1 / n, gains, out=gains)  # sse_p - sse_l
        right /= nr
        np.subtract(total2, l2, out=l2)
        l2 -= right  # sse_r
        gains -= l2
    else:
        # second-order gain for squared loss; hessian is 1 per row
        gains /= nl + lam
        right /= nr + lam
        gains += right
        gains -= total1 * total1 / (n + lam)
        gains *= 0.5
        gains -= gamma
    np.copyto(gains, -np.inf, where=vs[:, 1:] <= vs[:, :-1])
    gains[:, : min_leaf - 1] = -np.inf
    gains[:, n - min_leaf :] = -np.inf
    row, pos = divmod(int(np.argmax(gains)), n - 1)
    return row, pos, gains[row, pos]


def _leaf_value(t, mode, lam):
    if mode == "mean":
        return float(t.sum() / t.size)
    # gradient is pred - y, so the optimal leaf weight is -G / (H + lam)
    return float(-np.sum(t) / (t.size + lam))


def _leaf(t, rows, hp, mode, row_value) -> TreeNode:
    value = _leaf_value(t[rows], mode, hp.lam)
    if row_value is not None:
        row_value[rows] = value
    return TreeNode(cover=int(rows.size), value=value)


def _is_leaf(n, depth, hp) -> bool:
    return depth >= hp.max_depth or n < 2 * hp.min_samples_leaf


def _grow(t, presorted, hp, rng, mode, row_value=None) -> TreeNode:
    """Grow one tree on targets `t`, given its rows presorted by _presort.
    When `row_value` is given, each leaf writes its value into it at the
    positions of its rows: the tree's output on its own training rows."""
    order, values = presorted
    rows = np.arange(t.size)
    if _is_leaf(t.size, 0, hp):
        return _leaf(t, rows, hp, mode, row_value)
    return _grow_node(t, rows, order, values, 0, hp, rng, mode, row_value)


def _grow_node(t, rows, order, values, depth, hp, rng, mode, row_value):
    # rows: the node's positions in the tree's rows, ascending; order and
    # values: the tree's presorted arrays cut down to the node's rows, which
    # keeps each feature's order stable, as if the node had sorted its own.
    # The node is not a leaf by depth or size; a child that is gets only
    # its rows, and leaves draw no random numbers.
    n = rows.size
    n_feat = order.shape[0]
    if hp.feature_fraction < 1.0:
        size = math.ceil(hp.feature_fraction * n_feat)
        feats = np.sort(rng.choice(n_feat, size=size, replace=False))
    else:
        feats = slice(None)  # a view, no copy of the node's arrays
    row, pos, gain = _scan_splits(
        t[order[feats]], values[feats], hp.min_samples_leaf, mode, hp.lam, hp.gamma
    )
    if gain <= GAIN_EPS:
        return _leaf(t, rows, hp, mode, row_value)
    f = row if isinstance(feats, slice) else int(feats[row])
    thr = (values[f, pos] + values[f, pos + 1]) / 2.0
    go_left = np.zeros(t.size, dtype=bool)
    go_left[order[f]] = values[f] <= thr
    in_left = go_left[rows]
    mask = None
    children = []
    for child, on_left in ((rows[in_left], True), (rows[~in_left], False)):
        if _is_leaf(child.size, depth + 1, hp):
            children.append(_leaf(t, child, hp, mode, row_value))
            continue
        if mask is None:
            mask = go_left[order]  # one gather serves both children
        # one index list serves both arrays; a 2-D boolean mask would be
        # turned into indices once per array
        keep = np.flatnonzero(mask if on_left else ~mask)
        cut = [a.take(keep).reshape(n_feat, -1) for a in (order, values)]
        children.append(_grow_node(t, child, *cut, depth + 1, hp, rng, mode, row_value))
    left, right = children
    return TreeNode(cover=int(n), feature=f, threshold=float(thr), left=left, right=right)


def _feature_names(x, names):
    if names is not None:
        return tuple(names)
    return tuple(f"f{j}" for j in range(x.shape[1]))


def _training_set(x, y):
    """x as a sample matrix and y as floats, refused with a ValueError
    unless they are a non-empty, finite training set with matching rows."""
    x = _as_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be one-dimensional, got shape {y.shape}")
    if y.shape[0] != x.shape[0]:
        raise ValueError("x and y row counts differ")
    if y.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(x).all():
        raise ValueError("x holds a NaN or infinite value")
    if not np.isfinite(y).all():
        raise ValueError("y holds a NaN or infinite value")
    return x, y


def fit_tree(x, y, hp: HyperParams | None = None, feature_names=None) -> TreeNode:
    """Grow a single variance-reduction regression tree on all rows."""
    hp = hp or HyperParams()
    x, y = _training_set(x, y)
    rng = subseed_rng(hp.seed, _RF_TREE_TAG, 0)
    return _grow(y, _presort(_rank(x), np.arange(y.size)), hp, rng, "mean")


def fit_rf(x, y, hp: HyperParams | None = None, feature_names=None):
    """Random forest: each tree sees a bootstrap resample and, when
    feature_fraction < 1, an independent feature subset per split."""
    hp = hp or HyperParams()
    x, y = _training_set(x, y)
    n = x.shape[0]
    size = math.ceil(hp.subsample_fraction * n)
    ranked = _rank(x)
    trees = []
    for t in range(hp.n_trees):
        rng = subseed_rng(hp.seed, _RF_TREE_TAG, t)
        idx = rng.integers(0, n, size=size)
        trees.append(_grow(y[idx], _presort(ranked, idx), hp, rng, "mean"))
    return TreeEnsemble(
        kind="RF",
        trees=tuple(trees),
        base_score=0.0,
        learning_rate=1.0,
        feature_names=_feature_names(x, feature_names),
    )


def _boost(x, y, hp, mode, feature_names):
    x, y = _training_set(x, y)
    n = x.shape[0]
    base = float(np.mean(y))
    pred = np.full(n, base)
    size = math.ceil(hp.subsample_fraction * n)
    ranked = _rank(x)
    # every stage of a full-sample fit grows on all rows: sort them once
    presorted = _presort(ranked, np.arange(n)) if hp.subsample_fraction == 1.0 else None
    trees = []
    losses = [float(np.mean((y - pred) ** 2))]
    for t in range(hp.n_trees):
        rng = subseed_rng(hp.seed, _BOOST_STAGE_TAG, t)
        target = (y - pred) if mode == "mean" else (pred - y)
        if presorted is None:
            idx = rng.choice(n, size=size, replace=False)
            tree = _grow(target[idx], _presort(ranked, idx), hp, rng, mode)
            # rows outside the sample reach their leaves by a tree walk
            step = compile_trees((tree,)).leaf_values(x)[0]
        else:
            step = np.empty(n)
            tree = _grow(target, presorted, hp, rng, mode, step)
        pred = pred + hp.learning_rate * step
        trees.append(tree)
        losses.append(float(np.mean((y - pred) ** 2)))
    kind = "GBDT" if mode == "mean" else "XGB"
    return TreeEnsemble(
        kind=kind,
        trees=tuple(trees),
        base_score=base,
        learning_rate=hp.learning_rate,
        feature_names=_feature_names(x, feature_names),
        train_loss=tuple(losses),
    )


def fit_gbdt(x, y, hp: HyperParams | None = None, feature_names=None):
    """First-order boosting: stage t fits the residuals of stage t-1 and
    leaves hold mean residuals. The returned train_loss tracks full-sample
    MSE after the base score and after every stage."""
    return _boost(x, y, hp or HyperParams(), "mean", feature_names)


def fit_xgb(x, y, hp: HyperParams | None = None, feature_names=None):
    """Second-order boosting for squared loss with L2 leaf weight penalty
    lam and split penalty gamma. With lam = gamma = 0 it reproduces
    fit_gbdt stage by stage."""
    return _boost(x, y, hp or HyperParams(), "xgb", feature_names)


FIT_FUNCTIONS = {"RF": fit_rf, "GBDT": fit_gbdt, "XGB": fit_xgb}


# --- hyperparameter search ---------------------------------------------------


def space_entry_problems(name, entry, where) -> list[str]:
    """The problems of one tune-space entry, each placed at `where`. The
    name must be a HyperParams field; the entry is exactly one of
    {"range": [low, high]}, two finite numbers with low <= high, or
    {"choices": [...]}, a non-empty list; HyperParams must accept every
    end and every choice; and an integer field's range must end within
    int64, where sample_space draws it. A rule is checked only when the
    ones before it hold, so at most one problem is listed."""
    if name not in {f.name for f in fields(HyperParams)}:
        return [f"{where}: not a hyperparameter"]
    if not isinstance(entry, dict) or set(entry) not in ({"range"}, {"choices"}):
        return [f"{where}: expected range or choices"]
    ((form, values),) = entry.items()
    if form == "choices" and not (isinstance(values, list) and values):
        return [f"{where}.choices: expected a non-empty list"]
    two_numbers = isinstance(values, list) and len(values) == 2 and all(map(is_number, values))
    if form == "range" and not (two_numbers and values[0] <= values[1]):
        return [f"{where}.range: expected [low, high] with low <= high"]
    # every constraint on a hyperparameter is an interval, so a range
    # whose ends pass holds only passing values
    for v in values:
        try:
            HyperParams(**{name: v})
        except (TypeError, ValueError) as exc:
            return [f"{where}: {exc}"]
    if form == "range" and name in INTEGER_FIELDS and values[1] > _INT64_MAX:
        return [f"{where}.range: expected an integer high <= {_INT64_MAX}"]
    return []


def sample_space(space: dict, budget: int, seed: int) -> list[dict]:
    """Draw `budget` hyperparameter combinations uniformly from `space`.

    Each entry is written as in the config's tune space: {"choices": [...]}
    means a uniform choice; {"range": [low, high]} means a uniform float,
    or a uniform integer for an integer HyperParams field. Draw order
    follows the space's key order, so the same seed always yields the same
    sequence. An entry space_entry_problems faults is a ValueError: its
    first problem, placed at the hyperparameter's name.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    for name, entry in space.items():
        raise_first(space_entry_problems(name, entry, name))
    rng = subseed_rng(seed, _TUNE_DRAW_TAG)
    draws = []
    for _ in range(budget):
        combo = {}
        for name, entry in space.items():
            if "range" in entry:
                lo, hi = entry["range"]
                if name in INTEGER_FIELDS:  # whose accepted ends are ints
                    combo[name] = int(rng.integers(lo, hi + 1))
                else:
                    combo[name] = float(rng.uniform(lo, hi))
            else:
                choices = entry["choices"]
                combo[name] = choices[int(rng.integers(len(choices)))]
        draws.append(combo)
    return draws


def cv_mse(x, y, kind: str, hp: HyperParams, k: int, seed: int) -> float:
    """Pooled out-of-fold MSE of `kind` under k-fold cross-validation."""
    if kind not in FIT_FUNCTIONS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    x, y = _training_set(x, y)
    fold = kfold_assignments(x.shape[0], k, subseed_rng(seed, _TUNE_FOLD_TAG))
    oof = np.empty_like(y)
    for j in range(k):
        tr = fold != j
        model = FIT_FUNCTIONS[kind](x[tr], y[tr], hp)
        oof[~tr] = predict(model, x[~tr])
    return float(np.mean((y - oof) ** 2))


def tune_random_search(
    x,
    y,
    kind: str,
    space: dict,
    budget: int = 20,
    k: int = 5,
    seed: int = 0,
    base: HyperParams | None = None,
) -> tuple[HyperParams, float]:
    """Random search over `space`: sample `budget` combinations, each
    overriding `base` (default HyperParams()), score each by k-fold CV MSE,
    return the best (ties keep the earlier draw)."""
    base = replace(base or HyperParams(), seed=mix_seed(seed, _TUNE_DRAW_TAG))
    best_hp = None
    best_score = np.inf
    for combo in sample_space(space, budget, seed):
        hp = replace(base, **combo)
        score = cv_mse(x, y, kind, hp, k, seed)
        if score < best_score:
            best_score = score
            best_hp = hp
    return best_hp, best_score


# --- serialization -----------------------------------------------------------

def _node_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"cover": node.cover, "value": node.value}
    return {
        "cover": node.cover,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _place(where) -> str:
    """The location string of a (parent, key) chain from a tree's root."""
    keys = []
    while isinstance(where, tuple):
        where, key = where
        keys.append(key)
    return where + "".join(f".{key}" for key in reversed(keys))


def _node_from_json(obj, n_features, where) -> TreeNode:
    """The node a JSON object describes. Each key is checked inline, and
    only a value that fails the plain check goes through take or typed,
    which accept it or raise; `where` is a (parent, key) chain, spelled
    out by _place only then."""
    cover = obj.get("cover")
    if type(cover) is not int:
        cover = take(obj, "cover", "integer", _place(where))
    if not 1 <= cover < 2**31:  # compiled covers are int32
        raise ValueError(f"{_place(where)}: node cover must be in [1, 2**31)")
    if "value" in obj:
        value = obj["value"]
        if type(value) is not float or value - value != 0.0:
            value = typed(value, "number", _place(where), "value")
        return TreeNode(cover=cover, value=value)
    feature = obj.get("feature")
    if type(feature) is not int:
        if obj.keys().isdisjoint(("feature", "threshold", "left", "right")):
            raise ValueError(f"{_place(where)}: node has neither a value nor a split")
        feature = take(obj, "feature", "integer", _place(where))
    if not 0 <= feature < n_features:
        raise ValueError(
            f"{_place(where)}.feature: {feature} is not one of {n_features} features"
        )
    threshold = obj.get("threshold")
    if type(threshold) is not float or threshold - threshold != 0.0:
        threshold = take(obj, "threshold", "number", _place(where))
    children = []
    for key in ("left", "right"):
        child = obj.get(key)
        if type(child) is not dict:
            child = take(obj, key, "object", _place(where))
        children.append(_node_from_json(child, n_features, (where, key)))
    left, right = children
    if left.cover + right.cover != cover:
        raise ValueError(f"{_place(where)}: child covers do not sum to the parent cover")
    return TreeNode(
        cover=cover, feature=feature, threshold=threshold, left=left, right=right
    )


def ensemble_to_json(ensemble: TreeEnsemble) -> dict:
    """The ensemble as a JSON value; trees nested deeper than the
    recursion limit raise a ValueError."""
    try:
        trees = [_node_to_json(t) for t in ensemble.trees]
    except RecursionError:
        raise ValueError("model.trees: nested deeper than the recursion limit") from None
    return {
        "kind": ensemble.kind,
        "base_score": ensemble.base_score,
        "learning_rate": ensemble.learning_rate,
        "feature_names": list(ensemble.feature_names),
        "train_loss": (
            None if ensemble.train_loss is None else list(ensemble.train_loss)
        ),
        "trees": trees,
    }


def ensemble_from_json(obj) -> TreeEnsemble:
    """The ensemble a JSON value describes. A malformed value, from a
    missing key or a wrong type to trees nested deeper than the recursion
    limit, raises a ValueError that names the problem."""
    typed(obj, "object", "model")
    kind = take(obj, "kind", "string", "model")
    names = take_list(obj, "feature_names", "string", "model")
    loss = obj.get("train_loss")
    if loss is not None:
        loss = take_list(obj, "train_loss", "number", "model")
    trees = []
    try:
        for i, root in enumerate(take(obj, "trees", "list", "model")):
            where = f"model.trees[{i}]"
            trees.append(_node_from_json(typed(root, "object", where), len(names), where))
    except RecursionError:
        raise ValueError("model.trees: nested deeper than the recursion limit") from None
    return TreeEnsemble(
        kind=kind,
        trees=trees,
        base_score=take(obj, "base_score", "number", "model"),
        learning_rate=take(obj, "learning_rate", "number", "model"),
        feature_names=names,
        train_loss=loss,
    )


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    write_json(path, ensemble_to_json(ensemble), indent=None)


def load_ensemble(path) -> TreeEnsemble:
    return ensemble_from_json(read_json(path))
