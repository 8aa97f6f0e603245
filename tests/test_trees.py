import functools
import hashlib
import itertools
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import welloop.trees
from conftest import (
    GRID,
    LEAF,
    chain_tree,
    deep_model_text,
    drawn_case,
    drawn_tree,
    naive_predict,
    ordered_predict,
    random_fitted_ensemble,
)
from welloop.data import synthesize
from welloop.stack import StackedModel, fit_stacked
from welloop.trees import (
    FIT_FUNCTIONS,
    GAIN_EPS,
    KINDS,
    HyperParams,
    TreeEnsemble,
    TreeNode,
    cv_mse,
    ensemble_from_json,
    ensemble_to_json,
    fit_gbdt,
    fit_rf,
    fit_tree,
    fit_xgb,
    load_ensemble,
    predict,
    predict_grid,
    sample_space,
    save_ensemble,
    tune_random_search,
)


def leaf_partitions(node, x, idx):
    """Yield (leaf, row indices routed to it); independent traversal."""
    if node.is_leaf:
        yield node, idx
        return
    mask = x[idx, node.feature] <= node.threshold
    yield from leaf_partitions(node.left, x, idx[mask])
    yield from leaf_partitions(node.right, x, idx[~mask])


def walk(node):
    yield node
    if not node.is_leaf:
        yield from walk(node.left)
        yield from walk(node.right)


# --- single tree -------------------------------------------------------------------


def test_fit_tree_finds_the_obvious_split():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(x, y, HyperParams(max_depth=1, min_samples_leaf=1))
    assert root.feature == 0
    assert root.threshold == 2.5
    assert root.left.value == 0.0
    assert root.right.value == 1.0
    assert root.cover == 4 and root.left.cover == 2


def test_split_candidates_are_midpoints_of_distinct_values():
    x = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(x, y, HyperParams(max_depth=1, min_samples_leaf=1))
    assert root.threshold == 1.5


def test_equal_gain_prefers_the_lowest_threshold():
    # thresholds 1.5 and 3.5 tie on variance reduction; 2.5 is worthless
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    root = fit_tree(x, y, HyperParams(max_depth=1, min_samples_leaf=1))
    assert root.threshold == 1.5


def test_equal_gain_prefers_the_lowest_feature():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.column_stack([col, col])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = fit_tree(x, y, HyperParams(max_depth=1, min_samples_leaf=1))
    assert root.feature == 0


def test_zero_depth_and_constant_target_give_single_leaves():
    x = np.array([[1.0], [2.0], [3.0]])
    root = fit_tree(x, np.array([1.0, 2.0, 6.0]), HyperParams(max_depth=0))
    assert root.is_leaf and root.value == 3.0
    flat = fit_tree(x, np.array([5.0, 5.0, 5.0]), HyperParams(max_depth=3))
    assert flat.is_leaf and flat.value == 5.0


def test_min_samples_leaf_blocks_small_children():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 9.0])
    root = fit_tree(x, y, HyperParams(max_depth=2, min_samples_leaf=2))
    assert root.is_leaf
    loose = fit_tree(x, y, HyperParams(max_depth=2, min_samples_leaf=1))
    assert not loose.is_leaf


def test_depth_limit_is_respected(rng):
    x = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    for d in (1, 2, 3):
        root = fit_tree(x, y, HyperParams(max_depth=d, min_samples_leaf=1))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(root) <= d


def test_tree_covers_and_leaf_values_reconcile(rng):
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    root = fit_tree(x, y, HyperParams(max_depth=4, min_samples_leaf=2))
    assert root.cover == 50
    for node in walk(root):
        if not node.is_leaf:
            assert node.cover == node.left.cover + node.right.cover
    for leaf, idx in leaf_partitions(root, x, np.arange(50)):
        assert leaf.cover == len(idx)
        assert leaf.value == pytest.approx(y[idx].mean(), abs=1e-12)


def exhaustive_root_gains(x, t, min_leaf, mode, lam, gamma):
    """{(feature, threshold): gain} for every allowed root split, each gain
    computed from the rows on either side directly (sums of squared errors,
    or G^2 / (H + lam) with unit hessians) rather than from running sums."""

    def score(side):
        if mode == "mean":
            return -float(np.sum((side - np.mean(side)) ** 2))
        return 0.5 * float(np.sum(side)) ** 2 / (side.size + lam)

    gains = {}
    for f in range(x.shape[1]):
        distinct = np.unique(x[:, f])
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            thr = (lo + hi) / 2.0
            left = x[:, f] <= thr
            if min(left.sum(), (~left).sum()) >= min_leaf:
                gain = score(t[left]) + score(t[~left]) - score(t)
                gains[(f, thr)] = gain - (gamma if mode == "xgb" else 0.0)
    return gains


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 16))
    m = draw(st.integers(1, 3))
    cell = st.integers(-6, 6).map(lambda v: v / 4)  # coarse, so values tie
    x = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["mean", "xgb"]))
    hp = HyperParams(
        n_trees=1,
        max_depth=1,
        min_samples_leaf=draw(st.integers(1, 4)),
        lam=draw(st.sampled_from([0.0, 0.5, 2.0])),
        gamma=draw(st.sampled_from([0.0, 0.01])),
    )
    return np.array(x), np.array(y), mode, hp


@given(split_problems())
@settings(max_examples=300, deadline=None)
def test_the_root_split_has_the_best_gain_of_an_exhaustive_scan(problem):
    x, y, mode, hp = problem
    if mode == "mean":
        root, t = fit_tree(x, y, hp), y
    else:
        # the first stage fits gradients pred - y around the mean base score
        root, t = fit_xgb(x, y, hp).trees[0], float(np.mean(y)) - y
    gains = exhaustive_root_gains(x, t, hp.min_samples_leaf, mode, hp.lam, hp.gamma)
    tol = 1e-9 * max(1.0, float(np.sum(t * t)))
    best = max(gains.values(), default=-np.inf)
    if root.is_leaf:
        assert best <= GAIN_EPS + tol
        return
    picked = (root.feature, root.threshold)
    assert picked in gains
    assert gains[picked] >= best - tol
    leader = max(gains, key=gains.get)
    if all(g < best - tol for k, g in gains.items() if k != leader):
        assert picked == leader


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_refuse_non_finite_input(rng, bad):
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    bad_x, bad_y = x.copy(), y.copy()
    bad_x[4, 1] = bad
    bad_y[7] = bad
    hp = HyperParams(n_trees=2, max_depth=2)
    for fit in (fit_tree, fit_rf, fit_gbdt, fit_xgb):
        with pytest.raises(ValueError, match="^x holds a NaN or infinite value"):
            fit(bad_x, y, hp)
        with pytest.raises(ValueError, match="^y holds a NaN or infinite value"):
            fit(x, bad_y, hp)
    with pytest.raises(ValueError, match="^y holds"):
        cv_mse(x, bad_y, "XGB", hp, k=2, seed=0)
    with pytest.raises(ValueError, match="^x holds"):
        fit_stacked(bad_x, y, {"RF": hp}, k=2, seed=0)


def test_fits_refuse_a_target_that_is_not_one_dimensional(rng):
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    hp = HyperParams(n_trees=2, max_depth=2)
    column = y[:, None]
    message = r"^y must be one-dimensional, got shape \(50, 1\)$"
    for fit in (fit_tree, fit_rf, fit_gbdt, fit_xgb):
        with pytest.raises(ValueError, match=message):
            fit(x, column, hp)
    with pytest.raises(ValueError, match=message):
        fit_stacked(x, column, {"RF": hp, "GBDT": hp}, k=5, seed=0)
    with pytest.raises(ValueError, match=message):
        cv_mse(x, column, "GBDT", hp, k=2, seed=0)
    with pytest.raises(ValueError, match=r"got shape \(\)$"):
        fit_rf(x, np.float64(1.0), hp)


# --- prediction --------------------------------------------------------------------


def test_predict_matches_naive_traversal_for_all_kinds(rng):
    for _ in range(25):
        model, x = random_fitted_ensemble(rng)
        got = predict(model, x)
        want = naive_predict(model, x)
        assert np.allclose(got, want, atol=1e-12)


@given(drawn_case())
@settings(max_examples=300, deadline=None)
def test_predict_equals_the_ordered_per_row_sum_bit_for_bit(case):
    model, x = case
    want = ordered_predict(model, x)
    assert np.array_equal(predict(model, x), want)
    for i in range(x.shape[0]):
        assert np.array_equal(predict(model, x[i]), want[i : i + 1])


def test_predict_keeps_the_ordered_sum_across_row_blocks(rng, monkeypatch):
    # 30 cells a block hold 4 rows of the 6 trees, so 25 rows take 7 blocks
    monkeypatch.setattr(welloop.trees, "_BLOCK_CELLS", 30)
    x = rng.normal(size=(25, 3))
    for kind in KINDS:
        model = FIT_FUNCTIONS[kind](x, x[:, 0] * x[:, 1], HyperParams(n_trees=6))
        want = ordered_predict(model, x)
        assert np.array_equal(predict(model, x), want)
        for i in range(x.shape[0]):
            assert np.array_equal(predict(model, x[i]), want[i : i + 1])


def test_predict_on_no_rows_returns_an_empty_array(rng):
    for kind in KINDS:
        model, x = random_fitted_ensemble(rng, kind=kind)
        got = predict(model, x[:0])
        assert got.shape == (0,)


def test_predict_walks_a_very_deep_tree_without_recursion():
    model = TreeEnsemble(
        kind="RF",
        trees=(chain_tree(3000),),
        base_score=0.0,
        learning_rate=1.0,
        feature_names=("a",),
    )
    x = np.array([[-5.0], [0.0], [7.0], [1234.5], [2999.0], [5000.0]])
    assert predict(model, x).tolist() == [0.0, 0.0, 7.0, 1235.0, 2999.0, 3000.0]


def test_cutting_the_trees_is_never_served_a_stale_compilation(rng):
    for kind in KINDS:
        x = rng.normal(size=(30, 3))
        model = FIT_FUNCTIONS[kind](x, x[:, 0], HyperParams(n_trees=6, max_depth=3))
        full = predict(model, x)
        cut = replace(model, trees=model.trees[:3])
        assert np.array_equal(predict(cut, x), ordered_predict(cut, x))
        model.trees = model.trees[:3]
        assert np.array_equal(predict(model, x), ordered_predict(cut, x))
        assert not np.array_equal(predict(model, x), full)


def test_predict_with_no_trees_returns_base_for_boosting():
    empty = TreeEnsemble(
        kind="GBDT", trees=(), base_score=2.5, learning_rate=0.1, feature_names=("a",)
    )
    assert predict(empty, np.array([[1.0]])).tolist() == [2.5]
    rf = TreeEnsemble(
        kind="RF", trees=(), base_score=0.0, learning_rate=1.0, feature_names=("a",)
    )
    with pytest.raises(ValueError):
        predict(rf, np.array([[1.0]]))


def test_predict_validates_column_count(rng):
    model, x = random_fitted_ensemble(rng, n_features=3)
    with pytest.raises(ValueError):
        predict(model, np.zeros((2, 5)))


# --- predicting over a grid --------------------------------------------------------


def test_thresholds_are_each_trees_sorted_distinct_splits(rng):
    leaf = TreeNode(cover=1, value=1.0)
    # f0 splits at 2.0 twice on one path and at -1.0 below; f1 once
    first = TreeNode(
        cover=4,
        feature=0,
        threshold=2.0,
        left=TreeNode(
            cover=2,
            feature=0,
            threshold=2.0,
            left=leaf,
            right=leaf,
        ),
        right=TreeNode(
            cover=2,
            feature=1,
            threshold=5.0,
            left=leaf,
            right=TreeNode(cover=1, feature=0, threshold=-1.0, left=leaf, right=leaf),
        ),
    )
    flat = welloop.trees.compile_trees((first, leaf, chain_tree(3)))
    # a leaf's placeholder feature 0 and threshold 0.0 are no split
    tree, threshold = flat.thresholds(0)
    assert tree.tolist() == [0, 0, 2, 2, 2]
    assert threshold.tolist() == [-1.0, 2.0, 0.0, 1.0, 2.0]
    assert [a.tolist() for a in flat.thresholds(1)] == [[0], [5.0]]
    model, _ = random_fitted_ensemble(rng, n_features=3)
    flat = welloop.trees.compile_trees(model.trees)
    for column in range(3):
        tree, threshold = flat.thresholds(column)
        for t, grown in enumerate(model.trees):
            splits = {n.threshold for n in walk(grown) if n.feature == column}
            assert threshold[tree == t].tolist() == sorted(splits)


def breadth_first(trees):
    """Every node of `trees` level by level, roots first, each level's
    children in the order of their parents, left before right."""
    nodes, level = [], list(trees)
    while level:
        nodes += level
        level = [child for node in level if not node.is_leaf for child in (node.left, node.right)]
    return nodes


@given(drawn_case())
@settings(max_examples=100, deadline=None)
def test_compiled_cover_is_each_drawn_nodes_cover_breadth_first(case):
    model, _ = case
    flat, _ = welloop.trees.compiled(model)
    assert flat.cover.tolist() == [node.cover for node in breadth_first(model.trees)]


def test_compiled_cover_is_each_fitted_nodes_cover_breadth_first():
    """TreeSHAP, its interactions and the enumeration oracle read the
    compiled cover; they stay additive under any covers, so only this
    pins a misplaced one. Fitted RF, GBDT and XGB and a stacked model."""
    _, _, models = models_of_a_field()
    for model in models:
        flat, _ = welloop.trees.compiled(model)
        assert flat.cover.tolist() == [node.cover for node in breadth_first(model.trees)]


@st.composite
def grid_case(draw):
    """A drawn RF, GBDT, XGB or stacked forest, rows, 1 to 3 swept
    columns and their strictly increasing grids, whose values often equal
    a split threshold, and a block size that rarely divides the rows."""
    n_features = draw(st.integers(1, 4))
    names = tuple(f"f{j}" for j in range(n_features))

    def forest(kind):
        boosting = kind != "RF"
        return TreeEnsemble(
            kind=kind,
            trees=tuple(draw(st.lists(drawn_tree(n_features, 4), min_size=1, max_size=6))),
            base_score=draw(LEAF) if boosting else 0.0,
            learning_rate=draw(st.floats(0.01, 1.0)) if boosting else 1.0,
            feature_names=names,
        )

    kind = draw(st.sampled_from(KINDS + ("stacked",)))
    if kind == "stacked":
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
        folds = draw(st.integers(1, 2))
        model = StackedModel(
            base_kinds=tuple(kinds),
            folds=folds,
            sub_models=tuple(tuple(forest(k) for _ in range(folds)) for k in kinds),
            fold_assignment=np.zeros(1, dtype=int),
            meta_weights=np.array([draw(st.floats(-2.0, 2.0)) for _ in kinds]),
            meta_intercept=draw(LEAF),
            feature_names=names,
        )
    else:
        model = forest(kind)
    columns = draw(st.lists(st.integers(0, n_features - 1), min_size=1, max_size=3, unique=True))
    grids = [
        np.array(sorted(set(draw(st.lists(GRID | LEAF, min_size=1, max_size=6)))))
        for _ in columns
    ]
    rows = draw(
        st.lists(
            st.lists(GRID | LEAF, min_size=n_features, max_size=n_features),
            min_size=1,
            max_size=9,
        )
    )
    cells = draw(st.sampled_from([1, 7, 40, 1 << 14]))
    return model, np.array(rows, dtype=float), columns, grids, cells


def predict_each_point(model, rows, columns, grids):
    """predict called once per grid point on all rows."""
    out = np.empty((rows.shape[0],) + tuple(g.size for g in grids))
    for point in itertools.product(*(range(g.size) for g in grids)):
        x = np.array(rows)
        x[:, columns] = [g[i] for g, i in zip(grids, point)]
        out[(slice(None),) + point] = predict(model, x)
    return out


@given(grid_case())
@settings(max_examples=300, deadline=None)
def test_predict_grid_equals_predict_at_every_point_bit_for_bit(case):
    model, rows, columns, grids, cells = case
    want = predict_each_point(model, rows, columns, grids)
    with mock.patch.object(welloop.trees, "_BLOCK_CELLS", cells):
        got = predict_grid(model, rows, columns, grids)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def structured_grid_case(draw):
    """A drawn forest over four features, swept along three of them, that
    holds a tree with no split on any swept column, a tree that splits
    twice at one threshold on one path, a one-leaf tree, and drawn trees;
    every grid holds a split threshold of its column."""
    columns = draw(st.permutations([0, 1, 2]))

    def leaf():
        return TreeNode(cover=1, value=draw(LEAF))

    def split(feature, threshold, left, right):
        return TreeNode(
            cover=left.cover + right.cover,
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
        )

    column, threshold = draw(st.sampled_from(columns)), draw(GRID)
    repeated = split(column, threshold, split(column, threshold, leaf(), leaf()), leaf())
    unswept = split(3, draw(GRID), leaf(), split(3, draw(GRID), leaf(), leaf()))
    drawn = draw(st.lists(drawn_tree(4, 4), min_size=1, max_size=4))
    trees = draw(st.permutations([repeated, unswept, leaf(), *drawn]))
    model = TreeEnsemble(
        kind="GBDT",
        trees=tuple(trees),
        base_score=draw(LEAF),
        learning_rate=draw(st.floats(0.01, 1.0)),
        feature_names=("f0", "f1", "f2", "f3"),
    )
    grids = [
        np.array(sorted({threshold} | set(draw(st.lists(GRID | LEAF, max_size=6)))))
        if c == column
        else np.array(sorted({draw(GRID)} | set(draw(st.lists(GRID | LEAF, max_size=6)))))
        for c in columns
    ]
    rows = draw(st.lists(st.lists(GRID | LEAF, min_size=4, max_size=4), min_size=1, max_size=5))
    return model, np.array(rows, dtype=float), columns, grids


@given(structured_grid_case())
@settings(max_examples=150, deadline=None)
def test_predict_grid_on_three_axes_of_repeated_and_absent_splits_is_predict(case):
    model, rows, columns, grids = case
    assert np.array_equal(
        predict_grid(model, rows, columns, grids), predict_each_point(model, rows, columns, grids)
    )


@functools.cache
def models_of_a_field():
    table = synthesize(seed=7, n=40, noise_sd=0.1)
    x, y, names = table.feature_matrix(), table.target(), table.feature_names
    hp = HyperParams(n_trees=5, max_depth=3)
    models = [FIT_FUNCTIONS[kind](x, y, hp, names) for kind in KINDS]
    models.append(fit_stacked(x, y, dict.fromkeys(KINDS, hp), k=3, seed=7, feature_names=names))
    return x, names, models


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_predict_grid_equals_predict_on_fitted_models_with_an_integer_axis(data):
    """Fitted forests swept over `stage count`, an integer factor split
    at half-integers, beside axes whose grids hold their split thresholds."""
    x, names, models = models_of_a_field()
    model = data.draw(st.sampled_from(models))
    stages = names.index("stage count")
    others = [j for j in range(len(names)) if j != stages]
    extra = data.draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    columns = data.draw(st.permutations([stages] + extra))
    flat, _ = welloop.trees.compiled(model)
    grids = []
    for j in columns:
        if j == stages:
            grids.append(np.arange(x[:, j].min(), x[:, j].max() + 1.0))
            continue
        splits = flat.thresholds(j)[1].tolist()
        picked = data.draw(st.lists(st.sampled_from(splits), max_size=6)) if splits else []
        grids.append(np.unique(np.r_[np.linspace(x[:, j].min(), x[:, j].max(), 4), picked]))
    anchors = data.draw(st.lists(st.integers(0, x.shape[0] - 1), min_size=1, max_size=40))
    rows = x[anchors]
    want = predict_each_point(model, rows, columns, grids)
    cells = data.draw(st.sampled_from([50, 1 << 14]))
    with mock.patch.object(welloop.trees, "_BLOCK_CELLS", cells):
        got = predict_grid(model, rows, columns, grids)
    assert np.array_equal(got, want)


def test_predict_grid_refuses_a_decreasing_grid_an_unmatched_or_a_repeated_column():
    """Unchecked, a decreasing grid gives every point the first point's
    value, one grid for two columns sweeps both together, and a repeated
    column is taken; each is refused."""
    x, names, models = models_of_a_field()
    column = names.index("stimulated length")
    rows, grid = x[:2], np.array([3000.0, 1500.0, 1000.0])
    for model in models:
        with pytest.raises(ValueError, match="not non-decreasing"):
            predict_grid(model, rows, [column], [grid])
        with pytest.raises(ValueError, match="2 columns for 1 grids"):
            predict_grid(model, rows, [column, column + 1], [grid[::-1]])
        with pytest.raises(ValueError, match="swept twice"):
            predict_grid(model, rows, [column, column], [grid[::-1], grid[::-1]])


def test_predict_grid_takes_equal_neighbouring_grid_values_as_predict_does():
    """A linspace over a tiny span repeats values; each repeated point,
    on a split threshold or beside one, is what predict gives."""
    x, names, models = models_of_a_field()
    columns = [names.index("stimulated length"), names.index("stage count")]
    for model in models:
        flat, _ = welloop.trees.compiled(model)
        grids = []
        for j in columns:
            splits = flat.thresholds(j)[1]
            t = splits[0] if splits.size else x[:, j].max()
            tiny = np.linspace(t, np.nextafter(t, np.inf), 5)
            assert (np.diff(tiny) == 0).any()
            grids.append(np.sort(np.r_[tiny, np.repeat(np.linspace(x[:, j].min(), t, 3), 2)]))
        want = predict_each_point(model, x[:3], columns, grids)
        assert np.array_equal(predict_grid(model, x[:3], columns, grids), want)


# --- random forest -----------------------------------------------------------------


def test_rf_is_deterministic_per_seed(rng):
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    a = fit_rf(x, y, HyperParams(n_trees=5, seed=9))
    b = fit_rf(x, y, HyperParams(n_trees=5, seed=9))
    c = fit_rf(x, y, HyperParams(n_trees=5, seed=10))
    assert np.array_equal(predict(a, x), predict(b, x))
    assert not np.array_equal(predict(a, x), predict(c, x))


def test_rf_feature_fraction_still_deterministic(rng):
    x = rng.normal(size=(30, 4))
    y = x[:, 0] + rng.normal(size=30) * 0.1
    a = fit_rf(x, y, HyperParams(n_trees=4, feature_fraction=0.5, seed=2))
    b = fit_rf(x, y, HyperParams(n_trees=4, feature_fraction=0.5, seed=2))
    assert np.array_equal(predict(a, x), predict(b, x))


# --- gradient boosting ---------------------------------------------------------------


def test_gbdt_training_loss_never_increases_across_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 4))
        y = x[:, 0] - 2.0 * x[:, 1] + rng.normal(size=40) * 0.2
        model = fit_gbdt(x, y, HyperParams(n_trees=30, max_depth=2, seed=seed))
        losses = np.array(model.train_loss)
        assert losses.shape == (31,)
        assert np.all(np.diff(losses) <= 1e-12)


def test_gbdt_loss_starts_at_target_variance(rng):
    x = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    model = fit_gbdt(x, y, HyperParams(n_trees=3))
    assert model.train_loss[0] == pytest.approx(np.mean((y - y.mean()) ** 2), abs=1e-12)
    assert model.base_score == pytest.approx(y.mean(), abs=1e-15)


def test_xgb_matches_gbdt_stage_by_stage_at_zero_regularization(rng):
    # distinct (feature, threshold) picks that realize the same row partition
    # are fair game, so compare what each stage outputs rather than structure
    def tree_out(node, row):
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    for trial in range(5):
        x = rng.normal(size=(35, 3))
        y = x[:, 0] + rng.normal(size=35) * 0.3
        hp = HyperParams(n_trees=8, max_depth=3, lam=0.0, gamma=0.0, seed=trial)
        gb = fit_gbdt(x, y, hp)
        xg = fit_xgb(x, y, hp)
        assert xg.base_score == gb.base_score
        assert len(xg.trees) == len(gb.trees)
        for tg, tx in zip(gb.trees, xg.trees):
            for row in x:
                assert tree_out(tx, row) == pytest.approx(tree_out(tg, row), abs=1e-10)


def test_xgb_lambda_shrinks_leaves_by_the_derived_amount():
    # two points, one stage, unit learning rate: leaves are -G/(n + lam)
    # around the base of 1, so predictions are 1 -/+ 1/(1 + lam)
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 2.0])
    for lam in (0.0, 1.0, 3.0):
        hp = HyperParams(
            n_trees=1, max_depth=1, min_samples_leaf=1, learning_rate=1.0, lam=lam
        )
        model = fit_xgb(x, y, hp)
        want = np.array([1.0 - 1.0 / (1.0 + lam), 1.0 + 1.0 / (1.0 + lam)])
        assert np.allclose(predict(model, x), want, atol=1e-12)


def test_xgb_gamma_vetoes_low_gain_splits():
    # the only split has second-order gain exactly 1 at lam = 0
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 2.0])
    base = dict(n_trees=1, max_depth=1, min_samples_leaf=1, learning_rate=1.0, lam=0.0)
    split = fit_xgb(x, y, HyperParams(gamma=0.5, **base))
    assert not split.trees[0].is_leaf
    vetoed = fit_xgb(x, y, HyperParams(gamma=1.5, **base))
    assert vetoed.trees[0].is_leaf
    assert np.allclose(predict(vetoed, x), [1.0, 1.0], atol=1e-15)


def test_boosting_subsample_is_deterministic_and_distinct(rng):
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    a = fit_gbdt(x, y, HyperParams(n_trees=6, subsample_fraction=0.5, seed=3))
    b = fit_gbdt(x, y, HyperParams(n_trees=6, subsample_fraction=0.5, seed=3))
    full = fit_gbdt(x, y, HyperParams(n_trees=6, subsample_fraction=1.0, seed=3))
    assert np.array_equal(predict(a, x), predict(b, x))
    assert not np.array_equal(predict(a, x), predict(full, x))


def test_the_grower_writes_each_training_row_its_leaf_value(rng):
    """Full-sample boosting takes each stage's output on its training rows
    from the grower; a walk of the compiled tree is the reference."""
    trees = welloop.trees
    for trial in range(30):
        n = int(rng.integers(2, 120))
        x = rng.normal(size=(n, int(rng.integers(1, 6))))
        x[:, 0] = np.round(x[:, 0], 1)  # tied values
        t = rng.normal(size=n)
        hp = HyperParams(
            max_depth=int(rng.integers(0, 6)),
            min_samples_leaf=int(rng.integers(1, 4)),
            feature_fraction=float(rng.choice([1.0, 0.5])),
            lam=float(rng.uniform(0.0, 2.0)),
        )
        for mode in ("mean", "xgb"):
            row_value = np.full(n, np.nan)
            presorted = trees._presort(trees._rank(x), np.arange(n))
            tree = trees._grow(t, presorted, hp, rng, mode, row_value)
            want = trees.compile_trees((tree,)).leaf_values(x)[0]
            assert np.array_equal(row_value, want)


def presort_table(rng, n):
    """n rows: heavy ties with both zeros in one column, a copy of that
    column, a constant column, a column rounded to one decimal and a
    continuous one."""
    ties = rng.integers(-3, 4, size=n).astype(float)
    ties[ties == 0] = np.where(rng.random(int((ties == 0).sum())) < 0.5, -0.0, 0.0)
    return np.column_stack([
        ties,
        np.full(n, 2.5),
        np.round(rng.normal(size=n), 1),
        rng.normal(size=n),
        ties,
    ])


@pytest.mark.parametrize("n", [2, 17, 255, 256, 257])
def test_the_rank_presort_is_the_float_presort_bit_for_bit(rng, n):
    """Sorting a fit's ranks gives, for any rows of the fit, the order and
    values a stable float sort of those rows gives, -0.0 and 0.0 included;
    at 256 rows the ranks move from 8-bit to 16-bit integers."""
    trees = welloop.trees
    x = presort_table(rng, n)
    ranked = trees._rank(x)
    assert ranked[0].dtype.itemsize == (1 if n < 256 else 2)
    draws = {
        "all": np.arange(n),
        "bootstrap": rng.integers(0, n, size=n),
        "subsample": rng.choice(n, size=max(1, (7 * n) // 10), replace=False),
    }
    for label, idx in draws.items():
        order, values = trees._presort(ranked, idx)
        want = np.argsort(x[idx], axis=0, kind="stable")
        want_values = np.take_along_axis(x[idx], want, axis=0)
        assert np.array_equal(order, want.T), label
        assert values.tobytes() == np.ascontiguousarray(want_values.T).tobytes(), label


# --- hyperparameter search -------------------------------------------------------------


def test_sample_space_types_and_determinism():
    space = {
        "max_depth": {"range": [2, 5]},
        "learning_rate": {"range": [0.05, 0.5]},
        "n_trees": {"choices": [10, 20, 40]},
    }
    combos = sample_space(space, budget=12, seed=7)
    again = sample_space(space, budget=12, seed=7)
    assert combos == again
    assert len(combos) == 12
    for combo in combos:
        assert list(combo) == ["max_depth", "learning_rate", "n_trees"]
        assert isinstance(combo["max_depth"], int) and 2 <= combo["max_depth"] <= 5
        assert isinstance(combo["learning_rate"], float)
        assert 0.05 <= combo["learning_rate"] <= 0.5
        assert combo["n_trees"] in (10, 20, 40)


def test_float_fields_draw_floats_even_from_integer_range_ends():
    space = {"gamma": {"range": [0, 1]}, "lam": {"range": [1, 3]}}
    combos = sample_space(space, budget=6, seed=0)
    for combo in combos:
        assert isinstance(combo["gamma"], float) and 0 <= combo["gamma"] <= 1
        assert isinstance(combo["lam"], float) and 1 <= combo["lam"] <= 3
    assert not all(c["gamma"].is_integer() and c["lam"].is_integer() for c in combos)
    # integer fields and float-ended ranges draw what they always drew
    space = {
        "max_depth": {"range": [2, 5]},
        "learning_rate": {"range": [0.05, 0.5]},
        "n_trees": {"choices": [10, 20, 40]},
        "seed": {"range": [0, 9]},
    }
    draws = sample_space(space, budget=4, seed=3)
    assert [tuple(d.values()) for d in draws] == [
        (5, 0.14550383041976506, 20, 2),
        (4, 0.34543822111122996, 10, 3),
        (5, 0.3961542747794724, 10, 2),
        (4, 0.053216566893698025, 20, 7),
    ]


def test_sample_space_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sample_space({"max_depth": {"range": [5, 2]}}, budget=3, seed=0)
    with pytest.raises(ValueError):
        sample_space({"n_trees": {"choices": []}}, budget=3, seed=0)
    for entry in ([10, 20], (2, 5), {"range": [2, 5], "choices": [3]}):
        with pytest.raises(ValueError, match="n_trees: expected range or choices"):
            sample_space({"n_trees": entry}, budget=3, seed=0)


def test_sample_space_draws_integers_up_to_int64_and_refuses_ends_past_it():
    top = 2**63 - 1
    draws = sample_space({"max_depth": {"range": [top - 1, top]}}, budget=8, seed=0)
    assert {d["max_depth"] for d in draws} <= {top - 1, top}
    with pytest.raises(ValueError, match=rf"^max_depth.range: expected an integer high <= {top}$"):
        sample_space({"max_depth": {"range": [1, top + 1]}}, budget=1, seed=0)
    # a float field's range is not drawn as integers
    assert 0 <= sample_space({"gamma": {"range": [0, top + 1]}}, budget=1, seed=0)[0]["gamma"]


@pytest.mark.parametrize(
    "entry, problem",
    [
        # a TypeError, single characters drawn, an unpacking message
        ({"range": [1, None]}, r"n_trees.range: expected \[low, high\] with low <= high"),
        ({"choices": "abc"}, "n_trees.choices: expected a non-empty list"),
        ({"range": [1, 2, 3]}, r"n_trees.range: expected \[low, high\]"),
        ({"range": [1, math.inf]}, r"n_trees.range: expected \[low, high\] with low <= high"),
        ({"range": [True, 5]}, r"n_trees.range: expected \[low, high\] with low <= high"),
        ({"range": "15"}, r"n_trees.range: expected \[low, high\] with low <= high"),
    ],
)
def test_sample_space_refuses_malformed_entries_naming_the_hyperparameter(entry, problem):
    with pytest.raises(ValueError, match=problem):
        sample_space({"n_trees": entry}, budget=3, seed=0)


def test_hyperparams_refuse_non_integral_sizes():
    for name in ("n_trees", "max_depth", "min_samples_leaf", "seed"):
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                HyperParams(**{name: bad})
        assert getattr(HyperParams(**{name: np.int64(3)}), name) == 3


def test_hyperparams_refuse_non_finite_rates():
    for name in ("learning_rate", "lam", "gamma"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                HyperParams(**{name: bad})
    # a non-finite fraction already falls outside (0, 1]
    with pytest.raises(ValueError, match="subsample_fraction must be in"):
        HyperParams(subsample_fraction=math.nan)


def test_tune_random_search_returns_the_cv_argmin(rng):
    x = rng.normal(size=(30, 3))
    y = x[:, 0] + 0.1 * rng.normal(size=30)
    space = {"max_depth": {"range": [1, 3]}, "n_trees": {"choices": [2, 5]}}
    best_hp, best_score = tune_random_search(
        x, y, "GBDT", space, budget=6, k=3, seed=11
    )
    # replay the exact draw sequence through the public pieces
    from welloop.utils import mix_seed

    base = HyperParams(seed=mix_seed(11, 13))
    rescored = [
        cv_mse(x, y, "GBDT", replace(base, **combo), k=3, seed=11)
        for combo in sample_space(space, budget=6, seed=11)
    ]
    assert best_score == min(rescored)
    assert best_score == cv_mse(x, y, "GBDT", best_hp, k=3, seed=11)


def test_tune_random_search_refuses_an_unknown_hyperparameter_by_name():
    """An unknown name used to reach HyperParams as a TypeError."""
    x, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    with pytest.raises(ValueError, match="^depth: not a hyperparameter$"):
        tune_random_search(x, y, "RF", {"depth": {"choices": [2]}}, budget=1, k=2)


# --- golden models -----------------------------------------------------------------


def golden_data():
    """Seeded rows with ties: an integer-valued column (and a copy of it,
    so two features tie on every cut), a constant column and a column
    rounded to one decimal."""
    rng = np.random.default_rng(424242)
    n = 240
    x = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 6, size=n).astype(float),
        np.full(n, 2.5),
        np.round(rng.normal(size=n), 1),
        rng.uniform(-3, 3, size=n),
    ])
    x = np.column_stack([x, x[:, 1]])
    y = (
        2.0 * x[:, 0]
        + np.abs(x[:, 4])
        + 0.5 * x[:, 1] * (x[:, 3] > 0)
        + rng.normal(size=n) * 0.3
    )
    return x, y


# sha256 of json.dumps(ensemble_to_json(model), sort_keys=True), pinned from
# models grown by a search that sorted every node's rows afresh for each
# feature; the presorted search must reproduce those models byte for byte
GOLDEN_MODELS = {
    "RF-default": "60d392eae0d1b002ca6395f048baa860a7b7cf236bcc7d95cdee1857bfe44299",
    "GBDT-default": "f406cd05f94762ad921b400d6e74c9d27141c149cb41d7cd1b8df96f31d573f7",
    "XGB-default": "29f5045f72ed463f0f0e20e46b18b314abbe8fab051bdd162fcc346c18b0a564",
    "RF-tweaked": "b8937cbc756bf88e0c49457e78e0e661d9c1f2d934e5b9c37821e2015b0513cf",
    "GBDT-tweaked": "b499aa220523e1db93e5e74665277cb1912a4afef627df2036d1af62e003d432",
    "XGB-tweaked": "30bf1c67a381afb5c118ff4e8fd6a0ed8c45e1320ad743f0cd8e23cea948021c",
    "stacked-RF-0": "7667fb1bd6f17c58ed3e7b870caec80eb395ffd80cb219e6435bc9febcfb6cf4",
    "stacked-RF-1": "be5fa1fd4df731e6ef40ae375f40567b2e49bb89524fa210752bdffd49fd5195",
    "stacked-RF-2": "400e34b817efa53742e5db82dea2482b3b321da13ebb874fc07fd5adbe535667",
    "stacked-RF-3": "995ef2b35a86c8890940f7ee7416f4a482e131ba2d3a04a6c580eaf729c61636",
    "stacked-RF-4": "574b8e46058c306d24d59e1b0ae051ee8681b8d8c90db59c49ff355cce278558",
    "stacked-GBDT-0": "10d5285c3958e306bdc1f58fe524e3ba5f614b1f0cbb9627cf470e1cd874abe8",
    "stacked-GBDT-1": "5f6f5cf5d5ed20a1b079cb22b675cf0a9169a812d6053f7b6602056938966efb",
    "stacked-GBDT-2": "4b5ee941bcc780719845bf7d7262454b5926e187065a2e5e0be0a6614d406992",
    "stacked-GBDT-3": "c822bdd10776d401a07c17918b74a30c487b89e1f0ece6f543e660ce98d8063f",
    "stacked-GBDT-4": "3d87efeea2d53179997fb21e45e5965965fc186a268cd93bcdedbbbaa6bb69f0",
    "stacked-XGB-0": "938d0205a3ce906b7a81a3e357955d802419d8300d364e8e5b6bcd19efa898d1",
    "stacked-XGB-1": "6f96579154b40d7c3d13efe5bf054baa96cf5a173f6e9ce28e1d17b429c8a442",
    "stacked-XGB-2": "dc313eaea5fa8c157bf0b56fbeb5500c02ef9d80f4cea6df3dc8fbd376bf56d8",
    "stacked-XGB-3": "470ad4aea8fda6849cff1b95a4da93276dd6e4063ad32933dde774b7e489f6f0",
    "stacked-XGB-4": "8e9258adfcf782dd9e779d27ee1c68c01f5ecee34eebff2b878fd8217c83c834",
    "stacked-meta": "19d4c4833e816d55a67bd54491d64789145cda24497b1fc6458d9b739dd51c87",
}


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_grown_models_match_the_golden_hashes():
    x, y = golden_data()
    base = HyperParams(n_trees=8, max_depth=4, seed=7)
    tweaked = replace(
        base,
        feature_fraction=0.6,
        subsample_fraction=0.7,
        min_samples_leaf=3,
        lam=0.5,
        gamma=0.01,
    )
    got = {}
    for label, hp in (("default", base), ("tweaked", tweaked)):
        for kind, fit in FIT_FUNCTIONS.items():
            got[f"{kind}-{label}"] = _digest(ensemble_to_json(fit(x, y, hp)))
    hps = {kind: HyperParams(n_trees=5, max_depth=4, seed=0) for kind in FIT_FUNCTIONS}
    stacked = fit_stacked(x, y, hps, k=5, seed=5)
    for kind, per_fold in zip(stacked.base_kinds, stacked.sub_models):
        for j, model in enumerate(per_fold):
            got[f"stacked-{kind}-{j}"] = _digest(ensemble_to_json(model))
    got["stacked-meta"] = _digest(
        [float(w) for w in stacked.meta_weights] + [stacked.meta_intercept]
    )
    assert got == GOLDEN_MODELS


# sha256 as above, pinned from the grower that gave every child, leaf or
# not, its cut-down presorted arrays: trees that stop at depth 0, 1 or 2,
# children that are leaves by size, and per-split feature draws next to
# such leaves, which must leave the rng draw order as it was
EDGE_MODELS = {
    "RF-depth0": "205450199bb2ae599f7b6ae2842d678ad9893e85ad847459c05017896fb24fb4",
    "GBDT-depth0": "99d24bef3c4baab09719d0e3c6ad5ca7f6ff229fdb26af3e0c648e940b01e73a",
    "XGB-depth0": "33ae881419a229578e393c5004dd92ed90a722bd2b98c10efa8c4f013e853048",
    "RF-depth1": "ae800d5305abbe03985e1cc3822a28d8c9cb9fe859b6442855c9c54464f3d797",
    "GBDT-depth1": "1af0879010b2cd25bb45695505b3952321a9f07636196accd24e422adeea843f",
    "XGB-depth1": "7ef48b81b6dae1f8acdb5903ae6b11b2790f4ac0559caa5e6caf3528f309bfa7",
    "RF-depth2": "9441a865393772da3399783a540009e766fdbb3e18509b8f1c46467718625823",
    "GBDT-depth2": "fcb9113f28a7f3e4c7587bb30ce1abc0fb6dc2041b4a52faf5f28a8ac6565ef4",
    "XGB-depth2": "9362adf460b532ccf16605533e778cba4244135d0dd0b4fcb2602309e8151ec7",
    "RF-leaf50": "bb81719533c0cd4fc668c1d521bf0780063d9edc494ef5d923a029dfd7c917a2",
    "GBDT-leaf50": "622783349b68baa717de62c6656a5a1207e43aef1bfc9d2e122b4ba8760b7ec4",
    "XGB-leaf50": "4b43b79ecf43b2a82ad0840aab5b6efb6a3c64ba0399f217fdf7f37a9c0f1a94",
    "RF-drawn": "807e04dc1b1115ffbe1212b920f6145e57d7ca96695ea9c23852e46d0d23a3fd",
    "GBDT-drawn": "0f4a6bb8d58d9944af307978eb0275aca9731fc62ac342741625f07686a2b846",
    "XGB-drawn": "cce2e9fe68ef7cfa7e5a49257d9f9b6adca40086ed8bc84a52f156b4cbf055ac",
}


def test_grown_models_at_the_growers_edges_match_their_hashes():
    x, y = golden_data()
    base = HyperParams(n_trees=8, max_depth=4, seed=7)
    configs = {
        "depth0": replace(base, max_depth=0),
        "depth1": replace(base, max_depth=1),
        "depth2": replace(base, max_depth=2),
        "leaf50": replace(base, min_samples_leaf=50),
        "drawn": replace(
            base, feature_fraction=0.5, min_samples_leaf=30, subsample_fraction=0.7
        ),
    }
    got = {
        f"{kind}-{label}": _digest(ensemble_to_json(fit(x, y, hp)))
        for label, hp in configs.items()
        for kind, fit in FIT_FUNCTIONS.items()
    }
    assert got == EDGE_MODELS


# --- serialization -----------------------------------------------------------------


def test_ensemble_save_load_round_trip_is_exact(rng, tmp_path):
    for kind in ("RF", "GBDT", "XGB"):
        model, x = random_fitted_ensemble(rng, kind=kind)
        path = tmp_path / f"{kind}.json"
        save_ensemble(model, path)
        back = load_ensemble(path)
        assert back.kind == model.kind
        assert back.feature_names == model.feature_names
        assert np.array_equal(predict(back, x), predict(model, x))


def test_load_rejects_inconsistent_covers(rng, tmp_path):
    model, _ = random_fitted_ensemble(rng, kind="GBDT")
    obj = ensemble_to_json(model)

    def first_internal(node):
        if "feature" in node and node.get("feature") is not None:
            return node
        return None

    # corrupt the first internal node's cover
    for tree in obj["trees"]:
        target = first_internal(tree)
        if target is not None:
            target["cover"] = target["cover"] + 1
            break
    else:
        pytest.skip("all-stump ensemble drawn")
    with pytest.raises(ValueError):
        ensemble_from_json(obj)


def test_json_round_trip_through_disk_matches_memory(rng, tmp_path):
    model, x = random_fitted_ensemble(rng)
    path = tmp_path / "m.json"
    save_ensemble(model, path)
    direct = ensemble_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert np.array_equal(predict(direct, x), predict(model, x))


def _stump_json(**node):
    model = {
        "kind": "GBDT",
        "base_score": 0.5,
        "learning_rate": 0.1,
        "feature_names": ["a", "b"],
        "train_loss": None,
        "trees": [
            {
                "cover": 2,
                "feature": 1,
                "threshold": 0.0,
                "left": {"cover": 1, "value": -1.0},
                "right": {"cover": 1, "value": 1.0},
            }
        ],
    }
    model["trees"][0].update(node)
    return model


def _deep_json(depth):
    node = {"cover": 1, "value": 0.0}
    for _ in range(depth):
        node = {"cover": node["cover"] + 1, "feature": 0, "threshold": 0.0,
                "left": {"cover": 1, "value": 1.0}, "right": node}
    return {"kind": "RF", "base_score": 0.0, "learning_rate": 1.0,
            "feature_names": ["a"], "trees": [node]}


@pytest.mark.parametrize(
    "obj, problem",
    [
        ({}, "model: missing key 'kind'"),
        ([], "model: expected object, got list"),
        ({k: v for k, v in _stump_json().items() if k != "trees"}, "missing key 'trees'"),
        (dict(_stump_json(), kind=["GBDT"]), "model.kind: expected string, got list"),
        (dict(_stump_json(), feature_names="ab"), "feature_names: expected list"),
        (dict(_stump_json(), feature_names=["a", 2]), r"feature_names\[1\]: expected string"),
        (dict(_stump_json(), base_score="0.5"), "base_score: expected number, got str"),
        (dict(_stump_json(), learning_rate=True), "learning_rate: expected number, got bool"),
        (dict(_stump_json(), train_loss=[1.0, None]), r"train_loss\[1\]: expected number"),
        (dict(_stump_json(), train_loss=[10**400]), r"train_loss\[0\]: number out of range"),
        (dict(_stump_json(), trees=[None]), r"trees\[0\]: expected object, got NoneType"),
        (_stump_json(cover=2.0), r"trees\[0\].cover: expected integer, got float"),
        (_stump_json(left={"cover": 2}), r"left: node has neither a value nor a split"),
        (_stump_json(left=[]), r"trees\[0\].left: expected object"),
        (_stump_json(threshold=None), r"trees\[0\].threshold: expected number"),
        (_stump_json(feature=2), r"trees\[0\].feature: 2 is not one of 2 features"),
        (_stump_json(feature=-1), "is not one of 2 features"),
        (_stump_json(left={"cover": 1, "value": 10**400}), "number out of range"),
        (_deep_json(100_000), "nested deeper than the recursion limit"),
        (_stump_json(threshold=math.nan), r"trees\[0\].threshold: expected a finite number"),
        (
            _stump_json(right={"cover": 1, "value": math.inf}),
            r"trees\[0\].right.value: expected a finite number, got inf",
        ),
        (dict(_stump_json(), base_score=-math.inf), "base_score: expected a finite number"),
        (dict(_stump_json(), train_loss=[1.0, math.nan]), r"train_loss\[1\]: expected a finite"),
        (
            _stump_json(left={"cover": 0, "value": 1.0}),
            r"trees\[0\].left: node cover must be in \[1, 2\*\*31\)",
        ),
        (
            _stump_json(cover=2**31, left={"cover": 2**31 - 1, "value": 1.0}),
            r"trees\[0\]: node cover must be in \[1, 2\*\*31\)",
        ),
    ],
)
def test_malformed_model_json_names_its_problem(obj, problem):
    with pytest.raises(ValueError, match=problem):
        ensemble_from_json(obj)


def test_well_formed_model_json_loads():
    model = ensemble_from_json(_stump_json())
    assert predict(model, [[0.0, 0.0], [0.0, 1.0]]).tolist() == [0.4, 0.6]
    assert ensemble_from_json(_deep_json(50)).trees[0].cover == 51


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def damaged_model_json(draw):
    """A drawn model's JSON with one or two keys or items somewhere in it
    deleted or replaced by any JSON value."""
    model, _ = draw(drawn_case())
    obj = ensemble_to_json(model)
    for _ in range(draw(st.integers(1, 2))):
        parent, key, node = None, None, obj
        while (
            isinstance(node, (dict, list))
            and node
            and (parent is None or draw(st.integers(0, 4)) > 0)
        ):
            parent = node
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            node = node[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return obj


@given(damaged_model_json() | JSON)
@settings(max_examples=500, deadline=None)
def test_any_json_value_loads_or_raises_value_error(obj):
    try:
        model = ensemble_from_json(obj)
    except ValueError:
        return
    assert isinstance(model, TreeEnsemble)


def test_saving_a_tree_nested_too_deep_raises_value_error(tmp_path):
    model = TreeEnsemble("RF", (chain_tree(3000),), 0.0, 1.0, ("a",))
    with pytest.raises(ValueError, match="model.trees: nested deeper"):
        save_ensemble(model, tmp_path / "deep.json")
    assert list(tmp_path.iterdir()) == []


def test_a_model_file_nested_too_deep_raises_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(deep_model_text(100_000), encoding="utf-8")
    with pytest.raises(ValueError, match="deep.json: nested deeper"):
        load_ensemble(path)


def test_integer_hyperparameters_are_the_int_annotated_fields():
    assert welloop.trees.INTEGER_FIELDS == ("n_trees", "max_depth", "min_samples_leaf", "seed")
    for name in welloop.trees.INTEGER_FIELDS:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HyperParams(**{name: 2.0})
