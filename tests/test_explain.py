import csv
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import pearsonr, rankdata, spearmanr

import welloop.explain
from conftest import (
    CARD_PAYOFFS,
    chain_tree,
    drawn_case,
    expectation_oracle,
    interaction_oracle,
    naive_predict,
    random_fitted_ensemble,
    random_manual_ensemble,
    shapley_permutation_oracle,
)
from welloop.data import FactorSpec, WellTable
from welloop.explain import (
    AttributionMatrix,
    CoalitionalGame,
    ModelIntegrityError,
    baseline_correlations,
    explain_well,
    magnitude_order,
    rank_factors,
    row_problems,
    shap_interactions,
    shapley_exact,
    supervised_cluster,
    tree_expectation,
    tree_game,
    tree_shap,
    write_dependency_csv,
    write_summary_csv,
)
from welloop.stack import fit_stacked
from welloop.trees import (
    FIT_FUNCTIONS,
    HyperParams,
    TreeEnsemble,
    TreeNode,
    fit_gbdt,
    fit_rf,
    fit_xgb,
    predict,
)


def make_table(columns):
    names = [k for k in columns if k != "y"]
    specs = [FactorSpec(k, "-", "geologic") for k in names]
    specs.append(FactorSpec("y", "1e8 m3", "production"))
    vals = np.column_stack(
        [np.asarray(columns[k], dtype=float) for k in names + ["y"]]
    )
    return WellTable(tuple(specs), vals)


def table_payoff(table):
    def payoff(s):
        mask = sum(1 << i for i in s)
        return table[mask]

    return payoff


# --- exact Shapley ----------------------------------------------------------------


def test_card_game_splits_the_pot_fairly():
    game = CoalitionalGame(3, lambda s: CARD_PAYOFFS[s])
    phi = shapley_exact(game)
    assert np.allclose(phi, [23.0 / 3.0, 19.0 / 6.0, 49.0 / 6.0], atol=1e-12)
    assert phi.sum() == pytest.approx(19.0, abs=1e-12)
    assert [round(v, 1) for v in phi] == [7.7, 3.2, 8.2]


def test_two_player_game_by_hand():
    table = {
        frozenset(): 0.0,
        frozenset({0}): 1.0,
        frozenset({1}): 2.0,
        frozenset({0, 1}): 5.0,
    }
    phi = shapley_exact(CoalitionalGame(2, lambda s: table[s]))
    assert np.allclose(phi, [2.0, 3.0], atol=1e-15)


def test_exact_values_match_permutation_averages(rng):
    for m in (2, 3, 4, 5):
        table = rng.normal(size=1 << m)
        payoff = table_payoff(table)
        got = shapley_exact(CoalitionalGame(m, payoff))
        want = shapley_permutation_oracle(payoff, m)
        assert np.allclose(got, want, atol=1e-10)


@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_shapley_efficiency(table):
    table = np.array(table)
    phi = shapley_exact(CoalitionalGame(3, table_payoff(table)))
    assert phi.sum() == pytest.approx(table[7] - table[0], abs=1e-10)


@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_shapley_symmetry_for_interchangeable_players(table):
    table = np.array(table)

    def swap01(mask):
        kept = mask & ~0b11
        return kept | ((mask & 1) << 1) | ((mask >> 1) & 1)

    sym = np.array([(table[m] + table[swap01(m)]) / 2.0 for m in range(8)])
    phi = shapley_exact(CoalitionalGame(3, table_payoff(sym)))
    assert phi[0] == pytest.approx(phi[1], abs=1e-10)


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_shapley_gives_nothing_to_a_dummy_player(small):
    # player 2 never changes the payoff
    def payoff(s):
        mask = sum(1 << i for i in s if i != 2)
        return small[mask]

    phi = shapley_exact(CoalitionalGame(3, payoff))
    assert phi[2] == 0.0


@given(
    st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    st.floats(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_shapley_linearity(pa, pb, alpha):
    pa, pb = np.array(pa), np.array(pb)
    phi_a = shapley_exact(CoalitionalGame(3, table_payoff(pa)))
    phi_b = shapley_exact(CoalitionalGame(3, table_payoff(pb)))
    phi_mix = shapley_exact(CoalitionalGame(3, table_payoff(alpha * pa + pb)))
    assert np.allclose(phi_mix, alpha * phi_a + phi_b, atol=1e-9)


def test_exact_enumeration_refuses_wide_games():
    with pytest.raises(ValueError, match="tree_shap"):
        shapley_exact(CoalitionalGame(21, lambda s: 0.0))
    with pytest.raises(ValueError):
        shapley_exact(CoalitionalGame(0, lambda s: 0.0))


# --- path-dependent expectation ------------------------------------------------------


def hand_tree():
    # feature 0 at 0.0 splits 4/6; the right child splits on feature 1
    return TreeNode(
        cover=10,
        feature=0,
        threshold=0.0,
        left=TreeNode(cover=4, value=1.0),
        right=TreeNode(
            cover=6,
            feature=1,
            threshold=0.0,
            left=TreeNode(cover=2, value=2.0),
            right=TreeNode(cover=4, value=5.0),
        ),
    )


def test_expectation_hand_values():
    model = TreeEnsemble("RF", (hand_tree(),), 0.0, 1.0, ("a", "b"))
    x = [1.0, -1.0]
    assert tree_expectation(model, x, set()) == pytest.approx(2.8, abs=1e-15)
    assert tree_expectation(model, x, {0}) == pytest.approx(4.0, abs=1e-15)
    assert tree_expectation(model, x, {1}) == pytest.approx(1.6, abs=1e-15)
    assert tree_expectation(model, x, {0, 1}) == pytest.approx(2.0, abs=1e-15)


def test_expectation_applies_base_and_learning_rate():
    model = TreeEnsemble("GBDT", (hand_tree(),), 0.5, 2.0, ("a", "b"))
    assert tree_expectation(model, [1.0, -1.0], {0, 1}) == pytest.approx(
        0.5 + 2.0 * 2.0, abs=1e-15
    )


def test_expectation_with_all_features_equals_prediction(rng):
    for _ in range(15):
        model = random_manual_ensemble(rng)
        m = len(model.feature_names)
        x = rng.normal(size=m)
        full = tree_expectation(model, x, set(range(m)))
        assert full == pytest.approx(naive_predict(model, x)[0], abs=1e-12)


def test_expectation_matches_oracle_on_every_subset(rng):
    import itertools

    for _ in range(12):
        model = random_manual_ensemble(rng, n_features=4)
        x = rng.normal(size=4)
        for size in range(5):
            for combo in itertools.combinations(range(4), size):
                got = tree_expectation(model, x, combo)
                want = expectation_oracle(model, x, combo)
                assert got == pytest.approx(want, abs=1e-12)


def test_expectation_validates_inputs(rng):
    model = random_manual_ensemble(rng, n_features=3)
    with pytest.raises(ValueError):
        tree_expectation(model, [0.0, 0.0], set())
    with pytest.raises(ValueError):
        tree_expectation(model, [0.0, 0.0, 0.0], {5})


def test_non_positive_cover_is_rejected():
    bad = TreeNode(
        cover=5,
        feature=0,
        threshold=0.0,
        left=TreeNode(cover=0, value=1.0),
        right=TreeNode(cover=5, value=2.0),
    )
    model = TreeEnsemble("RF", (bad,), 0.0, 1.0, ("a",))
    with pytest.raises(ModelIntegrityError):
        tree_expectation(model, [1.0], set())
    with pytest.raises(ModelIntegrityError):
        tree_shap(model, [[1.0]])
    attr = AttributionMatrix(np.zeros((1, 1)), 0.0, ("a",))
    with pytest.raises(ModelIntegrityError):
        shap_interactions(model, [[1.0]], attr)


# --- fast attribution vs exact enumeration --------------------------------------------


def test_tree_shap_matches_exact_on_manual_ensembles(rng):
    for _ in range(20):
        model = random_manual_ensemble(rng)
        x = rng.normal(size=len(model.feature_names))
        attr = tree_shap(model, x[None, :])
        exact = shapley_exact(tree_game(model, x))
        assert np.allclose(attr.values[0], exact, atol=1e-10)
        assert attr.base_value == pytest.approx(
            tree_expectation(model, x, set()), abs=1e-12
        )


def test_tree_shap_matches_exact_on_fitted_ensembles(rng):
    for _ in range(10):
        model, x = random_fitted_ensemble(rng)
        row = x[int(rng.integers(x.shape[0]))]
        attr = tree_shap(model, row[None, :])
        exact = shapley_exact(tree_game(model, row))
        assert np.allclose(attr.values[0], exact, atol=1e-10)


def test_attributions_reconstruct_predictions(rng):
    for _ in range(10):
        model, x = random_fitted_ensemble(rng)
        attr = tree_shap(model, x)
        recon = attr.base_value + attr.values.sum(axis=1)
        pred = naive_predict(model, x)
        scale = np.maximum(1.0, np.abs(pred))
        assert np.all(np.abs(recon - pred) / scale <= 1e-9)


@given(drawn_case())
@settings(max_examples=150, deadline=None)
def test_path_attribution_matches_enumeration_on_drawn_ensembles(case):
    # repeated features on a path, single-leaf trees and all three kinds
    model, x = case
    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x, attr)
    assert attr.base_value == pytest.approx(
        tree_expectation(model, x[0], set()), rel=0, abs=1e-9
    )
    for i in range(min(2, x.shape[0])):
        game = tree_game(model, x[i])
        phi = shapley_exact(game)
        assert np.allclose(attr.values[i], phi, rtol=0, atol=1e-9)
        want = interaction_oracle(game.payoff, len(model.feature_names), phi)
        assert np.allclose(tensor.values[i], want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("cells", [24, 60, 400])
def test_a_row_attributes_alike_alone_and_in_a_many_block_batch(
    cells, rng, monkeypatch
):
    x = rng.normal(size=(25, 5))
    model = fit_rf(x, x[:, 0] * x[:, 1] + x[:, 2], HyperParams(n_trees=8, max_depth=3))
    # repeated rows share their branch patterns within a block
    x = np.vstack([x, x[:6], x[3:9]])
    # 400 cells a block give 3 to 50 rows a block, with the paths whole;
    # 60 and 24 cut the 14 paths with three features into tiles of 6 and
    # 2, and take their distinct pairs 6 and 2 at a time
    monkeypatch.setattr(welloop.explain, "_BLOCK_CELLS", cells)
    calls = []
    for name in ("_add_terms", "_subset_weights"):
        def counted(*args, _f=getattr(welloop.explain, name)):
            calls.append(_f.__name__)
            return _f(*args)

        monkeypatch.setattr(welloop.explain, name, counted)
    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x, attr)
    if cells < 400:
        # some block's distinct pairs span several chunks
        assert calls.count("_subset_weights") > calls.count("_add_terms")
    for i in range(x.shape[0]):
        alone = tree_shap(model, x[i])
        assert np.array_equal(alone.values[0], attr.values[i])
        pairs = shap_interactions(model, x[i], alone)
        assert np.array_equal(pairs.values[0], tensor.values[i])


@pytest.mark.parametrize(
    "p, order", [(p, order) for p in range(1, 9) for order in (1, 2) if order <= p]
)
def test_subset_weights_match_brute_force_enumeration(rng, p, order):
    # for each pair and drop set: the sum over subsets S of the kept slots
    # of weights[|S|] * prod(one over S) * prod(zero over the kept rest)
    one = rng.uniform(size=(6, p))
    flags = rng.uniform(size=one.shape) < 0.5
    one[flags] = rng.integers(0, 2, size=one.shape)[flags]
    zero = rng.uniform(0.05, 1.0, size=(6, p))
    members = list(itertools.combinations(range(p), order))
    drop = np.zeros((len(members), p), dtype=bool)
    for k, d in enumerate(members):
        drop[k, list(d)] = True
    weights = list(rng.uniform(0.1, 1.0, size=p - order + 1))
    got = welloop.explain._subset_weights(one, zero, drop, weights)
    assert got.shape == (6, len(members))
    for i, k in itertools.product(range(6), range(len(members))):
        kept = np.flatnonzero(~drop[k])
        want = 0.0
        for size in range(len(kept) + 1):
            for s in itertools.combinations(kept, size):
                rest = np.setdiff1d(kept, s)
                want += weights[size] * math.prod(one[i, s]) * math.prod(zero[i, rest])
        assert got[i, k] == pytest.approx(want, rel=1e-12, abs=0)


def test_a_very_deep_tree_is_attributed_without_recursion():
    model = TreeEnsemble("GBDT", (chain_tree(3000),), 0.5, 0.1, ("a",))
    x = np.array([[-5.0], [0.0], [7.0], [1234.5], [2999.0], [5000.0]])
    attr = tree_shap(model, x)
    pred = predict(model, x)
    recon = attr.base_value + attr.values.sum(axis=1)
    assert np.all(np.abs(recon - pred) <= 1e-9 * np.maximum(1.0, np.abs(pred)))
    tensor = shap_interactions(model, x, attr)
    assert np.array_equal(tensor.values[:, 0, 0], attr.values[:, 0])


def test_a_path_over_70_features_is_attributed_exactly():
    # the longest path holds 70 distinct features, more flags than an
    # int64 key has bits; the rows differ from the first only at one slot
    m = 70
    node = TreeNode(cover=1, value=float(m))
    for d in reversed(range(m)):
        leaf = TreeNode(cover=d + 1, value=float(d))
        node = TreeNode(cover=node.cover + d + 1, feature=d, threshold=0.0, left=leaf, right=node)
    model = TreeEnsemble("GBDT", (node,), 0.5, 0.1, tuple(f"f{d}" for d in range(m)))
    x = np.ones((7, m))
    for i, d in enumerate((0, 31, 62, 63, 64, 69), start=1):
        x[i, d] = -1.0
    attr = tree_shap(model, x)
    pred = predict(model, x)
    assert np.all(np.abs(attr.base_value + attr.values.sum(axis=1) - pred) <= 1e-9)
    for i in range(x.shape[0]):
        assert np.array_equal(tree_shap(model, x[i]).values[0], attr.values[i])


def test_a_rebuilt_model_gets_a_fresh_decomposition(rng):
    x = rng.normal(size=(30, 4))
    model = fit_rf(x, x[:, 0] - x[:, 1] * x[:, 2], HyperParams(n_trees=6, max_depth=3))
    tree_shap(model, x)  # decomposes and caches all six trees
    cut = replace(model, trees=model.trees[:2])
    fresh = TreeEnsemble("RF", model.trees[:2], 0.0, 1.0, model.feature_names)
    assert np.array_equal(tree_shap(cut, x).values, tree_shap(fresh, x).values)
    assert np.array_equal(
        shap_interactions(cut, x).values, shap_interactions(fresh, x).values
    )
    model.trees = model.trees[2:4]  # a new trees object in place
    fresh = TreeEnsemble("RF", model.trees, 0.0, 1.0, model.feature_names)
    assert np.array_equal(tree_shap(model, x).values, tree_shap(fresh, x).values)


def test_tree_expectation_walks_a_very_deep_tree_without_recursion():
    model = TreeEnsemble("GBDT", (chain_tree(3000),), 0.5, 0.1, ("a",))
    base = tree_shap(model, [[0.0]]).base_value
    for value in (-5.0, 0.0, 7.0, 1234.5, 2999.0, 5000.0):
        x = np.array([value])
        assert tree_expectation(model, x, {0}) == pytest.approx(predict(model, [x])[0], abs=1e-9)
        assert tree_expectation(model, x, set()) == pytest.approx(base, abs=1e-9)


def test_an_empty_gbdt_attributes_zeros_on_its_base_score():
    empty = TreeEnsemble("GBDT", (), 1.5, 0.1, ("a", "b"))
    x = [[0.0, 2.0], [-1.0, 3.0]]
    attr = tree_shap(empty, x)
    assert attr.base_value == 1.5 == tree_expectation(empty, x[0], set())
    assert np.array_equal(attr.values, np.zeros((2, 2)))
    assert np.array_equal(shap_interactions(empty, x, attr).values, np.zeros((2, 2, 2)))
    rf = TreeEnsemble("RF", (), 0.0, 1.0, ("a", "b"))
    with pytest.raises(ValueError, match="RF ensemble has no trees"):
        tree_shap(rf, x)
    with pytest.raises(ValueError, match="RF ensemble has no trees"):
        shap_interactions(rf, x)


# --- stacked models ----------------------------------------------------------------

STACK_HPS = {
    "RF": HyperParams(n_trees=4, max_depth=3),
    "GBDT": HyperParams(n_trees=3, max_depth=2, learning_rate=0.3),
    "XGB": HyperParams(n_trees=4, max_depth=3, learning_rate=0.3),
}


@pytest.fixture(scope="module")
def small_stacked():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(45, 4))
    y = x[:, 0] * x[:, 1] + np.abs(x[:, 2]) - x[:, 3] + 0.1 * rng.normal(size=45)
    probe = np.vstack([x[:3], rng.normal(size=(3, 4))])
    return fit_stacked(x, y, STACK_HPS, k=3, seed=4), probe


def stacked_game(model, x):
    """The stacked model's game summed the way stacking defines it, from
    each sub-model's expectation: intercept + sum over kinds z of
    meta weight z times the mean over folds j of sub-model (z, j)'s game."""

    def payoff(s):
        total = model.meta_intercept
        for weight, per_fold in zip(model.meta_weights, model.sub_models):
            total += weight * np.mean([tree_expectation(sub, x, s) for sub in per_fold])
        return total

    return CoalitionalGame(n_players=len(model.feature_names), payoff=payoff)


def test_stacked_attribution_adds_up_to_the_stacked_prediction(small_stacked):
    model, x = small_stacked
    attr = tree_shap(model, x)
    recon = attr.base_value + attr.values.sum(axis=1)
    assert np.allclose(recon, predict(model, x), rtol=0, atol=1e-9)
    assert attr.base_value == pytest.approx(
        stacked_game(model, x[0]).payoff(frozenset()), rel=0, abs=1e-9
    )


def test_stacked_attribution_matches_enumeration_of_the_sub_model_games(small_stacked):
    model, x = small_stacked
    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x, attr)
    for i in range(x.shape[0]):
        game = stacked_game(model, x[i])
        # the stacked model's own game sums its trees through terms()
        own = tree_game(model, x[i])
        for mask in range(1 << game.n_players):
            s = frozenset(j for j in range(game.n_players) if mask >> j & 1)
            assert own.payoff(s) == pytest.approx(game.payoff(s), rel=0, abs=1e-12)
        phi = shapley_exact(game)
        assert np.allclose(attr.values[i], phi, rtol=0, atol=1e-9)
        want = interaction_oracle(game.payoff, game.n_players, phi)
        assert np.allclose(tensor.values[i], want, rtol=0, atol=1e-9)


def test_stacked_interactions_are_symmetric_and_sum_to_attributions(small_stacked):
    model, x = small_stacked
    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x)
    assert np.allclose(tensor.values, tensor.values.transpose(0, 2, 1), rtol=0, atol=1e-9)
    assert np.allclose(tensor.values.sum(axis=2), attr.values, rtol=0, atol=1e-9)


# --- the level walk against a node-by-node walk ------------------------------------


def per_node_decompose(model):
    """_decompose's groups and base by a node-by-node walk: an explicit
    stack, left child first, carrying one {feature: (zero, lo, hi)} dict
    per open path, each leaf's path filed under its feature count."""
    feature, threshold, left, right, value, cover, roots = welloop.explain._nodes(model)
    weights, constant, divisor = model.terms()
    by_p = {}
    empty = []
    for root, weight in zip(roots, weights / divisor):
        stack = [(root, {})]
        while stack:
            i, path = stack.pop()
            if left[i] == i:
                leaf = value[i] * weight
                empty.append(leaf * math.prod(z for z, _, _ in path.values()))
                by_p.setdefault(len(path), []).append((path, leaf))
                continue
            f, t = feature[i], threshold[i]
            z, lo, hi = path.get(f, (1.0, math.nan, math.nan))
            right_path = dict(path)
            right_lo = t if math.isnan(lo) else max(lo, t)
            right_path[f] = (z * cover[right[i]] / cover[i], right_lo, hi)
            left_hi = t if math.isnan(hi) else min(hi, t)
            path[f] = (z * cover[left[i]] / cover[i], lo, left_hi)
            stack += ((right[i], right_path), (left[i], path))
    groups = []
    for p, leaves in sorted(by_p.items()):
        if p:
            slots = np.array([list(path.values()) for path, _ in leaves])
            feature = np.array([list(path) for path, _ in leaves], dtype=np.intp)
            value = np.array([v for _, v in leaves])
            groups.append((feature, *np.moveaxis(slots, 2, 0), value))
    return groups, math.fsum(empty) + constant / divisor


def assert_decomposed_as_node_by_node(model):
    groups, base = welloop.explain._decompose(model)
    want_groups, want_base = per_node_decompose(model)
    assert np.float64(base).tobytes() == np.float64(want_base).tobytes()
    assert len(groups) == len(want_groups)
    for got, want in zip(groups, want_groups):
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


@given(drawn_case())
@settings(max_examples=100, deadline=None)
def test_level_walk_decomposes_drawn_forests_as_the_node_walk(case):
    # single-leaf trees, features repeated on a path, all three kinds
    assert_decomposed_as_node_by_node(case[0])


@pytest.mark.parametrize("kind", ["RF", "GBDT", "XGB"])
def test_level_walk_decomposes_fitted_forests_as_the_node_walk(kind, rng):
    x = rng.normal(size=(60, 5))
    y = x[:, 0] * x[:, 1] + np.abs(x[:, 2]) + 0.1 * rng.normal(size=60)
    for depth, leaf_rows, fraction in itertools.product((1, 3, 6), (1, 3), (0.6, 1.0)):
        hp = HyperParams(
            n_trees=4,
            max_depth=depth,
            min_samples_leaf=leaf_rows,
            feature_fraction=fraction,
            learning_rate=0.3,
            seed=depth,
        )
        assert_decomposed_as_node_by_node(FIT_FUNCTIONS[kind](x, y, hp))


def test_level_walk_decomposes_edge_models_as_the_node_walk(small_stacked):
    leaf = TreeNode(cover=3, value=2.5)  # a tree of depth 0
    for model in (
        TreeEnsemble("RF", (leaf,), 0.0, 1.0, ("a", "b")),
        TreeEnsemble("XGB", (leaf, hand_tree()), 0.25, 0.5, ("a", "b")),
        TreeEnsemble("GBDT", (), 1.5, 0.1, ("a", "b")),
        TreeEnsemble("GBDT", (chain_tree(300),), 0.5, 0.1, ("a",)),
        small_stacked[0],
    ):
        assert_decomposed_as_node_by_node(model)
    bad = TreeNode(cover=2, feature=0, threshold=0.0, left=TreeNode(cover=0, value=1.0), right=leaf)
    with pytest.raises(ModelIntegrityError):
        welloop.explain._decompose(TreeEnsemble("RF", (bad,), 0.0, 1.0, ("a",)))


# --- pinned attribution bits ----------------------------------------------------------


def pinned_models():
    """Fitted RF, GBDT and XGB ensembles and a stacked model on seeded
    rows, with trees deep enough that paths repeat features, and the 40
    rows they are attributed on."""
    rng = np.random.default_rng(2609)
    x = rng.normal(size=(80, 6))
    x[:, 5] = np.round(x[:, 5])  # a coarse column: rows share branch patterns
    y = x[:, 0] * x[:, 1] + np.abs(x[:, 2]) - x[:, 3] + 0.5 * x[:, 5] + 0.1 * rng.normal(size=80)
    hp = HyperParams(n_trees=12, max_depth=6, min_samples_leaf=2, seed=3)
    models = {
        kind: fit(x, y, replace(hp, learning_rate=0.3))
        for kind, fit in (("RF", fit_rf), ("GBDT", fit_gbdt), ("XGB", fit_xgb))
    }
    models["stacked"] = fit_stacked(x, y, STACK_HPS, k=3, seed=4)
    return models, x[:40]


def attribution_digest(model, x):
    """sha256 over the bytes of tree_shap's values and base value and of
    shap_interactions' values."""
    attr = tree_shap(model, x)
    tensor = shap_interactions(model, x, attr)
    parts = (attr.values, np.float64(attr.base_value), tensor.values)
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest()


# sha256 as attribution_digest takes it, pinned from the attribution that ran
# the subset-weight polynomial once per (row, path) pair; sharing the
# weights among rows with the same branch pattern must keep every bit
ATTRIBUTION_PINS = {
    "RF-1": "99f6a36a146318534c77ca4158c683c8c54ec0e5fe25777013d3fa0b055137fb",
    "RF-40": "b4e1d2a799cbd4c3aaade0a4d8e68f7cab7b7cadfa879aa17bc24aea6ccbdd79",
    "GBDT-1": "892cf4d883a915a7e6c817ade513ed73ddc55c99771c54bb95b8613f3b33d0da",
    "GBDT-40": "21d35e54a22518036546e836fe9f76bb1179a6043a18148ecb2c90ff9d944621",
    "XGB-1": "65029084f590b9ecd6f2e68980a95af561824b0070ae257a98697e3ea0b8f07b",
    "XGB-40": "ee55712417478cfbbdc9fcc5b031481f4b14e5da6e2009e4bdec85523b9d2d27",
    "stacked-1": "fbec329f7f807ef30c9beb6dddea57fab942eefb8813999f248878801ef667a3",
    "stacked-40": "c0600a71fa871f4ae6de768944da87aa478d2e4e1ea7a57894afd6dd5a32f09f",
}


def test_attributions_match_their_pinned_bits():
    models, x = pinned_models()
    got = {
        f"{label}-{n}": attribution_digest(model, x[:n])
        for label, model in models.items()
        for n in (1, 40)
    }
    assert got == ATTRIBUTION_PINS


# --- pairwise interactions -----------------------------------------------------------


def test_interactions_match_direct_enumeration(rng):
    for _ in range(8):
        model = random_manual_ensemble(rng, n_features=int(rng.integers(2, 6)))
        x = rng.normal(size=len(model.feature_names))
        tensor = shap_interactions(model, x[None, :])
        game = tree_game(model, x)
        phi = shapley_exact(game)
        want = interaction_oracle(game.payoff, len(model.feature_names), phi)
        assert np.allclose(tensor.values[0], want, atol=1e-9)


def test_interactions_are_symmetric_and_sum_to_attributions(rng):
    for _ in range(6):
        model, x = random_fitted_ensemble(rng, n_features=4)
        rows = x[:3]
        tensor = shap_interactions(model, rows)
        attr = tree_shap(model, rows)
        for i in range(rows.shape[0]):
            mat = tensor.values[i]
            assert np.max(np.abs(mat - mat.T)) <= 1e-9
            assert np.allclose(mat.sum(axis=1), attr.values[i], atol=1e-9)
        # handing over the attributions already computed changes nothing
        assert np.array_equal(shap_interactions(model, rows, attr).values, tensor.values)
        with pytest.raises(ValueError):
            shap_interactions(model, rows[:2], attr)


def test_two_stump_additive_model_has_no_interactions():
    stump_a = TreeNode(
        cover=10,
        feature=0,
        threshold=0.0,
        left=TreeNode(cover=5, value=-1.0),
        right=TreeNode(cover=5, value=1.0),
    )
    stump_b = TreeNode(
        cover=10,
        feature=1,
        threshold=0.5,
        left=TreeNode(cover=3, value=2.0),
        right=TreeNode(cover=7, value=6.0),
    )
    model = TreeEnsemble("GBDT", (stump_a, stump_b), 0.0, 1.0, ("a", "b"))
    x = np.array([[1.0, 0.0]])
    tensor = shap_interactions(model, x)
    off = tensor.values[0] - np.diag(np.diag(tensor.values[0]))
    assert np.max(np.abs(off)) <= 1e-12
    # additive pieces attribute independently: phi = (1 - 0, 2 - 4.8)
    attr = tree_shap(model, x)
    assert np.allclose(attr.values[0], [1.0, -2.8], atol=1e-12)
    assert attr.base_value == pytest.approx(4.8, abs=1e-12)
    assert np.allclose(np.diag(tensor.values[0]), attr.values[0], atol=1e-12)


# --- summaries ------------------------------------------------------------------


def test_rank_factors_orders_by_mean_absolute_value():
    attr = AttributionMatrix(
        values=np.array([[1.0, -3.0], [-1.0, 1.0]]),
        base_value=0.0,
        feature_names=("a", "b"),
    )
    assert rank_factors(attr) == [("b", 2.0), ("a", 1.0)]


def test_rank_factors_ties_keep_declaration_order():
    attr = AttributionMatrix(
        values=np.array([[2.0, -2.0]]), base_value=0.0, feature_names=("a", "b")
    )
    assert [n for n, _ in rank_factors(attr)] == ["a", "b"]
    with pytest.raises(ValueError):
        rank_factors(
            AttributionMatrix(np.empty((0, 2)), 0.0, ("a", "b"))
        )


def test_magnitude_order_puts_ties_in_declaration_order_and_nan_last():
    values = [0.5, np.nan, -2.0, 2.0, 0.0, -0.5, np.nan, -0.0]
    assert magnitude_order(values).tolist() == [2, 3, 0, 5, 4, 7, 1, 6]
    assert magnitude_order([]).tolist() == []


def test_explain_well_waterfall_shape():
    attr = AttributionMatrix(
        values=np.array([[0.5, -2.0, 1.0]]),
        base_value=3.0,
        feature_names=("a", "b", "c"),
    )
    exp = explain_well(attr, 0)
    assert [n for n, _ in exp.contributions] == ["b", "c", "a"]
    assert exp.prediction == pytest.approx(3.0 + 0.5 - 2.0 + 1.0, abs=1e-15)
    with pytest.raises(IndexError):
        explain_well(attr, 1)
    with pytest.raises(IndexError):
        explain_well(attr, -1)


def test_supervised_cluster_separates_two_populations(rng):
    a = rng.normal(loc=(5.0, 0.0), scale=0.1, size=(30, 2))
    b = rng.normal(loc=(-5.0, 3.0), scale=0.1, size=(30, 2))
    attr = AttributionMatrix(
        values=np.vstack([a, b]), base_value=0.0, feature_names=("a", "b")
    )
    labels = supervised_cluster(attr, k=2, seed=1)
    first, second = labels[:30], labels[30:]
    purity = max(
        (np.sum(first == 0) + np.sum(second == 1)),
        (np.sum(first == 1) + np.sum(second == 0)),
    ) / 60.0
    assert purity >= 0.95
    again = supervised_cluster(attr, k=2, seed=1)
    assert np.array_equal(labels, again)


def test_supervised_cluster_validates_k():
    attr = AttributionMatrix(np.zeros((4, 2)), 0.0, ("a", "b"))
    with pytest.raises(ValueError, match="k must be >= 1"):
        supervised_cluster(attr, k=0)
    with pytest.raises(ValueError, match="^cannot form 5 clusters from 4 rows$"):
        supervised_cluster(attr, k=5)


def test_row_problems_states_the_rows_an_explanation_needs():
    """One statement for the config's max_rows cap, the explain stage and
    supervised_cluster."""
    assert row_problems([0, 3, 2, 5], 4, 3, "explain") == [
        "explain.waterfalls: waterfall row 3 outside the explained rows",
        "explain.waterfalls: waterfall row 5 outside the explained rows",
        "explain.clusters: cannot form 4 clusters from 3 rows",
    ]
    assert row_problems([0, 2], 3, 3) == []
    assert row_problems([3], 4, 3) == [
        "waterfall row 3 outside the explained rows",
        "cannot form 4 clusters from 3 rows",
    ]


# --- baseline correlations -----------------------------------------------------------


def test_correlations_match_scipy(rng):
    x = rng.normal(size=(30, 3))
    y = x[:, 0] * 2.0 + rng.normal(size=30)
    table = make_table({"f0": x[:, 0], "f1": x[:, 1], "f2": x[:, 2], "y": y})
    report = baseline_correlations(table)
    assert report.feature_names == ("f0", "f1", "f2")
    for j in range(3):
        assert report.values["pearson"][j] == pytest.approx(pearsonr(x[:, j], y)[0], abs=1e-12)
        assert report.values["spearman"][j] == pytest.approx(spearmanr(x[:, j], y)[0], abs=1e-12)


def test_average_ranks_are_scipys_bit_for_bit(rng):
    cases = [
        rng.normal(size=25),
        rng.integers(0, 4, size=30).astype(float),
        np.array([2.0]),
        np.array([1.0, 1.0, 1.0]),
        np.array([3.0, -1.0, 3.0, 0.5, -1.0, 3.0]),
    ]
    for a in cases:
        want = rankdata(a)
        got = welloop.explain._average_ranks(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # the columns of a 2-D array, ranked together: ties and a constant column
    table = np.column_stack([cases[0][:20], cases[1][:20], np.full(20, 4.0), cases[1][10:30]])
    got = welloop.explain._average_ranks(table)
    assert got.shape == table.shape
    for j in range(table.shape[1]):
        assert got[:, j].flags.c_contiguous
        assert np.array_equal(got[:, j], rankdata(table[:, j]))


def test_spearman_with_ties_matches_scipy(rng):
    x = rng.integers(0, 5, size=(40, 2)).astype(float)
    y = x[:, 0] + rng.integers(0, 3, size=40)
    report = baseline_correlations(make_table({"f0": x[:, 0], "f1": x[:, 1], "y": y}))
    for j in range(2):
        assert report.values["spearman"][j] == pytest.approx(spearmanr(x[:, j], y)[0], abs=1e-12)


def test_grey_relational_grade_hand_fixture():
    # normalized gaps: feature a is 1 everywhere, feature b is 0 everywhere,
    # so the global extremes are 0 and 1 and the grades are 1/3 and 1
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "y": [0.0, 1.0]})
    report = baseline_correlations(table)
    grades = dict(zip(report.feature_names, report.values["gra"]))
    assert grades["a"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert grades["b"] == pytest.approx(1.0, abs=1e-15)
    assert magnitude_order(report.values["gra"]).tolist() == [1, 0]  # b, a
    assert magnitude_order(report.values["pearson"]).tolist() == [0, 1]  # a, b


def test_feature_identical_to_target_grades_one(rng):
    y = rng.normal(size=10)
    other = rng.normal(size=10)
    table = make_table({"twin": y.copy(), "other": other, "y": y})
    report = baseline_correlations(table)
    grades = dict(zip(report.feature_names, report.values["gra"]))
    assert grades["twin"] == pytest.approx(1.0, abs=1e-12)
    assert report.feature_names[magnitude_order(report.values["gra"])[0]] == "twin"


def test_zero_variance_feature_ranks_last(rng):
    y = rng.normal(size=12)
    table = make_table(
        {"flat": np.full(12, 7.0), "live": rng.normal(size=12), "y": y}
    )
    report = baseline_correlations(table)
    flat = report.feature_names.index("flat")
    for method in ("pearson", "spearman", "gra"):
        assert np.isnan(report.values[method][flat])
        assert magnitude_order(report.values[method])[-1] == flat


def test_correlations_reject_missing_values_and_tiny_tables(rng):
    table = make_table({"a": [1.0, np.nan, 3.0], "y": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError):
        baseline_correlations(table)
    tiny = make_table({"a": [1.0], "y": [2.0]})
    with pytest.raises(ValueError):
        baseline_correlations(tiny)


# --- plot-data emitters ----------------------------------------------------------


def test_summary_csv_round_trip(tmp_path, rng):
    model, x = random_fitted_ensemble(rng, n_features=3, n_rows=8)
    attr = tree_shap(model, x)
    path = tmp_path / "summary.csv"
    write_summary_csv(attr, x, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "factor", "value", "attribution"]
    assert len(rows) == 1 + 8 * 3
    first = rows[1]
    assert first[0] == "0" and first[1] == attr.feature_names[0]
    assert float(first[2]) == pytest.approx(x[0, 0])
    assert float(first[3]) == pytest.approx(attr.values[0, 0])


def test_dependency_csv_round_trip(tmp_path, rng):
    model, x = random_fitted_ensemble(rng, n_features=2, n_rows=5)
    tensor = shap_interactions(model, x)
    path = tmp_path / "dep.csv"
    write_dependency_csv(tensor, x, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "factor", "value", "main_effect"]
    assert len(rows) == 1 + 5 * 2
    assert float(rows[1][3]) == pytest.approx(tensor.values[0, 0, 0])


@pytest.mark.parametrize("x_rows", [3, 8])
def test_plot_data_refuses_factor_values_for_other_rows(tmp_path, rng, x_rows):
    """With 5 attributed rows, a 3-row x used to write 9 of the 15 rows
    without a word and an 8-row x to raise a stray IndexError."""
    model, x = random_fitted_ensemble(rng, n_features=3, n_rows=8)
    attr = tree_shap(model, x[:5])
    tensor = shap_interactions(model, x[:5], attr)
    match = f"x has {x_rows} rows for 5 attributed rows"
    for write, values in ((write_summary_csv, attr), (write_dependency_csv, tensor)):
        with pytest.raises(ValueError, match=match):
            write(values, x[:x_rows], tmp_path / "plot.csv")
    assert list(tmp_path.iterdir()) == []
