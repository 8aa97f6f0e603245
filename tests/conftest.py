"""Shared fixtures and independent oracle implementations.

The oracles here deliberately re-derive results along a different route
than the library (permutation averages instead of subset weights, plain
per-row traversal instead of vectorized masking, direct enumeration for
interactions) so agreement is evidence, not tautology.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from welloop.trees import KINDS, FIT_FUNCTIONS, HyperParams, TreeEnsemble, TreeNode


def naive_predict(ensemble, x):
    """Per-row, per-tree loop traversal; no vectorization shared with the
    library implementation."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = []
    for row in x:
        per_tree = []
        for root in ensemble.trees:
            node = root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            per_tree.append(node.value)
        if ensemble.kind == "RF":
            out.append(sum(per_tree) / len(per_tree))
        else:
            out.append(ensemble.base_score + ensemble.learning_rate * sum(per_tree))
    return np.array(out)


def ordered_predict(ensemble, x):
    """Per-row loop: walk each tree to its leaf and add the leaf values in
    tree order, the way the library accumulates them."""
    out = []
    for row in np.atleast_2d(np.asarray(x, dtype=float)):
        acc = 0.0 if ensemble.kind == "RF" else ensemble.base_score
        for root in ensemble.trees:
            node = root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            if ensemble.kind == "RF":
                acc += node.value
            else:
                acc += ensemble.learning_rate * node.value
        out.append(acc / len(ensemble.trees) if ensemble.kind == "RF" else acc)
    return np.array(out)


def expectation_oracle(ensemble, x, subset):
    """Path-dependent expectation, written straight from the definition:
    features in the subset follow the sample's branch, absent features
    blend both children by cover share."""
    x = np.asarray(x, dtype=float)
    subset = frozenset(subset)

    def walk(node):
        if node.is_leaf:
            return node.value
        if node.feature in subset:
            child = node.left if x[node.feature] <= node.threshold else node.right
            return walk(child)
        w = node.left.cover / node.cover
        return w * walk(node.left) + (1.0 - w) * walk(node.right)

    per_tree = [walk(root) for root in ensemble.trees]
    if ensemble.kind == "RF":
        return sum(per_tree) / len(per_tree)
    return ensemble.base_score + ensemble.learning_rate * sum(per_tree)


def shapley_permutation_oracle(payoff, m):
    """Exact Shapley values as the average marginal contribution over all
    player orderings; a different route than the subset-weight formula."""
    phi = np.zeros(m)
    orderings = list(itertools.permutations(range(m)))
    for order in orderings:
        seen = frozenset()
        for player in order:
            with_p = frozenset(seen | {player})
            phi[player] += payoff(with_p) - payoff(seen)
            seen = with_p
    return phi / len(orderings)


def interaction_oracle(payoff, m, phi):
    """Pairwise interaction tensor by direct enumeration of
    |S|!(M-|S|-2)!/(2(M-1)!) weighted second differences, with the
    diagonal defined as the leftover after removing all off-diagonal
    credit from each player's Shapley value."""
    values = np.zeros((m, m))
    players = range(m)
    for i, j in itertools.combinations(players, 2):
        rest = [p for p in players if p not in (i, j)]
        total = 0.0
        for size in range(len(rest) + 1):
            weight = (
                math.factorial(size)
                * math.factorial(m - size - 2)
                / (2.0 * math.factorial(m - 1))
            )
            for combo in itertools.combinations(rest, size):
                s = frozenset(combo)
                delta = (
                    payoff(s | {i, j})
                    - payoff(s | {i})
                    - payoff(s | {j})
                    + payoff(s)
                )
                total += weight * delta
        values[i, j] = total
        values[j, i] = total
    for i in players:
        values[i, i] = phi[i] - (values[i].sum() - values[i, i])
    return values


def random_manual_tree(rng, n_features, cover, depth):
    """Random valid tree built directly, not by fitting; features repeat
    along paths, covers always sum child-to-parent."""
    if depth == 0 or cover < 2 or rng.random() < 0.25:
        return TreeNode(cover=int(cover), value=float(np.round(rng.normal(), 6)))
    left_cover = int(rng.integers(1, cover))
    return TreeNode(
        cover=int(cover),
        feature=int(rng.integers(n_features)),
        threshold=float(np.round(rng.normal(), 3)),
        left=random_manual_tree(rng, n_features, left_cover, depth - 1),
        right=random_manual_tree(rng, n_features, cover - left_cover, depth - 1),
    )


def random_manual_ensemble(rng, n_features=None, n_trees=None, depth=None):
    n_features = n_features or int(rng.integers(2, 7))
    n_trees = n_trees or int(rng.integers(1, 6))
    depth = depth or int(rng.integers(1, 5))
    kind = KINDS[int(rng.integers(len(KINDS)))]
    trees = tuple(
        random_manual_tree(rng, n_features, int(rng.integers(4, 40)), depth)
        for _ in range(n_trees)
    )
    return TreeEnsemble(
        kind=kind,
        trees=trees,
        base_score=float(np.round(rng.normal(), 6)) if kind != "RF" else 0.0,
        learning_rate=float(np.round(rng.uniform(0.05, 1.0), 3)) if kind != "RF" else 1.0,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
    )


def random_fitted_ensemble(rng, n_features=None, n_rows=None, kind=None):
    n_features = n_features or int(rng.integers(2, 7))
    n_rows = n_rows or int(rng.integers(8, 17))
    kind = kind or KINDS[int(rng.integers(len(KINDS)))]
    x = rng.normal(size=(n_rows, n_features))
    y = rng.normal(size=n_rows) + x[:, 0]
    hp = HyperParams(
        n_trees=int(rng.integers(1, 8)),
        max_depth=int(rng.integers(1, 5)),
        min_samples_leaf=1,
        learning_rate=0.3,
        lam=float(rng.choice([0.0, 1.0])),
        seed=int(rng.integers(10_000)),
    )
    model = FIT_FUNCTIONS[kind](x, y, hp)
    return model, x


# split points and sample values share one small grid, so rows often sit
# exactly on a threshold
GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
LEAF = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def drawn_tree(draw, n_features, max_depth):
    def node(depth):
        if depth == max_depth or draw(st.booleans()):
            return TreeNode(cover=1, value=draw(LEAF))
        left, right = node(depth + 1), node(depth + 1)
        return TreeNode(
            cover=left.cover + right.cover,
            feature=draw(st.integers(0, n_features - 1)),
            threshold=draw(GRID),
            left=left,
            right=right,
        )

    return node(0)


@st.composite
def drawn_case(draw):
    n_features = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    trees = draw(st.lists(drawn_tree(n_features, 5), min_size=1, max_size=12))
    boosting = kind != "RF"
    model = TreeEnsemble(
        kind=kind,
        trees=tuple(trees),
        base_score=draw(LEAF) if boosting else 0.0,
        learning_rate=draw(st.floats(0.01, 1.0)) if boosting else 1.0,
        feature_names=tuple(f"f{j}" for j in range(n_features)),
    )
    rows = draw(
        st.lists(
            st.lists(GRID | LEAF, min_size=n_features, max_size=n_features),
            min_size=1,
            max_size=6,
        )
    )
    return model, np.array(rows, dtype=float)


def chain_tree(depth):
    """A chain `depth` splits deep on feature 0: split d sends x <= d to a
    leaf worth d and the rest on down; the last leaf is worth `depth`."""
    node = TreeNode(cover=1, value=float(depth))
    for d in reversed(range(depth)):
        leaf = TreeNode(cover=1, value=float(d))
        node = TreeNode(
            cover=node.cover + 1, feature=0, threshold=float(d), left=leaf, right=node
        )
    return node


def deep_model_text(depth):
    """JSON text of a model whose one tree nests `depth` splits, too deep
    to decode (its covers do not add up). Built as text, because encoding
    it would itself exceed the recursion limit."""
    split = '{"cover": 2, "feature": 0, "threshold": 0.0, "left": {"cover": 1, "value": 1.0}, "right": '
    return (
        '{"kind": "RF", "base_score": 0.0, "learning_rate": 1.0, "feature_names": ["a"], '
        '"train_loss": null, "trees": [' + split * depth + '{"cover": 1, "value": 0.0}'
        + "}" * depth + "]}"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


# Worked three-player card game: individual payoffs 7, 4, 6; pairs
# AB=7, AC=15, BC=9; full coalition 19.
CARD_PAYOFFS = {
    frozenset(): 0.0,
    frozenset({0}): 7.0,
    frozenset({1}): 4.0,
    frozenset({2}): 6.0,
    frozenset({0, 1}): 7.0,
    frozenset({0, 2}): 15.0,
    frozenset({1, 2}): 9.0,
    frozenset({0, 1, 2}): 19.0,
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the release-gate verdicts, one line per check, after the run."""
    import sys as _sys

    mod = _sys.modules.get("test_acceptance")
    results = getattr(mod, "GATE_RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance gate")
    for label, passed in results:
        terminalreporter.write_line(("PASS: " if passed else "FAIL: ") + label)
