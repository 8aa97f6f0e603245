"""Reference computations made apart from welloop, for the correctness checks.

Everything here reads the model JSON the program saved and works on plain
Python lists: a per-row tree walk that applies the RF mean, boosting
shrinkage and stacking meta weights by hand, the path-dependent
expectation of a tree ensemble, and Shapley values by exhaustive subset
enumeration. None of it imports welloop.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path


# --- model files ----------------------------------------------------------------


class FlatTree:
    """One tree from its JSON form, as parallel node lists (leaf: feature -1)."""

    def __init__(self, root: dict):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.cover: list[int] = []
        self._add(root)

    def _add(self, node: dict) -> int:
        i = len(self.feature)
        leaf = "value" in node
        self.feature.append(-1 if leaf else int(node["feature"]))
        self.threshold.append(0.0 if leaf else float(node["threshold"]))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(node["value"]) if leaf else 0.0)
        self.cover.append(int(node["cover"]))
        if not leaf:
            self.left[i] = self._add(node["left"])
            self.right[i] = self._add(node["right"])
        return i

    def __call__(self, row) -> float:
        feature, threshold = self.feature, self.threshold
        i = 0
        while feature[i] >= 0:
            i = self.left[i] if row[feature[i]] <= threshold[i] else self.right[i]
        return self.value[i]

    def cover_problems(self) -> int:
        """Internal nodes whose cover is not the sum of their children's."""
        return sum(
            1
            for i, f in enumerate(self.feature)
            if f >= 0 and self.cover[i] != self.cover[self.left[i]] + self.cover[self.right[i]]
        )

    def expectation(self, row, known) -> float:
        """Path-dependent expectation: splits on a known feature follow the
        row, splits on any other feature blend both children by cover."""

        def walk(i):
            f = self.feature[i]
            if f < 0:
                return self.value[i]
            left, right = self.left[i], self.right[i]
            if f in known:
                return walk(left if row[f] <= self.threshold[i] else right)
            return (
                self.cover[left] * walk(left) + self.cover[right] * walk(right)
            ) / self.cover[i]

        return walk(0)

    def features(self) -> set[int]:
        return {f for f in self.feature if f >= 0}


class Ensemble:
    """A saved TreeEnsemble: kind, base score, learning rate and trees."""

    def __init__(self, obj: dict):
        self.kind = obj["kind"]
        self.base_score = float(obj["base_score"])
        self.learning_rate = float(obj["learning_rate"])
        self.feature_names = list(obj["feature_names"])
        self.train_loss = obj.get("train_loss")
        self.trees = [FlatTree(t) for t in obj["trees"]]

    @classmethod
    def load(cls, path) -> "Ensemble":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def combine(self, per_tree: list[float]) -> float:
        """RF: mean of tree outputs; boosting: base plus shrunken sum, in
        the order the trees were grown."""
        if self.kind == "RF":
            total = 0.0
            for v in per_tree:
                total += v
            return total / len(per_tree)
        total = self.base_score
        for v in per_tree:
            total += self.learning_rate * v
        return total

    def __call__(self, row) -> float:
        return self.combine([tree(row) for tree in self.trees])

    def cut(self, n_trees: int) -> "Ensemble":
        """The same ensemble reduced to its first n_trees trees."""
        cut = copy.copy(self)
        cut.trees = self.trees[:n_trees]
        return cut


class Stacked:
    """A saved StackedModel: per-kind fold sub-models plus the meta model."""

    def __init__(self, directory):
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        self.kinds = list(meta["base_kinds"])
        self.folds = int(meta["folds"])
        self.fold_assignment = [int(v) for v in meta["fold_assignment"]]
        self.meta_weights = [float(w) for w in meta["meta_weights"]]
        self.meta_intercept = float(meta["meta_intercept"])
        self.sub_models = [
            [
                Ensemble.load(directory / f"sub_{kind.lower()}_{j}.json")
                for j in range(self.folds)
            ]
            for kind in self.kinds
        ]

    def kind_features(self, row) -> list[float]:
        """Each kind's prediction: the mean of its k fold sub-models."""
        return [sum(sub(row) for sub in subs) / len(subs) for subs in self.sub_models]

    def __call__(self, row) -> float:
        feats = self.kind_features(row)
        return self.meta_intercept + sum(w * f for w, f in zip(self.meta_weights, feats))


# --- tables ---------------------------------------------------------------------


class Table:
    """The cleaned well table the program wrote, split into features and target."""

    def __init__(self, out_dir):
        out_dir = Path(out_dir)
        schema = json.loads((out_dir / "data/schema.json").read_text(encoding="utf-8"))
        target = next(e["name"] for e in schema if e["category"] == "production")
        with open(out_dir / "data/clean.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        t = header.index(target)
        self.feature_names = [name for j, name in enumerate(header) if j != t]
        self.optimizable = [e["name"] for e in schema if e.get("optimizable")]
        self.features = [[float(v) for j, v in enumerate(r) if j != t] for r in rows[1:]]
        self.target = [float(r[t]) for r in rows[1:]]

    def column(self, name: str) -> list[float]:
        j = self.feature_names.index(name)
        return [row[j] for row in self.features]


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- Shapley values ---------------------------------------------------------------


def shapley_by_enumeration(ensemble: Ensemble, row, n_features: int) -> list[float]:
    """Exact Shapley values of the path-dependent expectation game.

    The game of an ensemble is a fixed combination of its trees' games, so
    the values add up tree by tree (linearity). A tree's game depends only
    on the features it splits on; every other feature is a null player
    with value zero, so each tree enumerates every subset of its own
    features and weights each marginal contribution by |S|!(m-|S|-1)!/m!.
    """
    phi = [0.0] * n_features
    for tree in ensemble.trees:
        players = sorted(tree.features())
        m = len(players)
        payoff = {}
        for mask in range(1 << m):
            known = {players[i] for i in range(m) if mask >> i & 1}
            payoff[mask] = tree.expectation(row, known)
        weight = [
            math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
            for s in range(m)
        ]
        contrib = [0.0] * m
        for mask in range(1 << m):
            size = bin(mask).count("1")
            for i in range(m):
                if not mask >> i & 1:
                    contrib[i] += weight[size] * (payoff[mask | 1 << i] - payoff[mask])
        for i, f in enumerate(players):
            phi[f] += contrib[i]
    if ensemble.kind == "RF":
        return [v / len(ensemble.trees) for v in phi]
    return [v * ensemble.learning_rate for v in phi]


def base_value(ensemble: Ensemble) -> float:
    """Expectation with no feature known: the cover-weighted leaf mean."""
    return ensemble.combine([tree.expectation((), set()) for tree in ensemble.trees])
