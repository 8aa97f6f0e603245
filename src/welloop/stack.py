"""Stacked generalization over the tree-ensemble kinds.

Each base kind is trained k times, once per held-out fold, and its
out-of-fold predictions form one meta feature. Because sub-model (z, j)
never sees fold j, the meta features carry no training-row leakage. The
meta model is ordinary least squares with an intercept on the raw
out-of-fold predictions. At prediction time a kind's k sub-models are
averaged before the meta model combines the kinds. That meta model is
linear, so a stacked model is one weighted sum of all its sub-models'
trees, which prediction and attribution read like any tree ensemble.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from welloop.trees import (
    FIT_FUNCTIONS,
    HyperParams,
    _feature_names,
    _training_set,
    load_ensemble,
    predict,
    save_ensemble,
)
from welloop.utils import (
    kfold_assignments,
    mix_seed,
    read_json,
    subseed_rng,
    take,
    take_list,
    typed,
    write_json,
)

_FOLD_TAG = 31
_SUB_SEED_TAG = 32


def sub_model_seed(seed: int, kind_index: int, fold: int) -> int:
    """Seed of the sub-model for base kind `kind_index` with `fold` held
    out; exposed so a retrain can reproduce any sub-model bit for bit."""
    return mix_seed(seed, _SUB_SEED_TAG, kind_index, fold)


@dataclass
class StackedModel:
    base_kinds: tuple
    folds: int
    sub_models: tuple  # sub_models[z][j] trained with fold j held out
    fold_assignment: np.ndarray
    meta_weights: np.ndarray
    meta_intercept: float
    feature_names: tuple
    # every sub-model's trees in kind, fold, tree order
    trees: tuple = field(init=False, repr=False)

    def __post_init__(self):
        subs = [sub for per_fold in self.sub_models for sub in per_fold]
        names = {tuple(self.feature_names)} | {sub.feature_names for sub in subs}
        kinds = len(self.base_kinds)
        if not 0 < kinds == len(self.sub_models) == len(self.meta_weights) or len(names) > 1:
            raise ValueError(
                "need a kind, sub-models and a meta weight per kind, one list of feature names"
            )
        if self.folds < 1:
            raise ValueError(f"need at least 1 fold, got {self.folds}")
        for kind, per_fold in zip(self.base_kinds, self.sub_models):
            if len(per_fold) != self.folds:
                raise ValueError(f"{kind}: {len(per_fold)} sub-models for {self.folds} folds")
        self.trees = tuple(tree for sub in subs for tree in sub.trees)

    def terms(self) -> tuple[np.ndarray, float, int]:
        """(per-tree weights, constant, divisor) over `trees`, as
        TreeEnsemble.terms: kind z's sub-models are averaged under meta
        weight z, so each sub-model's terms are scaled by that weight over
        the fold count and folded into one sum with divisor 1."""
        weights, constant = [], self.meta_intercept
        for meta_weight, per_fold in zip(self.meta_weights, self.sub_models):
            scale = meta_weight / len(per_fold)
            for sub in per_fold:
                sub_weights, sub_constant, divisor = sub.terms()
                weights.append(scale * sub_weights / divisor)
                constant += scale * sub_constant / divisor
        return np.concatenate(weights), float(constant), 1


def fit_stacked(
    x,
    y,
    base_hps: dict[str, HyperParams],
    k: int = 5,
    seed: int = 0,
    feature_names=None,
) -> StackedModel:
    """Train the base kinds per fold, collect out-of-fold predictions,
    and fit the least-squares meta model on them."""
    x, y = _training_set(x, y)
    n = x.shape[0]
    if not base_hps:
        raise ValueError("need at least one base kind")
    for kind in base_hps:
        if kind not in FIT_FUNCTIONS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
    if n < 2 * k:
        raise ValueError(f"need at least {2 * k} rows for {k} folds")
    fold = kfold_assignments(n, k, subseed_rng(seed, _FOLD_TAG))
    sizes = np.bincount(fold, minlength=k)
    min_leaf = max(hp.min_samples_leaf for hp in base_hps.values())
    if sizes.min() < min_leaf:
        raise ValueError(
            f"smallest fold has {sizes.min()} rows, below min_samples_leaf {min_leaf}"
        )

    kinds = tuple(base_hps)
    names = _feature_names(x, feature_names)
    oof = np.empty((n, len(kinds)))
    sub_models = []
    for z, kind in enumerate(kinds):
        per_fold = []
        for j in range(k):
            tr = fold != j
            hp = replace(base_hps[kind], seed=sub_model_seed(seed, z, j))
            model = FIT_FUNCTIONS[kind](x[tr], y[tr], hp, feature_names=names)
            per_fold.append(model)
            oof[~tr, z] = predict(model, x[~tr])
            # later predicts read the stacked model's own compilation of these trees
            del model._compiled
        sub_models.append(tuple(per_fold))

    design = np.column_stack([np.ones(n), oof])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return StackedModel(
        base_kinds=kinds,
        folds=k,
        sub_models=tuple(sub_models),
        fold_assignment=fold,
        meta_weights=coef[1:],
        meta_intercept=float(coef[0]),
        feature_names=names,
    )


def evaluate(y, pred) -> dict:
    """r2, mse, and mae of predictions `pred` of targets `y`."""
    y = np.asarray(y, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if y.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    if pred.shape != y.shape:
        raise ValueError("predictions and targets differ in shape")
    err = y - pred
    mse = float(np.mean(err**2))
    mae = float(np.mean(np.abs(err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(err**2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res == 0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"r2": r2, "mse": mse, "mae": mae}


# --- serialization -----------------------------------------------------------


def save_stacked(model: StackedModel, directory) -> list[str]:
    """Write one JSON per sub-model plus meta.json; returns the relative
    file names written."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for z, kind in enumerate(model.base_kinds):
        for j, sub in enumerate(model.sub_models[z]):
            name = f"sub_{kind.lower()}_{j}.json"
            save_ensemble(sub, os.path.join(directory, name))
            written.append(name)
    meta = {
        "base_kinds": list(model.base_kinds),
        "folds": model.folds,
        "fold_assignment": [int(v) for v in model.fold_assignment],
        "meta_weights": [float(w) for w in model.meta_weights],
        "meta_intercept": model.meta_intercept,
        "feature_names": list(model.feature_names),
    }
    write_json(os.path.join(directory, "meta.json"), meta)
    written.append("meta.json")
    return written


def load_stacked(directory) -> StackedModel:
    """The model save_stacked wrote. A missing or wrongly typed meta.json
    key, or a malformed sub-model, raises a ValueError naming it."""
    meta = typed(read_json(os.path.join(directory, "meta.json")), "object", "meta.json")
    kinds = take_list(meta, "base_kinds", "string", "meta.json")
    folds = take(meta, "folds", "integer", "meta.json")
    return StackedModel(
        base_kinds=kinds,
        folds=folds,
        fold_assignment=np.array(
            take_list(meta, "fold_assignment", "integer", "meta.json"), dtype=int
        ),
        meta_weights=np.array(take_list(meta, "meta_weights", "number", "meta.json")),
        meta_intercept=take(meta, "meta_intercept", "number", "meta.json"),
        feature_names=take_list(meta, "feature_names", "string", "meta.json"),
        sub_models=tuple(
            tuple(
                load_ensemble(os.path.join(directory, f"sub_{kind.lower()}_{j}.json"))
                for j in range(folds)
            )
            for kind in kinds
        ),
    )
