"""Stacked generalization over the tree-ensemble kinds.

Each base kind is trained k times, once per held-out fold, and its
out-of-fold predictions form one meta feature. Because sub-model (z, j)
never sees fold j, the meta features carry no training-row leakage. The
meta model is ordinary least squares with an intercept on the raw
out-of-fold predictions. At prediction time a kind's k sub-models are
averaged before the meta model combines the kinds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from welloop.trees import (
    FIT_FUNCTIONS,
    HyperParams,
    TreeEnsemble,
    _as_matrix,
    _take,
    _take_list,
    _typed,
    load_ensemble,
    predict,
    save_ensemble,
)
from welloop.utils import kfold_assignments, mix_seed, read_json, subseed_rng, write_json

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

    def predict(self, x) -> np.ndarray:
        return predict_stacked(self, x)


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
    x = _as_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != x.shape[0]:
        raise ValueError("x and y row counts differ")
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
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{j}" for j in range(x.shape[1])
    )
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


def stacked_features(model: StackedModel, x) -> np.ndarray:
    """Per-kind base predictions (each kind's sub-models averaged)."""
    x = _as_matrix(x, len(model.feature_names))
    cols = []
    for per_fold in model.sub_models:
        acc = np.zeros(x.shape[0])
        for sub in per_fold:
            acc += predict(sub, x)
        cols.append(acc / len(per_fold))
    return np.column_stack(cols)


def predict_stacked(model: StackedModel, x) -> np.ndarray:
    feats = stacked_features(model, x)
    return model.meta_intercept + feats @ model.meta_weights


def as_predictor(model):
    """(predict function, feature names) of a stacked model or a tree
    ensemble; any other callable is its own predict function and has no
    feature names."""
    if isinstance(model, StackedModel):
        return lambda x: predict_stacked(model, x), model.feature_names
    if isinstance(model, TreeEnsemble):
        return lambda x: predict(model, x), model.feature_names
    if callable(model):
        return model, None
    raise TypeError(f"cannot predict with object of type {type(model).__name__}")


def evaluate(model, x, y) -> dict:
    """r2, mse, and mae of a stacked model, a tree ensemble, or any
    callable returning predictions."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    predictor, _ = as_predictor(model)
    pred = np.asarray(predictor(_as_matrix(x)), dtype=float)
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
    meta = _typed(read_json(os.path.join(directory, "meta.json")), "object", "meta.json")
    kinds = _take_list(meta, "base_kinds", "string", "meta.json")
    folds = _take(meta, "folds", "integer", "meta.json")
    if folds < 2:
        raise ValueError(f"meta.json.folds: need at least 2 folds, got {folds}")
    return StackedModel(
        base_kinds=kinds,
        folds=folds,
        fold_assignment=np.array(
            _take_list(meta, "fold_assignment", "integer", "meta.json"), dtype=int
        ),
        meta_weights=np.array(_take_list(meta, "meta_weights", "number", "meta.json")),
        meta_intercept=_take(meta, "meta_intercept", "number", "meta.json"),
        feature_names=_take_list(meta, "feature_names", "string", "meta.json"),
        sub_models=tuple(
            tuple(
                load_ensemble(os.path.join(directory, f"sub_{kind.lower()}_{j}.json"))
                for j in range(folds)
            )
            for kind in kinds
        ),
    )
