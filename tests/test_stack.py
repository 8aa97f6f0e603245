import json
from dataclasses import replace

import numpy as np
import pytest

import welloop.trees
from conftest import deep_model_text, naive_predict
from welloop.stack import evaluate, fit_stacked, load_stacked, save_stacked, sub_model_seed
from welloop.trees import FIT_FUNCTIONS, HyperParams, as_predictor, predict


def synthetic(seed, n=60, m=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    y = x[:, 0] * 2.0 + np.sin(x[:, 1]) - x[:, 2] ** 2 * 0.5 + rng.normal(size=n) * 0.2
    return x, y


SMALL_HPS = {
    "RF": HyperParams(n_trees=8, max_depth=3),
    "GBDT": HyperParams(n_trees=12, max_depth=2),
    "XGB": HyperParams(n_trees=12, max_depth=2),
}


def test_folds_partition_the_rows():
    x, y = synthetic(0)
    model = fit_stacked(x, y, SMALL_HPS, k=5, seed=3)
    fold = model.fold_assignment
    assert fold.shape == (60,)
    sizes = np.bincount(fold, minlength=5)
    assert sizes.sum() == 60
    assert sizes.max() - sizes.min() <= 1
    assert sizes.min() >= 1


def test_every_sub_model_retrains_identically_without_its_fold():
    """Leakage audit: sub-model (kind, fold) must be exactly the model
    obtained by training on the complement of that fold."""
    x, y = synthetic(1)
    seed = 7
    model = fit_stacked(x, y, SMALL_HPS, k=4, seed=seed)
    for z, kind in enumerate(model.base_kinds):
        for j in range(model.folds):
            tr = model.fold_assignment != j
            hp = replace(SMALL_HPS[kind], seed=sub_model_seed(seed, z, j))
            retrained = FIT_FUNCTIONS[kind](
                x[tr], y[tr], hp, feature_names=model.feature_names
            )
            assert np.array_equal(
                predict(retrained, x), predict(model.sub_models[z][j], x)
            ), f"sub-model {kind}/{j} saw rows outside its training folds"


def test_meta_model_is_least_squares_on_out_of_fold_predictions():
    x, y = synthetic(2)
    model = fit_stacked(x, y, SMALL_HPS, k=5, seed=11)
    n = x.shape[0]
    oof = np.empty((n, len(model.base_kinds)))
    for z in range(len(model.base_kinds)):
        for j in range(model.folds):
            held = model.fold_assignment == j
            oof[held, z] = naive_predict(model.sub_models[z][j], x[held])
    design = np.column_stack([np.ones(n), oof])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert model.meta_intercept == pytest.approx(coef[0], abs=1e-10)
    assert np.allclose(model.meta_weights, coef[1:], atol=1e-10)


def test_stacked_predict_matches_hand_reimplementation(rng):
    x, y = synthetic(3)
    model = fit_stacked(x, y, SMALL_HPS, k=3, seed=5)
    probe = rng.normal(size=(7, x.shape[1]))
    want = np.full(7, model.meta_intercept)
    for z in range(len(model.base_kinds)):
        per_kind = np.mean(
            [naive_predict(sub, probe) for sub in model.sub_models[z]], axis=0
        )
        want = want + model.meta_weights[z] * per_kind
    assert np.allclose(predict(model, probe), want, atol=1e-12)


@pytest.mark.parametrize("cells", [40, 300])
def test_a_row_predicts_alike_alone_and_in_a_many_block_batch(cells, rng, monkeypatch):
    x, y = synthetic(6)
    model = fit_stacked(x, y, SMALL_HPS, k=3, seed=2)
    probe = np.vstack([rng.normal(size=(9, x.shape[1])), x[:3]])
    forest = model.sub_models[0][0]
    whole = (predict(model, probe), predict(forest, probe))
    # 40 cells a block hold 1 row of the 96 stacked trees and 4 rows of
    # the 8-tree forest; 300 cells hold 3 and 33
    monkeypatch.setattr(welloop.trees, "_BLOCK_CELLS", cells)
    for target, want in zip((model, forest), whole):
        assert np.array_equal(predict(target, probe), want)
        for i in range(probe.shape[0]):
            assert np.array_equal(predict(target, probe[i]), want[i : i + 1])
        assert predict(target, probe[:0]).shape == (0,)


def test_as_predictor_dispatches_on_the_model_type():
    x, y = synthetic(7)
    model = fit_stacked(x, y, SMALL_HPS, k=3, seed=4)
    sub = model.sub_models[0][0]
    for target in (model, sub):
        assert np.array_equal(as_predictor(target)(x), predict(target, x))
    fn = lambda rows: rows[:, 0]
    assert as_predictor(fn) is fn
    with pytest.raises(TypeError, match="object"):
        as_predictor(object())


def test_sub_models_keep_no_compiled_arrays_after_a_stacked_fit():
    x, y = synthetic(5)
    model = fit_stacked(x, y, SMALL_HPS, k=3, seed=8)
    subs = [sub for per_fold in model.sub_models for sub in per_fold]
    assert not any(hasattr(sub, "_compiled") for sub in subs)
    fresh = predict(model, x)
    for sub in subs:
        predict(sub, x)  # compiles and caches each sub-model again
    assert np.array_equal(predict(model, x), fresh)


def test_stacking_is_deterministic():
    x, y = synthetic(4)
    a = fit_stacked(x, y, SMALL_HPS, k=4, seed=9)
    b = fit_stacked(x, y, SMALL_HPS, k=4, seed=9)
    probe = x[:10]
    assert np.array_equal(predict(a, probe), predict(b, probe))
    assert np.array_equal(a.fold_assignment, b.fold_assignment)
    c = fit_stacked(x, y, SMALL_HPS, k=4, seed=10)
    assert not np.array_equal(predict(a, probe), predict(c, probe))


def test_stacked_model_is_competitive_on_held_out_data():
    x, y = synthetic(5, n=140)
    x_tr, y_tr = x[:100], y[:100]
    x_te, y_te = x[100:], y[100:]
    model = fit_stacked(x_tr, y_tr, SMALL_HPS, k=5, seed=1)
    base_mses = []
    for kind, hp in SMALL_HPS.items():
        base = FIT_FUNCTIONS[kind](x_tr, y_tr, replace(hp, seed=1))
        base_mses.append(evaluate(y_te, predict(base, x_te))["mse"])
    stacked_mse = evaluate(y_te, predict(model, x_te))["mse"]
    assert stacked_mse <= 1.10 * min(base_mses)


# --- metrics ---------------------------------------------------------------------


def test_evaluate_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    scores = evaluate(y, [1.0, 2.0, 4.0])
    assert scores["mse"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert scores["mae"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert scores["r2"] == pytest.approx(0.5, abs=1e-15)


def test_evaluate_degenerate_targets():
    y = np.array([2.0, 2.0])
    assert evaluate(y, [2.0, 2.0])["r2"] == 1.0
    assert evaluate(y, [2.0, 3.0])["r2"] == 0.0
    with pytest.raises(ValueError, match="empty"):
        evaluate([], [])
    with pytest.raises(ValueError, match="shape"):
        evaluate(y, [2.0])


# --- serialization ----------------------------------------------------------------


def test_save_load_round_trip(tmp_path, rng):
    x, y = synthetic(6)
    model = fit_stacked(x, y, SMALL_HPS, k=3, seed=2)
    directory = tmp_path / "stacked"
    written = save_stacked(model, directory)
    assert "meta.json" in written
    assert len(written) == 3 * 3 + 1
    back = load_stacked(directory)
    assert back.base_kinds == model.base_kinds
    assert back.folds == model.folds
    assert back.feature_names == model.feature_names
    assert np.array_equal(back.fold_assignment, model.fold_assignment)
    probe = rng.normal(size=(9, x.shape[1]))
    assert np.array_equal(predict(back, probe), predict(model, probe))


# --- validation -------------------------------------------------------------------


def test_fit_stacked_validates_inputs():
    x, y = synthetic(7, n=9)
    with pytest.raises(ValueError, match="rows for"):
        fit_stacked(x, y, SMALL_HPS, k=5)
    with pytest.raises(ValueError, match="unknown"):
        fit_stacked(*synthetic(7), base_hps={"LGBM": HyperParams()})
    with pytest.raises(ValueError):
        fit_stacked(*synthetic(7), base_hps={})
    x2, y2 = synthetic(7)
    with pytest.raises(ValueError, match="row counts"):
        fit_stacked(x2, y2[:-1], SMALL_HPS)


def test_fit_stacked_refuses_nan_before_the_first_sub_fit(monkeypatch):
    x, y = synthetic(7)
    x[4, 1] = np.nan
    for kind in SMALL_HPS:
        monkeypatch.setitem(FIT_FUNCTIONS, kind, None)  # a sub-fit raises TypeError
    with pytest.raises(ValueError, match="x holds a NaN or infinite value"):
        fit_stacked(x, y, SMALL_HPS)


def test_fit_stacked_rejects_folds_smaller_than_leaves():
    x, y = synthetic(8, n=10)
    hps = {"RF": HyperParams(n_trees=2, min_samples_leaf=3)}
    with pytest.raises(ValueError, match="fold"):
        fit_stacked(x, y, hps, k=5)


def _saved_meta(tmp_path):
    x, y = synthetic(6)
    directory = tmp_path / "stacked"
    save_stacked(fit_stacked(x, y, SMALL_HPS, k=3, seed=2), directory)
    return directory, json.loads((directory / "meta.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda m: {}, "meta.json: missing key 'base_kinds'"),
        (lambda m: [], "meta.json: expected object, got list"),
        (lambda m: {**m, "folds": 2.5}, "meta.json.folds: expected integer, got float"),
        (lambda m: {**m, "folds": "3"}, "meta.json.folds: expected integer, got str"),
        (lambda m: {**m, "folds": 0}, "need at least 1 fold, got 0"),
        (lambda m: {**m, "base_kinds": ["RF", 1]}, r"base_kinds\[1\]: expected string"),
        (lambda m: {**m, "meta_weights": None}, "meta.json.meta_weights: expected list"),
        (lambda m: {**m, "fold_assignment": [0, None]}, r"assignment\[1\]: expected integer"),
        (lambda m: {k: m[k] for k in m if k != "meta_intercept"}, "key 'meta_intercept'"),
        (lambda m: {**m, "meta_weights": [1.0, 2.0]}, "a meta weight per kind"),
        (lambda m: {**m, "base_kinds": [], "meta_weights": []}, "need a kind"),
        (lambda m: {**m, "feature_names": list("abcd")}, "one list of feature names"),
        (lambda m: {**m, "meta_intercept": float("nan")}, "meta_intercept: expected a finite"),
        (
            lambda m: {**m, "meta_weights": [float("inf")] + m["meta_weights"][1:]},
            r"meta.json.meta_weights\[0\]: expected a finite number, got inf",
        ),
    ],
)
def test_malformed_stacked_meta_names_its_problem(tmp_path, change, problem):
    directory, meta = _saved_meta(tmp_path)
    (directory / "meta.json").write_text(json.dumps(change(meta)), encoding="utf-8")
    with pytest.raises(ValueError, match=problem):
        load_stacked(directory)


def test_a_stacked_model_refuses_sub_models_its_kinds_and_folds_do_not_count():
    """A model whose folds disagreed with its sub-models used to save and
    then reload as a different model; one with fewer kinds than sub-model
    lists saved and then failed to load."""
    x, y = synthetic(6)
    model = fit_stacked(x, y, SMALL_HPS, k=4, seed=2)
    with pytest.raises(ValueError, match="RF: 4 sub-models for 2 folds"):
        replace(model, folds=2)
    with pytest.raises(ValueError, match="sub-models and a meta weight per kind"):
        replace(model, base_kinds=model.base_kinds[:-1])
    assert replace(model, folds=4).terms()[0].tolist() == model.terms()[0].tolist()


def test_a_one_fold_stacked_model_round_trips_and_zero_folds_are_refused(tmp_path):
    """A one-fold model used to save and then fail to load; a zero-fold
    model used to construct and then fail to predict."""
    x, y = synthetic(6)
    model = fit_stacked(x, y, {"RF": SMALL_HPS["RF"]}, k=2, seed=2)
    one = replace(model, folds=1, sub_models=((model.sub_models[0][0],),))
    save_stacked(one, tmp_path)
    back = load_stacked(tmp_path)
    assert back.folds == 1
    assert np.array_equal(predict(back, x), predict(one, x))
    with pytest.raises(ValueError, match="need at least 1 fold, got 0"):
        replace(model, folds=0, sub_models=((),))


def test_a_sub_model_nested_too_deep_raises_value_error(tmp_path):
    directory, meta = _saved_meta(tmp_path)
    (directory / "sub_gbdt_1.json").write_text(deep_model_text(100_000), encoding="utf-8")
    with pytest.raises(ValueError, match="sub_gbdt_1.json: nested deeper"):
        load_stacked(directory)
