"""Release gate: the numbered checks below are the contract this package
must keep. Each test prints one PASS/FAIL line with its pinned tolerance
so the gate can be read off a bare pytest run.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_fitted_ensemble, random_manual_ensemble
from welloop.cli import main
from welloop.data import ground_truth_eur, synthesize
from welloop.explain import (
    CoalitionalGame,
    shap_interactions,
    shapley_exact,
    tree_game,
    tree_shap,
)
from welloop.ice import VariedFactor, ice
from welloop.optimize import (
    BoundedVariable,
    SearchProblem,
    SwarmState,
    bayes_opt,
    de,
    de_trial,
    optimize_well,
    pso,
    pso_move,
)
from welloop.stack import evaluate, fit_stacked, sub_model_seed
from welloop.trees import (
    FIT_FUNCTIONS,
    HyperParams,
    TreeEnsemble,
    TreeNode,
    fit_gbdt,
    fit_xgb,
    predict,
)

_COLLECTED_TRACES = []  # (trace, lower, upper, budget) from every search here

GATE_RESULTS = []  # (label, passed); printed in the terminal summary


def _gate(label, body):
    try:
        failures = body() or []
    except Exception as exc:
        failures = [f"{type(exc).__name__}: {exc}"]
    GATE_RESULTS.append((label, not failures))
    assert not failures, "; ".join(str(f) for f in failures)


@pytest.fixture(scope="module")
def corpus():
    """100 random ensembles; up to 10 trees, depth 4, 8 features, and the
    fitted ones see at most 16 training samples."""
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(60):
        model = random_manual_ensemble(
            rng,
            n_features=int(rng.integers(2, 9)),
            n_trees=int(rng.integers(1, 11)),
            depth=int(rng.integers(1, 5)),
        )
        out.append((model, rng.normal(size=len(model.feature_names))))
    for _ in range(40):
        model, xs = random_fitted_ensemble(rng)
        out.append((model, xs[int(rng.integers(xs.shape[0]))]))
    return out


@pytest.fixture(scope="module")
def field_table():
    return synthesize(11, n=40, noise_sd=0.0)


def test_card_game_split_is_exact_and_fast():
    def body():
        payoffs = {
            frozenset(): 0.0,
            frozenset({0}): 7.0,
            frozenset({1}): 4.0,
            frozenset({2}): 6.0,
            frozenset({0, 1}): 7.0,
            frozenset({0, 2}): 15.0,
            frozenset({1, 2}): 9.0,
            frozenset({0, 1, 2}): 19.0,
        }
        game = CoalitionalGame(3, lambda s: payoffs[s])
        failures = []
        phi = shapley_exact(game)
        want = np.array([23.0 / 3.0, 19.0 / 6.0, 49.0 / 6.0])
        if np.max(np.abs(phi - want)) > 1e-12:
            failures.append(f"values off by {np.max(np.abs(phi - want))}")
        if abs(phi.sum() - 19.0) > 1e-12:
            failures.append(f"sum {phi.sum()} != 19")
        if [round(v, 1) for v in phi] != [7.7, 3.2, 8.2]:
            failures.append("rounded dollars wrong")
        took = min(
            (lambda t0: (shapley_exact(game), time.perf_counter() - t0)[1])(
                time.perf_counter()
            )
            for _ in range(5)
        )
        if took >= 1e-3:
            failures.append(f"single solve took {took * 1e3:.3f} ms")
        return failures

    _gate("exact Shapley on the card game: (23/3, 19/6, 49/6), sum 19, tol 1e-12, < 1 ms", body)


def test_fast_attribution_matches_exact_enumeration_at_scale(corpus):
    def body():
        failures = []
        t0 = time.perf_counter()
        worst = 0.0
        for model, x in corpus:
            attr = tree_shap(model, x[None, :])
            exact = shapley_exact(tree_game(model, x))
            worst = max(worst, float(np.max(np.abs(attr.values[0] - exact))))
        took = time.perf_counter() - t0
        if worst > 1e-9:
            failures.append(f"worst |fast - exact| = {worst}")
        if took >= 60.0:
            failures.append(f"corpus took {took:.1f} s")
        if len(corpus) < 100:
            failures.append(f"only {len(corpus)} ensembles")
        return failures

    _gate("fast attribution equals exhaustive enumeration on 100 random ensembles, tol 1e-9, < 60 s", body)


def test_attribution_additivity_everywhere(corpus, field_table):
    def body():
        rng = np.random.default_rng(7)
        models = [(m, np.atleast_2d(x)) for m, x in corpus]
        for m, _ in list(models):
            models.append((m, rng.normal(size=(8, len(m.feature_names)))))
        x_field = field_table.feature_matrix()
        y_field = field_table.target()
        for kind in ("RF", "GBDT", "XGB"):
            trained = FIT_FUNCTIONS[kind](
                x_field, y_field, HyperParams(n_trees=20, max_depth=3, seed=1)
            )
            models.append((trained, x_field))
        worst = 0.0
        for model, x in models:
            attr = tree_shap(model, x)
            recon = attr.base_value + attr.values.sum(axis=1)
            pred = predict(model, x)
            scale = np.maximum(1.0, np.abs(pred))
            worst = max(worst, float(np.max(np.abs(recon - pred) / scale)))
        if worst > 1e-9:
            return [f"worst relative reconstruction error {worst}"]
        return []

    _gate("base value plus attributions rebuilds every prediction, relative tol 1e-9", body)


def test_interaction_tensor_consistency(corpus):
    def body():
        failures = []
        worst_sym = worst_row = 0.0
        for model, x in corpus:
            tensor = shap_interactions(model, x[None, :])
            attr = tree_shap(model, x[None, :])
            mat = tensor.values[0]
            worst_sym = max(worst_sym, float(np.max(np.abs(mat - mat.T))))
            worst_row = max(
                worst_row,
                float(np.max(np.abs(mat.sum(axis=1) - attr.values[0]))),
            )
        if worst_sym > 1e-9:
            failures.append(f"asymmetry {worst_sym}")
        if worst_row > 1e-9:
            failures.append(f"row-sum mismatch {worst_row}")

        stump_a = TreeNode(
            cover=10, feature=0, threshold=0.0,
            left=TreeNode(cover=5, value=-1.0), right=TreeNode(cover=5, value=1.0),
        )
        stump_b = TreeNode(
            cover=10, feature=1, threshold=0.5,
            left=TreeNode(cover=3, value=2.0), right=TreeNode(cover=7, value=6.0),
        )
        additive = TreeEnsemble("GBDT", (stump_a, stump_b), 0.0, 1.0, ("a", "b"))
        probe = np.array([[1.0, 0.0], [-1.0, 1.0], [0.5, 0.4]])
        tensor = shap_interactions(additive, probe)
        off = tensor.values * (1.0 - np.eye(2))[None, :, :]
        if np.max(np.abs(off)) > 1e-12:
            failures.append(f"additive stumps leak {np.max(np.abs(off))} off-diagonal")
        return failures

    _gate("interaction tensors: symmetric and row-summing to attributions (1e-9); additive stumps zero off-diagonal (1e-12)", body)


def test_boosting_loss_monotone_across_seeds():
    def body():
        violations = 0
        for seed in range(10):
            table = synthesize(seed, n=60, noise_sd=0.1)
            model = fit_gbdt(
                table.feature_matrix(),
                table.target(),
                HyperParams(n_trees=30, max_depth=3, seed=seed),
            )
            losses = np.asarray(model.train_loss)
            violations += int(np.any(np.diff(losses) > 0))
        if violations:
            return [f"{violations}/10 seeds saw a loss increase"]
        return []

    _gate("gradient-boosting training loss never increases, 10 seeded datasets, zero violations", body)


def test_regularized_boosting_degenerates_to_plain_gradient():
    def body():
        def tree_out(node, row):
            while node.feature is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.value

        worst = 0.0
        rng = np.random.default_rng(5)
        for trial in range(5):
            x = rng.normal(size=(35, 3))
            y = x[:, 0] + rng.normal(size=35) * 0.3
            sub = 0.7 if trial >= 3 else 1.0
            hp = HyperParams(
                n_trees=8, max_depth=3, lam=0.0, gamma=0.0,
                subsample_fraction=sub, seed=trial,
            )
            gb = fit_gbdt(x, y, hp)
            xg = fit_xgb(x, y, hp)
            if len(gb.trees) != len(xg.trees) or gb.base_score != xg.base_score:
                return ["stage counts or base scores differ"]
            for tg, tx in zip(gb.trees, xg.trees):
                for row in x:
                    worst = max(worst, abs(tree_out(tg, row) - tree_out(tx, row)))
        if worst > 1e-10:
            return [f"stage-wise leaf outputs differ by {worst}"]
        return []

    _gate("second-order boosting equals first-order at zero regularization and shared sampling, stage-wise tol 1e-10", body)


def test_stacking_has_no_leakage_and_stays_competitive():
    def body():
        failures = []
        hps = {
            "RF": HyperParams(n_trees=15, max_depth=3),
            "GBDT": HyperParams(n_trees=25, max_depth=2),
            "XGB": HyperParams(n_trees=25, max_depth=2),
        }
        # structural audit on two configurations: each sub-model must be
        # reproducible from scratch using only the rows outside its fold
        for k, kinds in ((3, ("RF", "GBDT")), (5, tuple(hps))):
            table = synthesize(99, n=60, noise_sd=0.1)
            x, y = table.feature_matrix(), table.target()
            chosen = {kind: hps[kind] for kind in kinds}
            model = fit_stacked(x, y, chosen, k=k, seed=4)
            for z, kind in enumerate(model.base_kinds):
                for j in range(k):
                    tr = model.fold_assignment != j
                    hp = replace(chosen[kind], seed=sub_model_seed(4, z, j))
                    again = FIT_FUNCTIONS[kind](
                        x[tr], y[tr], hp, feature_names=model.feature_names
                    )
                    if not np.array_equal(
                        predict(again, x), predict(model.sub_models[z][j], x)
                    ):
                        failures.append(f"k={k} {kind} fold {j} saw held-out rows")

        base_mses = {kind: [] for kind in hps}
        stacked_mses = []
        for seed in range(20):
            table = synthesize(seed, n=90, noise_sd=0.1)
            x, y = table.feature_matrix(), table.target()
            perm = np.random.default_rng(seed + 1000).permutation(90)
            tr, te = perm[:60], perm[60:]
            for kind, hp in hps.items():
                base = FIT_FUNCTIONS[kind](x[tr], y[tr], replace(hp, seed=seed))
                base_mses[kind].append(evaluate(y[te], predict(base, x[te]))["mse"])
            stacked = fit_stacked(x[tr], y[tr], hps, k=5, seed=seed)
            stacked_mses.append(evaluate(y[te], predict(stacked, x[te]))["mse"])
        best_base = min(float(np.mean(v)) for v in base_mses.values())
        stacked_mean = float(np.mean(stacked_mses))
        if stacked_mean > 1.05 * best_base:
            failures.append(
                f"stacked mean test MSE {stacked_mean:.5f} > 1.05 x best base {best_base:.5f}"
            )
        return failures

    _gate("stacking: no sub-model sees its own fold; mean test MSE <= 1.05 x best base over 20 seeds", body)


class _OnesRng:
    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0


class _DeStubRng:
    def choice(self, candidates, size, replace):
        return np.asarray(candidates)[:3]

    def random(self, size=None):
        return np.array([0.0, 1.0])


def test_optimizer_correctness_battery(field_table):
    def body():
        failures = []
        t0 = time.perf_counter()

        # (a) one hand-checked swarm step under a stubbed generator
        state = SwarmState(
            positions=np.array([[2.0], [0.0]]),
            velocities=np.array([[1.0], [0.0]]),
            personal_best_positions=np.array([[3.0], [0.0]]),
            personal_best_values=np.zeros(2),
            global_best_position=np.array([5.0]),
            global_best_value=0.0,
            inertia=0.5, cognitive=1.0, social=1.0,
        )
        pso_move(state, np.array([0.0]), np.array([6.0]), _OnesRng())
        if state.velocities[0, 0] != 4.5 or state.positions[0, 0] != 6.0:
            failures.append("swarm step arithmetic wrong for particle 0")
        if state.velocities[1, 0] != 5.0 or state.positions[1, 0] != 5.0:
            failures.append("swarm step arithmetic wrong for particle 1")

        # (b) one hand-checked trial vector, then monotone member values
        population = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        trial = de_trial(
            population, 0, 0.5, 0.7,
            np.zeros(2), np.full(2, 3.0), _DeStubRng(),
        )
        if trial.tolist() != [0.5, 0.0]:
            failures.append(f"trial vector {trial.tolist()} != [0.5, 0.0]")
        sphere = SearchProblem(
            objective=lambda u: -float(np.sum((u - 1.0) ** 2)),
            variables=(BoundedVariable("a", -4.0, 4.0), BoundedVariable("b", -4.0, 4.0)),
            budget=120,
        )
        _, de_trace = de(sphere, seed=5)
        _COLLECTED_TRACES.append((de_trace, sphere.lower, sphere.upper, sphere.budget))
        member_log = np.array([it["member_values"] for it in de_trace.iteration_log])
        if np.any(np.diff(member_log, axis=0) < 0):
            failures.append("a member's objective decreased between generations")

        # (c) surrogate search pins a 1-D concave quadratic, every seed
        misses = []
        for seed in range(10):
            problem = SearchProblem(
                objective=lambda u: -((u[0] - 0.37) ** 2),
                variables=(BoundedVariable("u", 0.0, 1.0),),
                budget=18,
            )
            [(best, trace)] = bayes_opt([problem], [seed])
            _COLLECTED_TRACES.append((trace, problem.lower, problem.upper, 18))
            if len(trace.entries) > 18 or abs(best[0] - 0.37) > 0.02:
                misses.append(seed)
        if misses:
            failures.append(f"quadratic missed beyond 0.02 on seeds {misses}")

        # (d) all three methods re-optimize the weakest synthetic well to
        # the same answer and beat its current design
        row = int(np.argmin(field_table.target()))
        variables = [s.name for s in field_table.feature_specs if s.optimizable]
        finals = {}
        for method, budget in (("pso", 400), ("de", 400), ("bayes", 120)):
            out = optimize_well(
                ground_truth_eur, field_table, row, variables,
                method=method, budget=budget, seed=3,
            )
            _COLLECTED_TRACES.append((out.trace, None, None, budget))
            finals[method] = out.optimized_eur
            if not out.optimized_eur > out.original_eur:
                failures.append(f"{method} failed to improve the incumbent")
        spread = (max(finals.values()) - min(finals.values())) / abs(max(finals.values()))
        if spread > 0.01:
            failures.append(f"methods disagree by {spread * 100:.2f}%")

        took = time.perf_counter() - t0
        if took >= 300.0:
            failures.append(f"battery took {took:.0f} s")
        return failures

    _gate("optimizers: stubbed swarm and trial steps exact; quadratic within 0.02 in 18 evals 10/10; three methods within 1% on the ground-truth well, each beating the incumbent, < 5 min", body)


def test_all_traces_obey_their_contracts():
    def body():
        sphere = lambda u: -float(np.sum((u - 1.0) ** 2))
        variables = (
            BoundedVariable("a", -4.0, 4.0),
            BoundedVariable("b", -4.0, 4.0),
        )
        for budget in (1, 7, 23, 40):
            for runner in (pso, de, lambda p, seed: bayes_opt([p], [seed])[0]):
                problem = SearchProblem(sphere, variables, budget)
                _, trace = runner(problem, seed=budget)
                _COLLECTED_TRACES.append(
                    (trace, problem.lower, problem.upper, budget)
                )
        violations = []
        for trace, lower, upper, budget in _COLLECTED_TRACES:
            if len(trace.entries) > budget:
                violations.append("budget overrun")
            best = trace.best_so_far()
            if best.size and np.any(np.diff(best) < 0):
                violations.append("best-so-far decreased")
            for k, entry in enumerate(trace.entries):
                if entry.index != k:
                    violations.append("index gap")
                if lower is not None and (
                    np.any(entry.point < lower - 1e-12)
                    or np.any(entry.point > upper + 1e-12)
                ):
                    violations.append("point out of bounds")
        if violations:
            return [f"{len(violations)} violations across {len(_COLLECTED_TRACES)} traces"]
        if len(_COLLECTED_TRACES) < 20:
            return ["too few traces collected to mean anything"]
        return []

    _gate("every search trace: best-so-far monotone, points within bounds, evaluations within budget, zero violations", body)


def test_cli_runs_are_bit_reproducible(tmp_path):
    def body():
        config = {
            "seed": 9,
            "data": {"rows": 30, "noise_sd": 0.05},
            "train": {
                "kinds": ["rf", "gbdt", "xgb"],
                "hyperparams": {
                    "rf": {"n_trees": 4, "max_depth": 2},
                    "gbdt": {"n_trees": 6, "max_depth": 2},
                    "xgb": {"n_trees": 6, "max_depth": 2},
                },
            },
            "stack": {"enabled": True, "k": 3},
            "explain": {"waterfalls": [0], "max_rows": 8},
            "ice": [{"factors": [{"name": "stage count", "steps": 4}], "sample": 3}],
            "optimize": {"methods": ["pso", "de"], "wells": [0], "budget": 15},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")

        def run_into(name):
            out = tmp_path / name
            code = main(["run", "--config", str(path), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"pipeline exited {code}")
            return {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.rglob("*")
                if p.is_file()
            }

        first = run_into("first")
        second = run_into("second")
        if first != second:
            diff = {k for k in first.keys() | second.keys() if first.get(k) != second.get(k)}
            return [f"artifact trees differ: {sorted(diff)}"]
        if len(first) < 10:
            return [f"only {len(first)} artifacts produced"]
        return []

    _gate("two pipeline runs with the same config and seed leave hash-identical artifact trees", body)


def test_ice_grids_are_consistent_with_the_model(field_table):
    def body():
        failures = []
        x = field_table.feature_matrix()
        model = fit_gbdt(
            x, field_table.target(), HyperParams(n_trees=20, max_depth=3, seed=2),
            feature_names=field_table.feature_names,
        )
        name = "stimulated length"
        col = list(field_table.feature_names).index(name)
        direct = predict(model, x)
        worst_anchor = 0.0
        for anchor in range(6):
            own = float(x[anchor, col])
            grid = ice(
                model,
                field_table,
                [VariedFactor(name, own, own + 200.0, steps=4)],
                anchor_rows=[anchor],
            )
            worst_anchor = max(
                worst_anchor, abs(grid.predictions[0, 0] - direct[anchor])
            )
        if worst_anchor > 1e-12:
            failures.append(f"anchor-coincident error {worst_anchor}")

        grid = ice(
            model,
            field_table,
            [
                VariedFactor(name, 1200.0, 1900.0, steps=5),
                VariedFactor("stage count", 14.0, 30.0, steps=4),
            ],
        )
        avg_err = float(np.max(np.abs(grid.average - grid.predictions.mean(axis=0))))
        if avg_err > 1e-12:
            failures.append(f"average-curve error {avg_err}")
        return failures

    _gate("ICE grids: anchor-coincident points equal direct predictions and averages equal per-point means, tol 1e-12", body)
