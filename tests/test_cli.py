import copy
import hashlib
import json

import pytest

from welloop.cli import main, parse_config, validate_config


def base_config():
    return {
        "seed": 5,
        "data": {"rows": 30, "noise_sd": 0.05},
        "train": {
            "kinds": ["rf"],
            "hyperparams": {"rf": {"n_trees": 3, "max_depth": 2}},
        },
        "stack": {"enabled": False},
        "explain": {"waterfalls": [0], "max_rows": 8},
    }


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def stage_status(manifest):
    return {s["name"]: s["status"] for s in manifest["stages"]}


def assert_manifest_reconciles(out):
    """Every listed artifact exists with the recorded hash, and no file
    besides the manifest itself goes unlisted."""
    manifest = read_manifest(out)
    listed = {a["path"] for a in manifest["artifacts"]}
    disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert disk - {"manifest.json"} == listed
    for art in manifest["artifacts"]:
        digest = hashlib.sha256((out / art["path"]).read_bytes()).hexdigest()
        assert digest == art["sha256"], art["path"]
    return manifest


def tree_hashes(out):
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }


# --- config parsing ----------------------------------------------------------------


def test_parse_config_fills_defaults():
    config, problems = parse_config(base_config())
    assert problems == []
    assert config.seed == 5
    assert config.train.kinds == ("RF",)
    assert config.train.hyperparams["RF"].n_trees == 3
    assert config.data.rows == 30
    assert config.stack.enabled is False
    assert config.optimize.wells == ()


def test_validate_config_catches_many_problems():
    bad = {
        "typo": 1,
        "data": {"rows": 30},
        "train": {"kinds": ["lgbm"]},
        "ice": [
            {
                "factors": [
                    {"name": "porosity"},
                    {"name": "TOC"},
                    {"name": "stage count"},
                    {"name": "stimulated length"},
                ]
            }
        ],
        "optimize": {
            "wells": [0],
            "variables": ["porosity"],
            "bounds": {"stage count": [30.0, 10.0]},
        },
    }
    problems = validate_config(bad)
    text = "\n".join(problems)
    assert "seed" in text
    assert "typo" in text
    assert "lgbm" in text
    assert "1 to 3" in text or "factors" in text
    assert "porosity" in text
    assert "bounds" in text or "reversed" in text
    assert len(problems) >= 5


def full_surface_config():
    obj = base_config()
    obj["train"]["kinds"] = ["rf", "gbdt", "xgb"]
    obj["train"]["tune"] = {
        "space": {"max_depth": {"choices": [2, 3]}, "learning_rate": {"range": [0.05, 0.3]}},
        "budget": 2,
        "folds": 2,
    }
    obj["stack"] = {"enabled": True, "k": 3}
    obj["ice"] = [{"factors": [{"name": "stage count", "steps": 5}], "sample": 4}]
    obj["optimize"] = {"methods": ["pso"], "wells": [0], "budget": 10}
    return obj


def test_validate_config_accepts_the_full_surface():
    assert validate_config(full_surface_config()) == []


def test_tune_space_entries_that_could_not_run_are_reported():
    bad = {
        "depth": {"choices": [2]},
        "max_depth": {},
        "n_trees": {"choices": [2], "range": [2, 3]},
        "lam": {"choices": []},
        "gamma": {"range": [1.0, 0.5]},
        "seed": {"range": ["a", "b"]},
        "min_samples_leaf": {"choices": [0, 2]},
    }
    obj = base_config()
    obj["train"]["tune"] = {"space": bad, "budget": 1}
    problems = validate_config(obj)
    for name in bad:
        assert any(f"train.tune.space.{name}" in p for p in problems), name
    assert len(problems) == len(bad)


def test_wrong_types_are_reported_not_raised():
    problems = validate_config({"seed": "five", "data": {"rows": 10.5}})
    assert any("seed" in p for p in problems)
    assert any("rows" in p for p in problems)


# --- validate subcommand --------------------------------------------------------------


def test_validate_subcommand_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_subcommand_reports_problems(tmp_path, capsys):
    path = write_config(tmp_path, {"typo": 1})
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "problem:" in out
    assert "seed" in out


def test_validate_subcommand_without_config(capsys):
    assert main(["validate"]) == 1
    assert "seed" in capsys.readouterr().out


def test_missing_or_broken_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().out
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--config", str(garbled)]) == 1
    assert "invalid JSON" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"typo": 1})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "problem:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- full runs -----------------------------------------------------------------------


def test_minimal_run_writes_reconciled_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert "artifacts written" in capsys.readouterr().out
    manifest = assert_manifest_reconciles(out)
    status = stage_status(manifest)
    assert status["data"] == "ok"
    assert status["train"] == "ok"
    assert status["explain"] == "ok"
    assert status["stack"] == "ok"
    assert status["ice"] == "skipped"
    assert status["optimize"] == "skipped"
    paths = {a["path"] for a in manifest["artifacts"]}
    assert {
        "config.json",
        "data/raw.csv",
        "data/clean.csv",
        "data/schema.json",
        "data/split.json",
        "models/rf.json",
        "shap/ranking.csv",
        "shap/waterfall_0.csv",
        "metrics.csv",
        "parity.csv",
    } <= paths


def test_full_surface_config_runs_end_to_end(tmp_path):
    obj = full_surface_config()
    obj["train"]["tune"]["space"]["n_trees"] = {"range": [2, 3]}
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = assert_manifest_reconciles(out)
    assert set(stage_status(manifest).values()) == {"ok"}
    tuned = json.loads((out / "models/hyperparams.json").read_text(encoding="utf-8"))
    for hp in tuned.values():
        assert hp["max_depth"] in (2, 3) and 0.05 <= hp["learning_rate"] <= 0.3


def test_runs_are_hash_identical_across_directories(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert tree_hashes(out1) == tree_hashes(out2)


def test_rerun_in_place_is_stable_and_reconciles(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    before = tree_hashes(out)
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert tree_hashes(out) == before
    assert_manifest_reconciles(out)


def test_seed_override_changes_the_models(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--seed", "6", "--out", str(out2)]) == 0
    h1, h2 = tree_hashes(out1), tree_hashes(out2)
    assert h1["models/rf.json"] != h2["models/rf.json"]
    assert h1["data/raw.csv"] != h2["data/raw.csv"]


def test_out_env_var_is_honored_and_flag_wins(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config())
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("WELLOOP_OUT", str(env_dir))
    assert main(["run", "--config", path]) == 0
    assert (env_dir / "manifest.json").is_file()
    flag_dir = tmp_path / "flag_out"
    assert main(["run", "--config", path, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "manifest.json").is_file()


# --- failure handling -------------------------------------------------------------


def test_stage_failure_exits_2_and_keeps_partials(tmp_path, capsys):
    obj = base_config()
    obj["explain"]["waterfalls"] = [9999]
    obj["stack"] = {"enabled": True, "k": 3}
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert "failed" in capsys.readouterr().err
    manifest = assert_manifest_reconciles(out)
    status = stage_status(manifest)
    assert status["data"] == "ok"
    assert status["train"] == "ok"
    assert status["explain"] == "failed"
    assert status["stack"] == "skipped"
    detail = {s["name"]: s.get("detail", "") for s in manifest["stages"]}
    assert "9999" in detail["explain"]
    assert detail["stack"] == "earlier stage failed"
    assert (out / "models/rf.json").is_file()


def test_standalone_stages_require_their_inputs(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["synthesize", "--config", path, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    status = stage_status(manifest)
    assert status["data"] == "ok"
    assert status["train"] == "skipped"
    # attribution needs trained models, which don't exist yet
    assert main(["explain", "--config", path, "--out", str(out)]) == 2
    assert "model" in capsys.readouterr().err


def test_standalone_explain_after_a_full_run(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    full = tree_hashes(out)
    assert main(["explain", "--config", path, "--out", str(out)]) == 0
    manifest = assert_manifest_reconciles(out)
    status = stage_status(manifest)
    assert status["explain"] == "ok"
    assert status["train"] == "ok"  # carried from the previous run
    assert tree_hashes(out)["models/rf.json"] == full["models/rf.json"]


def test_standalone_ice_and_optimize(tmp_path):
    obj = base_config()
    obj["ice"] = [{"factors": [{"name": "stimulated length", "steps": 4}], "sample": 3}]
    obj["optimize"] = {"methods": ["pso"], "wells": [1], "budget": 11}
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = assert_manifest_reconciles(out)
    paths = {a["path"] for a in manifest["artifacts"]}
    assert {
        "ice/ice_0.csv",
        "ice/ice_0.meta.json",
        "optimize/trace_w1_pso.csv",
        "optimize/result_w1_pso.json",
        "optimize/comparison.csv",
    } <= paths
    result = json.loads((out / "optimize/result_w1_pso.json").read_text())
    assert result["optimized_eur"] >= result["original_eur"]
    assert result["evaluations"] == 11
    assert len(result["radar"]) == len(result["variables"])
    # rerunning just those stages keeps everything reconciled
    assert main(["ice", "--config", path, "--out", str(out)]) == 0
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    assert_manifest_reconciles(out)


# --- model cache -------------------------------------------------------------------


def test_cached_models_are_reused_not_retrained(tmp_path):
    obj = base_config()
    obj["train"]["cached"] = True
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    model_path = out / "models/rf.json"
    tampered = json.loads(model_path.read_text(encoding="utf-8"))

    def first_leaf(node):
        if node.get("feature") is None:
            return node
        return first_leaf(node["left"])

    first_leaf(tampered["trees"][0])["value"] += 0.5
    model_path.write_text(json.dumps(tampered, sort_keys=True) + "\n", encoding="utf-8")
    tampered_hash = hashlib.sha256(model_path.read_bytes()).hexdigest()

    # config hash still matches, so the tampered file survives the rerun
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == tampered_hash
    assert_manifest_reconciles(out)

    # a hyperparameter change invalidates the cache and retrains
    changed = copy.deepcopy(obj)
    changed["train"]["hyperparams"]["rf"]["n_trees"] = 4
    path2 = write_config(tmp_path, changed, name="changed.json")
    assert main(["run", "--config", path2, "--out", str(out)]) == 0
    retrained = json.loads(model_path.read_text(encoding="utf-8"))
    assert len(retrained["trees"]) == 4


def test_cache_flag_off_always_retrains(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    model_path = out / "models/rf.json"
    original = model_path.read_bytes()
    broken = json.loads(original)
    broken["base_score"] = 99.0
    model_path.write_text(json.dumps(broken, sort_keys=True) + "\n", encoding="utf-8")
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert model_path.read_bytes() == original


# --- richer configurations ------------------------------------------------------------


def test_multi_kind_run_with_stack_interactions_and_clusters(tmp_path):
    obj = base_config()
    obj["train"]["kinds"] = ["rf", "gbdt"]
    obj["train"]["hyperparams"] = {
        "rf": {"n_trees": 3, "max_depth": 2},
        "gbdt": {"n_trees": 5, "max_depth": 2},
    }
    obj["stack"] = {"enabled": True, "k": 3}
    obj["explain"] = {
        "kind": "gbdt",
        "interactions": True,
        "clusters": 2,
        "waterfalls": [0, 2],
        "max_rows": 6,
    }
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = assert_manifest_reconciles(out)
    paths = {a["path"] for a in manifest["artifacts"]}
    assert {
        "models/rf.json",
        "models/gbdt.json",
        "models/stacked/meta.json",
        "shap/summary_gbdt.csv",
        "shap/dependency_gbdt.csv",
        "shap/clusters.csv",
        "shap/waterfall_0.csv",
        "shap/waterfall_2.csv",
    } <= paths
    import csv as csv_mod

    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.reader(fh))
    models = {r[0] for r in rows[1:]}
    assert models == {"rf", "gbdt", "stacked"}
    splits = {r[1] for r in rows[1:]}
    assert splits == {"train", "test"}
