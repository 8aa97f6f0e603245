import ast
import collections
import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import welloop
import welloop.cli
import welloop.explain
import welloop.stack
import welloop.trees
import welloop.utils
from welloop.cli import RunConfig, main, parse_config, validate_config
from welloop.data import (
    DEFAULT_SCHEMA,
    DataWarning,
    WellTable,
    load_csv,
    preprocess,
    synthesize,
    write_csv,
)
from welloop.ice import VariedFactor, ice
from welloop.optimize import optimize_wells
from welloop.trees import HyperParams, sample_space


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
    """Every listed artifact exists with the recorded hash, no path is
    listed twice, and no file besides the manifest itself goes unlisted."""
    manifest = read_manifest(out)
    listed = [a["path"] for a in manifest["artifacts"]]
    assert len(set(listed)) == len(listed), "a path is listed twice"
    disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert disk - {"manifest.json"} == set(listed)
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


def test_non_integer_tree_sizes_are_reported():
    obj = base_config()
    obj["train"]["hyperparams"]["rf"]["n_trees"] = 2.5
    assert validate_config(obj) == ["train.hyperparams.rf: n_trees must be an integer"]
    obj = base_config()
    obj["train"]["tune"] = {"space": {"n_trees": {"range": [2.0, 3.0]}}, "budget": 1}
    assert validate_config(obj) == ["train.tune.space.n_trees: n_trees must be an integer"]


def test_wrong_types_are_reported_not_raised():
    problems = validate_config({"seed": "five", "data": {"rows": 10.5}})
    assert any("seed" in p for p in problems)
    assert any("rows" in p for p in problems)


# Each invalid config with its whole problem list, sorted: the lists pin the
# messages `validate` prints. with_seed() alone is a valid config.
def with_seed(**sections):
    return {"seed": 1, **sections}


INVALID_CONFIGS = [
    pytest.param(["seed", 1], ["config: expected a JSON object"], id="not-an-object"),
    pytest.param({}, ["seed: required (an integer >= 0)"], id="no-seed"),
    pytest.param(
        {"seed": "five", "out": 3},
        [
            "config.out: expected str",
            "config.seed: expected int",
            "seed: required (an integer >= 0)",
        ],
        id="seed-wrong-type",
    ),
    pytest.param(
        {"seed": True},
        ["config.seed: expected int", "seed: required (an integer >= 0)"],
        id="seed-bool",
    ),
    pytest.param({"seed": -1}, ["seed: must be >= 0"], id="seed-negative"),
    pytest.param(with_seed(typo=1), ["config.typo: unknown key"], id="unknown-root-key"),
    pytest.param(
        with_seed(data=5, train=[], stack="x", explain=1, optimize=2.5),
        [
            "data: expected an object",
            "explain: expected an object",
            "optimize: expected an object",
            "stack: expected an object",
            "train: expected an object",
        ],
        id="sections-not-objects",
    ),
    pytest.param(
        with_seed(data={"rows": 10.5, "noise_sd": "x", "csv": 3, "cached": True}),
        [
            "data.cached: unknown key",
            "data.csv: expected str",
            "data.noise_sd: expected float",
            "data.rows: expected int",
        ],
        id="data-types",
    ),
    pytest.param(
        with_seed(data={"noise_sd": 10**400}),
        ["data.noise_sd: expected float"],
        id="data-integer-too-large-for-a-float",
    ),
    pytest.param(
        with_seed(
            data={
                "rows": 10,
                "noise_sd": -1,
                "missing_ratio_max": 1,
                "outlier_z": 0,
                "redundancy_r": 0,
            }
        ),
        [
            "data.missing_ratio_max: must be in [0, 1)",
            "data.noise_sd: must be >= 0",
            "data.outlier_z: must be > 0",
            "data.redundancy_r: must be in (0, 1]",
            "data.rows: synthetic tables need at least 20 rows",
        ],
        id="data-ranges",
    ),
    pytest.param(
        with_seed(data={"missing_ratio_max": -0.1, "redundancy_r": 1.5}),
        ["data.missing_ratio_max: must be in [0, 1)", "data.redundancy_r: must be in (0, 1]"],
        id="data-upper-ranges",
    ),
    pytest.param(
        with_seed(data={"csv": "no/such.csv", "schema": "no/such.json", "rows": 5}),
        ["data.csv: file not found: no/such.csv", "data.schema: file not found: no/such.json"],
        id="data-missing-files",
    ),
    pytest.param(
        # synthesis uses DEFAULT_SCHEMA, so names are checked against it
        with_seed(data={"schema": "no/such.json"}, ice=[{"factors": [{"name": "a"}]}]),
        [
            "data.schema: file not found: no/such.json",
            "data.schema: only read with data.csv",
            "ice[0]: unknown factor 'a'",
        ],
        id="data-schema-without-csv",
    ),
    pytest.param(
        with_seed(train={"kinds": ["lgbm", "rf", "RF", 1]}),
        [
            "train.kinds: duplicate kind 'RF'",
            "train.kinds: unknown kind 'lgbm' (choose from ('RF', 'GBDT', 'XGB'))",
            "train.kinds: unknown kind 1 (choose from ('RF', 'GBDT', 'XGB'))",
        ],
        id="train-kinds",
    ),
    pytest.param(
        with_seed(train={"kinds": []}, explain={"kind": "gbdt"}),
        [
            "explain.kind: 'GBDT' is not a trained kind",
            "train.kinds: need at least one model kind",
        ],
        id="train-no-kinds",
    ),
    pytest.param(
        with_seed(train={"kinds": "rf"}),
        ["train.kinds: expected list"],
        id="train-kinds-not-a-list",
    ),
    pytest.param(
        with_seed(
            train={
                "hyperparams": {
                    "lgbm": {},
                    "rf": 3,
                    "gbdt": {"n_trees": 0},
                    "xgb": {"depth": 2},
                }
            }
        ),
        [
            "train.hyperparams.gbdt: n_trees must be >= 1",
            "train.hyperparams.lgbm: unknown kind",
            "train.hyperparams.rf: expected an object",
            "train.hyperparams.xgb: HyperParams.__init__() got an unexpected keyword "
            "argument 'depth'",
        ],
        id="train-hyperparams",
    ),
    pytest.param(
        with_seed(train={"hyperparams": {"rf": {"seed": 99}, "gbdt": {"seed": 1, "n_trees": 0}}}),
        [
            "train.hyperparams.gbdt: seed is derived from the run seed",
            "train.hyperparams.rf: seed is derived from the run seed",
        ],
        id="train-hyperparams-seed",
    ),
    pytest.param(
        with_seed(train={"hyperparams": [], "test_fraction": 1, "cached": "yes"}),
        [
            "train.cached: unknown key",
            "train.hyperparams: expected dict",
            "train.test_fraction: must be in (0, 1)",
        ],
        id="train-types-and-ranges",
    ),
    pytest.param(
        with_seed(train={"tune": "x"}), ["train.tune: expected an object"], id="tune-not-an-object"
    ),
    pytest.param(
        with_seed(train={"tune": {"budget": -1, "folds": 1, "extra": 0}}),
        [
            "train.tune.budget: must be >= 0",
            "train.tune.extra: unknown key",
            "train.tune.folds: must be >= 2",
        ],
        id="tune-ranges",
    ),
    pytest.param(
        with_seed(train={"tune": {"budget": 1.5, "folds": "3", "space": 5}}),
        [
            "train.tune.budget: expected int",
            "train.tune.folds: expected int",
            "train.tune.space: expected dict",
        ],
        id="tune-types",
    ),
    pytest.param(
        with_seed(
            train={
                "tune": {
                    "budget": 1,
                    "space": {
                        "depth": {"choices": [2]},
                        "max_depth": {},
                        "n_trees": {"choices": [2], "range": [2, 3]},
                        "lam": {"choices": []},
                        "gamma": {"range": [1.0, 0.5]},
                        "seed": {"range": ["a", "b"]},
                        "min_samples_leaf": {"choices": [0, 2]},
                        "learning_rate": {"range": [0, 1]},
                        "feature_fraction": {"choices": "ab"},
                        "subsample_fraction": 0.5,
                    },
                }
            }
        ),
        [
            "train.tune.space.depth: not a hyperparameter",
            "train.tune.space.feature_fraction.choices: expected a non-empty list",
            "train.tune.space.gamma.range: expected [low, high] with low <= high",
            "train.tune.space.lam.choices: expected a non-empty list",
            "train.tune.space.learning_rate: learning_rate must be positive",
            "train.tune.space.max_depth: expected range or choices",
            "train.tune.space.min_samples_leaf: min_samples_leaf must be >= 1",
            "train.tune.space.n_trees: expected range or choices",
            "train.tune.space.seed: seed is derived from the run seed",
            "train.tune.space.subsample_fraction: expected range or choices",
        ],
        id="tune-space",
    ),
    pytest.param(
        with_seed(stack={"k": 1, "enabled": 1, "extra": None}),
        ["stack.enabled: expected bool", "stack.extra: unknown key", "stack.k: must be >= 2"],
        id="stack",
    ),
    pytest.param(
        with_seed(train={"kinds": ["rf"]}, explain={"kind": "gbdt"}),
        ["explain.kind: 'GBDT' is not a trained kind"],
        id="explain-kind-not-trained",
    ),
    pytest.param(
        with_seed(explain={"kind": 3, "interactions": "no", "waterfalls": 0, "max_rows": 2.0}),
        [
            "explain.interactions: expected bool",
            "explain.kind: expected str",
            "explain.max_rows: expected int",
            "explain.waterfalls: expected list",
        ],
        id="explain-types",
    ),
    pytest.param(
        with_seed(explain={"clusters": -1, "max_rows": 0, "waterfalls": [0, -1]}),
        [
            "explain.clusters: must be >= 0",
            "explain.max_rows: must be >= 1",
            "explain.waterfalls: entries must be non-negative integers",
        ],
        id="explain-ranges",
    ),
    pytest.param(
        with_seed(explain={"waterfalls": [0, "a", True]}),
        ["explain.waterfalls: entries must be non-negative integers"],
        id="explain-waterfalls-not-integers",
    ),
    pytest.param(
        with_seed(explain={"waterfalls": [0, 2, 0, 0]}),
        ["explain.waterfalls: duplicate row 0", "explain.waterfalls: duplicate row 0"],
        id="explain-waterfalls-repeated",
    ),
    pytest.param(
        with_seed(ice={"factors": [{"name": "stage count"}]}),
        ["config.ice: expected list"],
        id="ice-not-a-list",
    ),
    pytest.param(
        with_seed(ice=[5, None, "x"]),
        [
            "ice[0]: expected an object",
            "ice[0]: needs 1 to 3 factors, got 0",
            "ice[1]: needs 1 to 3 factors, got 0",
            "ice[2]: expected an object",
            "ice[2]: needs 1 to 3 factors, got 0",
        ],
        id="ice-jobs-not-objects",
    ),
    pytest.param(
        with_seed(ice=[{}, {"factors": []}, {"factors": 5, "extra": 1}]),
        [
            "ice[0]: needs 1 to 3 factors, got 0",
            "ice[1]: needs 1 to 3 factors, got 0",
            "ice[2].extra: unknown key",
            "ice[2].factors: expected list",
            "ice[2]: needs 1 to 3 factors, got 0",
        ],
        id="ice-jobs-without-factors",
    ),
    pytest.param(
        with_seed(ice=[{"factors": [{"steps": 5}, None, {"name": 3}, 4]}]),
        [
            "ice[0].factors[0].name: required",
            "ice[0].factors[1].name: required",
            "ice[0].factors[2].name: expected str",
            "ice[0].factors[2].name: required",
            "ice[0].factors[3].name: required",
            "ice[0].factors[3]: expected an object",
            "ice[0]: needs 1 to 3 factors, got 0",
        ],
        id="ice-factors-without-names",
    ),
    pytest.param(
        with_seed(
            ice=[
                {
                    "factors": [
                        {"name": "stage count", "steps": 1, "lower": 5, "upper": 2, "bogus": 0},
                        {"name": "stimulated length", "lower": "a", "steps": 2.5},
                    ]
                }
            ]
        ),
        [
            "ice[0].factors[0].bogus: unknown key",
            "ice[0].factors[1].lower: expected float",
            "ice[0].factors[1].steps: expected int",
            "ice[0]: lower must be < upper for 'stage count'",
            "ice[0]: steps must be >= 2 for 'stage count'",
        ],
        id="ice-factor-ranges",
    ),
    pytest.param(
        with_seed(
            data={"noise_sd": float("nan"), "outlier_z": float("inf")},
            train={
                "hyperparams": {"rf": {"lam": float("nan")}, "xgb": {"learning_rate": float("inf")}},
                "tune": {
                    "space": {
                        "gamma": {"range": [0, float("inf")]},
                        "lam": {"choices": [1.0, float("inf")]},
                    }
                },
            },
            ice=[{"factors": [{"name": "TOC", "lower": float("-inf"), "upper": float("nan")}]}],
            optimize={"bounds": {"stimulated length": [float("-inf"), 3000]}},
        ),
        [
            "data.noise_sd: expected float",
            "data.outlier_z: expected float",
            "ice[0].factors[0].lower: expected float",
            "ice[0].factors[0].upper: expected float",
            "optimize.bounds.stimulated length: expected [lower, upper]",
            "train.hyperparams.rf: lam must be finite",
            "train.hyperparams.xgb: learning_rate must be finite",
            "train.tune.space.gamma.range: expected [low, high] with low <= high",
            "train.tune.space.lam: lam must be finite",
        ],
        id="non-finite-numbers",
    ),
    pytest.param(
        with_seed(
            train={
                "tune": {
                    "space": {
                        "max_depth": {"range": [1, 2**63]},
                        "n_trees": {"range": [1, 2**63 - 1]},
                        "gamma": {"range": [0, 2**63]},
                    }
                }
            }
        ),
        ["train.tune.space.max_depth.range: expected an integer high <= 9223372036854775807"],
        id="tune-integer-range-past-int64",
    ),
    pytest.param(
        with_seed(
            ice=[
                {
                    "factors": [
                        {"name": "porosity"},
                        {"name": "TOC"},
                        {"name": "stage count"},
                        {"name": "stimulated length"},
                    ]
                }
            ]
        ),
        ["ice[0]: needs 1 to 3 factors, got 4"],
        id="ice-too-many-factors",
    ),
    pytest.param(
        with_seed(ice=[{"factors": [{"name": "nope"}, {"name": "EUR"}]}]),
        ["ice[0]: unknown factor 'EUR'", "ice[0]: unknown factor 'nope'"],
        id="ice-unknown-factors",
    ),
    pytest.param(
        with_seed(
            ice=[
                {"factors": [{"name": "stage count"}], "anchors": [-1], "sample": 0},
                {"factors": [{"name": "stage count"}], "anchors": "x", "sample": 1.5},
                {"factors": [{"name": "stage count"}], "anchors": [0, 1.0]},
            ]
        ),
        [
            "ice[0].anchors: entries must be non-negative integers",
            "ice[0].sample: must be >= 1",
            "ice[0]: give anchors or sample, not both",
            "ice[1].anchors: expected list",
            "ice[1].sample: expected int",
            "ice[2].anchors: entries must be non-negative integers",
        ],
        id="ice-anchors-and-sample",
    ),
    pytest.param(
        with_seed(ice=[{"factors": [{"name": "stage count"}], "anchors": []}]),
        ["ice[0]: need at least one anchor row"],
        id="ice-no-anchors",
    ),
    pytest.param(
        with_seed(ice=[{"factors": [{"name": "stage count"}], "anchors": [0, 1], "sample": 2}]),
        ["ice[0]: give anchors or sample, not both"],
        id="ice-anchors-with-sample",
    ),
    pytest.param(
        with_seed(optimize={"methods": ["ga", "pso", 3]}),
        [
            "optimize.methods: unknown method 'ga' (choose from ('pso', 'de', 'bayes'))",
            "optimize.methods: unknown method 3 (choose from ('pso', 'de', 'bayes'))",
        ],
        id="optimize-methods",
    ),
    pytest.param(
        with_seed(optimize={"methods": []}),
        ["optimize.methods: need at least one method"],
        id="optimize-no-methods",
    ),
    pytest.param(
        with_seed(optimize={"methods": ["pso", "ga", "de", "pso", "ga"], "wells": [1, 3, 1]}),
        [
            "optimize.methods: duplicate method 'pso'",
            "optimize.methods: unknown method 'ga' (choose from ('pso', 'de', 'bayes'))",
            "optimize.methods: unknown method 'ga' (choose from ('pso', 'de', 'bayes'))",
            "optimize.wells: duplicate well 1",
        ],
        id="optimize-methods-and-wells-repeated",
    ),
    pytest.param(
        with_seed(optimize={"methods": "pso", "wells": 0, "variables": "x", "bounds": []}),
        [
            "optimize.bounds: expected dict",
            "optimize.methods: expected list",
            "optimize.variables: expected list",
            "optimize.wells: expected list",
        ],
        id="optimize-types",
    ),
    pytest.param(
        with_seed(optimize={"wells": [-1, 1.5], "budget": 0}),
        ["optimize.budget: must be >= 1", "optimize.wells: entries must be non-negative integers"],
        id="optimize-ranges",
    ),
    pytest.param(
        with_seed(
            optimize={
                "bounds": {
                    "stage count": [30, 10],
                    "stimulated length": [1],
                    "proppant intensity": "x",
                    "nope": [0, 1],
                    "TOC": [0, True],
                    "angle to Hmin": [2, 2],
                }
            }
        ),
        [
            "optimize.bounds.TOC: expected [lower, upper]",
            "optimize.bounds.angle to Hmin: lower must be < upper",
            "optimize.bounds.proppant intensity: expected [lower, upper]",
            "optimize.bounds.stage count: lower must be < upper",
            "optimize.bounds.stimulated length: expected [lower, upper]",
            "optimize.bounds: 'TOC' is not searched",
            "optimize.bounds: unknown factor 'nope'",
        ],
        id="optimize-bounds",
    ),
    pytest.param(
        with_seed(
            optimize={
                "variables": ["stage count"],
                "bounds": {"stage count": [10, 20], "TOC": [1, 2], "proppant intensity": [1, 2]},
            }
        ),
        [
            "optimize.bounds: 'TOC' is not searched",
            "optimize.bounds: 'proppant intensity' is not searched",
        ],
        id="optimize-bounds-not-searched",
    ),
    pytest.param(
        with_seed(optimize={"variables": ["porosity", "nope", 3, "stage count"]}),
        [
            "optimize.variables: 'porosity' is not flagged optimizable",
            "optimize.variables: unknown factor 'nope'",
            "optimize.variables: unknown factor 3",
        ],
        id="optimize-variables",
    ),
    pytest.param(
        with_seed(optimize={"variables": ["stage count", "TOC", "stage count", "nope", "nope"]}),
        [
            "optimize.variables: 'TOC' is not flagged optimizable",
            "optimize.variables: duplicate factor 'nope'",
            "optimize.variables: duplicate factor 'stage count'",
            "optimize.variables: unknown factor 'nope'",
            "optimize.variables: unknown factor 'nope'",
        ],
        id="optimize-variables-repeated",
    ),
    pytest.param(
        with_seed(optimize={"variables": []}),
        ["optimize.variables: need at least one factor"],
        id="optimize-no-variables",
    ),
    pytest.param(
        with_seed(
            optimize={
                "bounds": {"stage count": [12.2, 12.8], "stimulated length": [1.2, 1.8]},
            }
        ),
        ["optimize.bounds.stage count: needs two whole numbers between lower and upper"],
        id="optimize-bounds-integer",
    ),
    pytest.param(
        # with no schema to name factors by, the pairs are still checked
        with_seed(
            data={"csv": "no/such.csv", "schema": "no/such.json"},
            optimize={"bounds": {"x": [1], "stage count": [30, 10], "TOC": [0, 1]}},
        ),
        [
            "data.csv: file not found: no/such.csv",
            "data.schema: file not found: no/such.json",
            "optimize.bounds.stage count: lower must be < upper",
            "optimize.bounds.x: expected [lower, upper]",
        ],
        id="optimize-bounds-without-a-schema",
    ),
    pytest.param(
        with_seed(explain={"max_rows": 5, "waterfalls": [4, 5, 7]}),
        [
            "explain.waterfalls: waterfall row 5 outside the explained rows",
            "explain.waterfalls: waterfall row 7 outside the explained rows",
        ],
        id="explain-waterfalls-beyond-max-rows",
    ),
    pytest.param(
        with_seed(explain={"max_rows": 3, "clusters": 4}),
        ["explain.clusters: cannot form 4 clusters from 3 rows"],
        id="explain-clusters-beyond-max-rows",
    ),
]


@pytest.mark.parametrize("obj, expected", INVALID_CONFIGS)
def test_invalid_configs_report_exactly_their_problems(obj, expected):
    assert sorted(validate_config(obj)) == expected


def loopbench_configs():
    """The configs the benchmark's workloads run, at seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "loopbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return {
        f"{name}/{config}": obj
        for name, workload in workloads.WORKLOADS.items()
        for config, obj in workload.configs(1).items()
    }


def every_key_config():
    return {
        "seed": 3,
        "out": "elsewhere",
        "data": {
            "csv": None,
            "schema": None,
            "rows": 40,
            "noise_sd": 0,
            "missing_ratio_max": 0,
            "outlier_z": 3,
            "redundancy_r": 1,
        },
        "train": {
            "kinds": ["xgb", "Rf"],
            "hyperparams": {"XGB": {"n_trees": 4, "learning_rate": 1, "lam": 0}},
            "tune": {"space": {"max_depth": {"range": [1, 3]}}, "budget": 0, "folds": 4},
            "test_fraction": 0.5,
        },
        "stack": {"enabled": True, "k": 2},
        "explain": {
            "kind": "rf",
            "interactions": True,
            "clusters": 2,
            "waterfalls": [1, 0],
            "max_rows": 5,
        },
        "ice": [
            {
                "factors": [
                    {"name": "stage count", "lower": 5, "upper": 20, "steps": 3},
                    {"name": "TOC", "lower": None},
                ],
                "anchors": [0, 3],
            },
            {"factors": [{"name": "stage count"}], "sample": 2},
        ],
        "optimize": {
            "methods": ["de", "bayes"],
            "wells": [2, 0],
            "variables": ["stage count"],
            "budget": 7,
            "bounds": {"stage count": [5, 20]},
        },
    }


# sha256 of json.dumps(asdict(config), sort_keys=True): the RunConfig each
# valid config parses to, which is also what the run writes to config.json
PARSED_CONFIG_SHA256 = {
    "base": "f5ccb683abb40741f782ffd6ef6ed7cb08fe31faf0a58bdbe47cd64e6b6822f6",
    "full-surface": "25b207ffa331af6c84bd2a99460a4eb3a2ad0e970ea3f3d8241ea136017c1a21",
    "every-key": "e26ffa82c052d1bd7ce65eb765c3d410d3191b9c3cedbcd4be25eba1a8b4657a",
    "design-search/setup": "10cc5a21725e7585c6210ea6105f4b2c1679dabf87ffc2d5ddc2119b23438090",
    "design-search/pass": "420601772886afd390de6ee57325db635cee7844cd1f2358e98df0acd7e3dee5",
    "attribution/setup": "3d4564ac7936962d29c6c180648cb80d943f2fa271710ba967c558164635c4b7",
    "attribution/pass": "cbb247931835580ea0d27715d4528099e1a318dd40ac7b8f1464d86ffae50cc8",
    "field-1k/run": "cf086c1727f60c8fdbf278f667685ad9b12cf324b4ca57193f0be989e0fb02bb",
}


def test_valid_configs_parse_to_the_pinned_run_config():
    configs = {"base": base_config(), "full-surface": full_surface_config()}
    configs["every-key"] = every_key_config()
    configs.update(loopbench_configs())
    digests = {}
    for name, obj in configs.items():
        config, problems = parse_config(obj)
        assert problems == [], name
        text = json.dumps(asdict(config), sort_keys=True)
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digests == PARSED_CONFIG_SHA256


_CONFIG_KEYS = st.sampled_from(
    "seed out data csv schema rows noise_sd missing_ratio_max outlier_z redundancy_r "
    "train kinds hyperparams tune space budget folds test_fraction rf GBDT "
    "n_trees max_depth learning_rate range choices stack enabled k explain kind "
    "interactions clusters waterfalls max_rows ice factors name lower upper steps "
    "sample anchors optimize methods wells variables bounds".split()
    + ["stage count", "TOC", "EUR"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_CONFIG_KEYS | st.text(max_size=4), inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_parse_config_reports_problems_for_any_json_value(obj):
    config, problems = parse_config(obj)
    assert isinstance(config, RunConfig)
    assert all(isinstance(p, str) for p in problems)


_FEATURES = [s.name for s in DEFAULT_SCHEMA if s.category != "production"]
_OPTIMIZABLE = [s.name for s in DEFAULT_SCHEMA if s.optimizable]
_ROWS = st.integers(0, 40)  # clean-table rows; past the end now and then


@st.composite
def _ice_jobs(draw):
    names = draw(st.lists(st.sampled_from(_FEATURES), min_size=1, max_size=3, unique=True))
    job = {"factors": [{"name": n, "steps": draw(st.integers(2, 4))} for n in names]}
    anchors = draw(st.sampled_from(["all", "sample", "anchors"]))
    if anchors == "sample":
        job["sample"] = draw(st.integers(1, 5))
    elif anchors == "anchors":
        job["anchors"] = draw(st.lists(_ROWS, min_size=1, max_size=3))
    return job


@st.composite
def _tiny_configs(draw):
    """Configs over the documented surface at tiny sizes."""
    kinds = draw(st.lists(st.sampled_from(["rf", "gbdt", "xgb"]), min_size=1, unique=True))
    trees = st.fixed_dictionaries({"n_trees": st.integers(1, 3), "max_depth": st.integers(1, 3)})
    variables = draw(
        st.none() | st.lists(st.sampled_from(_OPTIMIZABLE), min_size=1, max_size=3, unique=True)
    )
    # a bound is only accepted on a factor the search varies
    bound = st.tuples(st.sampled_from(variables or _OPTIMIZABLE), st.floats(0, 50), st.floats(1, 50))
    bounds = {name: [lo, lo + width] for name, lo, width in draw(st.lists(bound, max_size=2))}
    return {
        "seed": draw(st.integers(0, 2**16)),
        "data": {"rows": draw(st.integers(20, 40)), "noise_sd": draw(st.sampled_from([0.0, 0.1]))},
        "train": {
            "kinds": kinds,
            "hyperparams": {kind: draw(trees) for kind in kinds},
            "test_fraction": draw(st.sampled_from([0.1, 0.25, 0.5])),
        },
        "stack": {"enabled": draw(st.booleans()), "k": draw(st.integers(2, 3))},
        "explain": {
            "kind": draw(st.sampled_from([None, *kinds])),
            "interactions": draw(st.booleans()),
            "clusters": draw(st.sampled_from([0, 2, 3])),
            "waterfalls": draw(st.lists(st.integers(0, 8), max_size=2, unique=True)),
            "max_rows": draw(st.sampled_from([None, 2, 8])),
        },
        "ice": draw(st.lists(_ice_jobs(), max_size=2)),
        "optimize": {
            "methods": draw(st.lists(st.sampled_from(["pso", "de", "bayes"]), min_size=1, unique=True)),
            "wells": draw(st.lists(_ROWS, max_size=2, unique=True)),
            "variables": variables,
            "budget": draw(st.integers(1, 4)),
            "bounds": bounds,
        },
    }


@settings(max_examples=40, deadline=None)
@given(_tiny_configs())
def test_accepted_configs_run_to_success_or_a_domain_error(obj):
    """A config that validation accepts either runs (exit 0) or fails a
    stage (exit 2); no exception escapes, and the manifest matches the disk."""
    if parse_config(obj)[1]:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), obj)
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", path, "--out", str(out)])
        status = stage_status(assert_manifest_reconciles(out))
    assert code == (2 if "failed" in status.values() else 0)


# tune-space entries, good and bad: numbers of every kind, lists and
# dicts of them, and ranges that hold, some with integer ends on either
# side of int64's largest value, the last sample_space can draw.
_SCALARS = (
    st.integers(-3, 300) | st.floats() | st.booleans() | st.none() | st.text(max_size=2)
)
_LISTS = st.lists(_SCALARS, max_size=3)
_SPACE_ENTRIES = (
    st.fixed_dictionaries({"range": _LISTS | _SCALARS})
    | st.fixed_dictionaries({"choices": _LISTS | _SCALARS})
    | st.dictionaries(st.sampled_from(["range", "choices", "values"]), _LISTS, max_size=2)
    | st.lists(st.integers(0, 300), min_size=2, max_size=2).map(lambda p: {"range": sorted(p)})
    | st.lists(st.integers(2**63 - 3, 2**63 + 1), min_size=2, max_size=2).map(
        lambda p: {"range": sorted(p)}
    )
    | st.lists(st.floats(0, 1), min_size=2, max_size=2).map(lambda p: {"range": sorted(p)})
    | _SCALARS
    | _LISTS
)
_SPACE_NAMES = [f.name for f in fields(HyperParams) if f.name != "seed"] + ["depth", "trees"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SPACE_NAMES), _SPACE_ENTRIES)
def test_validate_refuses_exactly_the_tune_entries_sample_space_refuses(name, entry):
    """validate and the library state each tune-space rule once: a
    problem at train.tune.space.<name> exactly when sample_space raises,
    with the same words."""
    obj = base_config()
    obj["train"]["tune"] = {"space": {name: entry}, "budget": 1}
    try:
        sample_space({name: entry}, 1, 0)
        refused = []
    except ValueError as exc:
        refused = [f"train.tune.space.{exc}"]
    assert validate_config(obj) == refused


_ICE_ROWS = 5
# the table below holds values in [0, 1), so no one-sided end here is
# reversed once the other end is taken from the table
_AXIS_ENDS = st.sampled_from(
    [
        (None, None),
        (-1.0, None),
        (None, 2.0),
        (-1.7e308, None),
        (-1.0, 2.0),
        (2.0, -1.0),
        (0.5, 0.5),
        (-1.7e308, 1.7e308),
        (1.7e308, -1.7e308),
    ]
)
_AXES = st.tuples(st.sampled_from(_FEATURES[:4]), _AXIS_ENDS, st.integers(0, 3))


def _uniform_table():
    values = np.random.default_rng(0).uniform(size=(_ICE_ROWS, len(DEFAULT_SCHEMA)))
    return WellTable(DEFAULT_SCHEMA, values)


def _bounded_model(x):
    """Outputs of at most the column count: an average of curves near the
    largest float would overflow."""
    return np.tanh(x).sum(axis=1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_AXES, max_size=4),
    st.none() | st.lists(st.integers(0, _ICE_ROWS - 1), max_size=3),
    st.none() | st.integers(1, _ICE_ROWS),
)
def test_validate_refuses_exactly_the_ice_jobs_ice_refuses(axes, anchors, sample):
    """A job that only names known factors, ends that no table can
    reverse, and rows and a sample size inside the table, is a problem at
    ice[0] exactly when ice() raises, and ice() raises one of validate's
    messages."""
    factors = []
    for name, (lower, upper), steps in axes:
        factor = {"name": name, "steps": steps, "lower": lower, "upper": upper}
        factors.append({key: v for key, v in factor.items() if v is not None})
    job = {"factors": factors}
    if anchors is not None:
        job["anchors"] = anchors
    if sample is not None:
        job["sample"] = sample
    obj = base_config()
    obj["ice"] = [job]
    problems = validate_config(obj)
    assert all(p.startswith("ice[0]: ") for p in problems)
    varied = [VariedFactor(n, lower, upper, steps) for n, (lower, upper), steps in axes]
    try:
        ice(_bounded_model, _uniform_table(), varied, anchor_rows=anchors, sample=sample)
    except ValueError as exc:
        assert str(exc) in [p.split(": ", 1)[1] for p in problems]
    else:
        assert problems == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("rows", 19),
        ("noise_sd", -0.1),
        ("missing_ratio_max", 1.0),
        ("missing_ratio_max", -0.5),
        ("outlier_z", 0.0),
        ("redundancy_r", 0.0),
        ("redundancy_r", 1.5),
    ],
)
def test_validate_refuses_the_data_parameters_the_library_refuses(key, value):
    """Each data parameter's rule is parameter_problems': validate places
    it at data.<key>, and synthesize or preprocess raises it."""
    with pytest.raises(ValueError) as refused:
        if key in ("rows", "noise_sd"):
            synthesize(1, **{"n" if key == "rows" else key: value})
        else:
            preprocess(synthesize(1, n=20), **{key: value})
    assert validate_config(with_seed(data={key: value})) == [f"data.{refused.value}"]


class _Searched(Exception):
    """Raised by the model of the test below: the search began."""


def _unsearchable(x):
    raise _Searched


_BOUND_ENDS = st.sampled_from([-1.7e308, -1.0, 0.0, 12.2, 12.8, 13.0, 20.0, 1.7e308])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["stimulated length", "stage count"]),
    st.lists(_BOUND_ENDS, min_size=2, max_size=2)
    | st.lists(_BOUND_ENDS | st.sampled_from([float("inf"), float("nan"), True, "x"]), max_size=3),
)
def test_validate_refuses_exactly_the_bounds_optimize_wells_refuses(name, pair):
    """A bound pair on a searched factor is a problem at optimize.bounds
    exactly when optimize_wells raises before its search begins, with
    the same words."""
    obj = base_config()
    obj["optimize"] = {"variables": [name], "bounds": {name: pair}}
    try:
        optimize_wells(_unsearchable, _uniform_table(), [0], [name], bounds={name: pair})
    except ValueError as exc:
        refused = [f"optimize.{exc}"]
    except _Searched:
        refused = []
    assert validate_config(obj) == refused


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


@pytest.mark.parametrize(
    "entries, problem",
    [
        ([1], "[0]: expected object, got int"),
        ({}, ": expected a list of factors, got dict"),
        (
            [{"name": "a", "unit": "m", "category": "completion", "optimizable": 1}],
            "[0].optimizable: expected boolean, got int",
        ),
        (
            [{"name": n, "unit": "m", "category": "completion"} for n in ("a", "a")]
            + [{"name": "y", "unit": "-", "category": "production"}],
            ": duplicate factor names",
        ),
        (
            [{"name": "a", "unit": "m", "category": "completion"}],
            ": need exactly one production factor, got 0",
        ),
    ],
)
def test_validate_reports_a_malformed_schema_file(tmp_path, capsys, entries, problem):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(entries), encoding="utf-8")
    csv = tmp_path / "wells.csv"
    csv.write_text("", encoding="utf-8")
    config = base_config()
    config["data"] = dict(config["data"], csv=str(csv), schema=str(schema))
    assert main(["validate", "--config", write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().out == f"problem: data.schema: {schema}{problem}\n"


def test_validate_subcommand_without_config(capsys):
    assert main(["validate"]) == 1
    assert "seed" in capsys.readouterr().out


def test_a_call_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(welloop.cli.argparse, "ArgumentParser", no_new_parser)
    assert main(["validate"]) == 1
    assert "seed" in capsys.readouterr().out


def test_missing_or_broken_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().out
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--config", str(garbled)]) == 1
    assert "invalid JSON" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, problem, written",
    [
        (
            {"ice": [{"factors": [{"name": "stimulated length", "lower": float("-inf")}]}]},
            "ice[0].factors[0].lower: expected float",
            "ice/ice_0.csv",
        ),
        (
            {
                "optimize": {
                    "methods": ["pso"],
                    "wells": [0],
                    "budget": 5,
                    "bounds": {"stimulated length": [float("-inf"), 3000]},
                }
            },
            "optimize.bounds.stimulated length: expected [lower, upper]",
            "optimize/trace_w0_pso.csv",
        ),
    ],
    ids=["ice-lower", "optimize-bounds"],
)
def test_a_non_finite_number_in_the_config_file_is_refused(
    tmp_path, capsys, section, problem, written
):
    path = write_config(tmp_path, {**base_config(), **section})
    assert "-Infinity" in Path(path).read_text(encoding="utf-8")  # as json.load reads it
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"problem: {problem}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert not (out / written).exists()


_WIDE = [-1.7e308, 1.7e308]  # finite ends, but upper - lower overflows


@pytest.mark.parametrize(
    "section, problem",
    [
        (
            {"ice": [{"factors": [dict(name="stimulated length", lower=_WIDE[0], upper=_WIDE[1])]}]},
            "ice[0]: upper - lower overflows a float for 'stimulated length'",
        ),
        (
            {"optimize": {"wells": [0], "budget": 5, "bounds": {"stimulated length": _WIDE}}},
            "optimize.bounds.stimulated length: upper - lower overflows a float",
        ),
    ],
    ids=["ice", "optimize-bounds"],
)
def test_a_range_whose_span_overflows_is_refused(tmp_path, capsys, section, problem):
    """Both configs printed `config ok`: the ICE stage then wrote NaN and
    Infinity into its grid files, and the optimize stage failed."""
    path = write_config(tmp_path, {**base_config(), **section})
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"problem: {problem}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert not out.exists()


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


def test_tuning_keeps_the_configured_hyperparameters(tmp_path):
    obj = base_config()
    obj["train"]["tune"] = {"space": {"max_depth": {"choices": [1, 2]}}, "budget": 2, "folds": 2}
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    tuned = json.loads((out / "models/hyperparams.json").read_text(encoding="utf-8"))
    assert tuned["RF"]["n_trees"] == 3
    assert tuned["RF"]["max_depth"] in (1, 2)


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
    # a row beyond the table, which only the run can see (validate refuses
    # a row beyond max_rows, so the cap is dropped)
    obj["explain"] = {"waterfalls": [9999]}
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


def test_a_factor_preprocessing_dropped_fails_ice_and_optimize_by_name(tmp_path):
    obj = base_config()
    obj["data"]["redundancy_r"] = 0.2  # prunes "stage count" from these 30 rows
    obj["ice"] = [{"factors": [{"name": "stage count", "steps": 3}]}]
    obj["optimize"] = {"methods": ["pso"], "wells": [0], "budget": 3, "variables": ["stage count"]}
    assert validate_config(obj) == []
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2  # ice fails
    assert main(["optimize", "--config", path, "--out", str(out)]) == 2
    detail = {s["name"]: s.get("detail", "") for s in assert_manifest_reconciles(out)["stages"]}
    message = "ValueError: factor 'stage count' was dropped by preprocessing"
    assert detail["ice"] == detail["optimize"] == message


def test_a_bound_on_a_factor_preprocessing_dropped_fails_optimize_by_name(tmp_path):
    """With every optimizable factor searched, the bound used to be ignored."""
    obj = base_config()
    obj["data"]["redundancy_r"] = 0.25  # prunes all but one optimizable factor of 30 rows
    obj["optimize"] = {"methods": ["pso"], "wells": [0], "budget": 3}
    obj["optimize"]["bounds"] = {"stage count": [10, 20]}
    assert validate_config(obj) == []
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)]) == 2
    detail = {s["name"]: s.get("detail", "") for s in assert_manifest_reconciles(out)["stages"]}
    assert detail["optimize"] == "ValueError: factor 'stage count' was dropped by preprocessing"


def test_a_schema_column_named_twice_in_the_csv_fails_the_data_stage(tmp_path):
    path = tmp_path / "wells.csv"
    write_csv(synthesize(5, n=60), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([*row, row[0]] for row in rows)
    obj = base_config()
    obj["data"] = {"csv": str(path)}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)]) == 2
    detail = {s["name"]: s.get("detail", "") for s in assert_manifest_reconciles(out)["stages"]}
    assert f"columns named more than once in header: [{rows[0][0]!r}]" in detail["data"]


def test_an_infinite_csv_cell_drops_its_row_with_a_warning(tmp_path):
    """An infinite cell used to pass the data stage: its column's z-scores
    became NaN, `inf` reached data/clean.csv and the train stage failed."""
    path = tmp_path / "wells.csv"
    write_csv(synthesize(5, n=60), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[7][rows[0].index("stimulated length")] = "inf"  # data row 6
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    obj = base_config()
    obj["data"] = {"csv": str(path)}
    out = tmp_path / "out"
    with pytest.warns(DataWarning, match=r"row 6 rejected: infinite numeric 'inf'"):
        code = main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)])
    assert code == 0
    status = stage_status(assert_manifest_reconciles(out))
    assert status["data"] == status["train"] == status["explain"] == "ok"
    assert load_csv(out / "data/raw.csv", DEFAULT_SCHEMA).n_rows == 59
    assert "inf" not in (out / "data/clean.csv").read_text(encoding="utf-8")


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


def three_kind_config(stack):
    obj = base_config()
    obj["train"] = {
        "kinds": ["rf", "gbdt", "xgb"],
        "hyperparams": {k: {"n_trees": 3, "max_depth": 2} for k in ("rf", "gbdt", "xgb")},
    }
    obj["stack"] = {"enabled": stack, "k": 3}
    obj["explain"] = {
        "kind": "rf",
        "interactions": True,
        "clusters": 2,
        "waterfalls": [0, 1],
        "max_rows": 8,
    }
    return obj


def run_then_drop_the_other_kinds(tmp_path, obj):
    """A full run, its hashes, and the directory with the split and every
    train file but the first kind's model deleted."""
    path = write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    full = tree_hashes(out)
    dropped = ("data/split.json", "models/gbdt.json", "models/xgb.json", "models/hyperparams.json")
    for rel in dropped:
        (out / rel).unlink()
    return path, out, full


def under(hashes, prefix):
    return {rel: digest for rel, digest in hashes.items() if rel.startswith(prefix)}


def test_standalone_explain_reads_only_its_own_kind(tmp_path):
    path, out, full = run_then_drop_the_other_kinds(tmp_path, three_kind_config(stack=True))
    assert main(["explain", "--config", path, "--out", str(out)]) == 0
    assert len(under(full, "shap/")) == 6
    assert under(tree_hashes(out), "shap/") == under(full, "shap/")
    assert_manifest_reconciles(out)


def test_standalone_ice_and_optimize_read_only_the_first_kind(tmp_path):
    obj = three_kind_config(stack=False)
    obj["ice"] = [{"factors": [{"name": "stimulated length", "steps": 4}], "sample": 3}]
    obj["optimize"] = {"methods": ["pso"], "wells": [1], "budget": 5}
    path, out, full = run_then_drop_the_other_kinds(tmp_path, obj)
    for command in ("ice", "optimize"):
        assert main([command, "--config", path, "--out", str(out)]) == 0
    after = tree_hashes(out)
    for prefix in ("ice/", "optimize/"):
        assert under(full, prefix) and under(after, prefix) == under(full, prefix)
    assert_manifest_reconciles(out)


def test_a_run_predicts_each_model_once_on_each_split(tmp_path, monkeypatch):
    """metrics.csv and parity.csv are written from one prediction per
    (model, split), counted through a wrapper at every module that binds
    trees.predict."""
    original = welloop.trees.predict
    calls = collections.Counter()
    models = {}

    def counting(model, x):
        models[id(model)] = model
        calls[id(model), np.asarray(x, dtype=float).tobytes()] += 1
        return original(model, x)

    for module in (welloop.trees, welloop.stack, welloop.cli):
        monkeypatch.setattr(module, "predict", counting, raising=False)
    path = write_config(tmp_path, three_kind_config(stack=True))
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert set(calls.values()) == {1}
    stacked = [key for key in calls if isinstance(models[key[0]], welloop.stack.StackedModel)]
    assert len(stacked) == 2  # the train rows and the test rows


def test_a_rerun_in_place_leaves_no_stale_file(tmp_path):
    wide = three_kind_config(stack=True)
    wide["ice"] = [{"factors": [{"name": "stimulated length", "steps": 3}], "sample": 2}]
    shrunk = base_config()  # one kind, stacking off, no ICE
    shrunk["explain"]["waterfalls"] = [2]
    failing = copy.deepcopy(shrunk)  # explain fails before writing anything
    failing["explain"] = {"waterfalls": [9999]}  # beyond the table, not max_rows

    def run(obj, out):
        return main(["run", "--config", write_config(tmp_path, obj), "--out", str(tmp_path / out)])

    assert run(wide, "out") == 0
    assert run(shrunk, "out") == 0
    assert_manifest_reconciles(tmp_path / "out")
    assert run(shrunk, "fresh") == 0
    shrunk_files = tree_hashes(tmp_path / "out")
    assert shrunk_files == tree_hashes(tmp_path / "fresh")

    assert run(failing, "out") == 2
    status = stage_status(assert_manifest_reconciles(tmp_path / "out"))
    assert status["explain"] == "failed" and status["stack"] == "skipped"
    assert run(failing, "fresh_failing") == 2
    # the skipped stack stage's old files are dropped with the rest
    assert tree_hashes(tmp_path / "out") == tree_hashes(tmp_path / "fresh_failing")


def test_a_failed_rerun_leaves_no_later_stage_marked_ok(tmp_path):
    """Retrained models make the later stages' old files stale, so a rerun
    that fails before those stages skips them and drops their files."""
    obj = base_config()
    obj["ice"] = [{"factors": [{"name": "stimulated length", "steps": 3}], "sample": 2}]
    obj["optimize"] = {"methods": ["pso"], "wells": [0], "budget": 3}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)]) == 0
    obj["train"]["hyperparams"]["rf"]["n_trees"] = 5
    obj["explain"] = {"waterfalls": [500]}  # beyond the table: explain fails after train
    assert main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)]) == 2
    manifest = assert_manifest_reconciles(out)
    assert len(welloop.trees.load_ensemble(out / "models/rf.json").trees) == 5
    stages = {s["name"]: (s["status"], s.get("detail", "")) for s in manifest["stages"]}
    assert stages["explain"][0] == "failed"
    for stage in ("stack", "ice", "optimize"):
        assert stages[stage] == ("skipped", "earlier stage failed")
    assert {a["stage"] for a in manifest["artifacts"]} == {"config", "data", "train"}


def test_explain_refuses_a_model_of_other_columns(tmp_path, capsys):
    """The stage labels the table's columns with the model's names."""
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    model_path = out / "models/rf.json"
    model = json.loads(model_path.read_text(encoding="utf-8"))
    names = model["feature_names"]
    names[0], names[1] = names[1], names[0]
    model_path.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert main(["explain", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[explain] failed: model and table disagree on feature columns" in err
    assert_manifest_reconciles(out)


# --- reruns ---------------------------------------------------------------------


def test_every_rerun_retrains(tmp_path):
    """Every rerun trains afresh, so a damaged model file is written anew."""
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


# --- start-up cost ----------------------------------------------------------------------


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this welloop.
    Only a fresh process shows what an import loads: the test modules
    import scipy themselves."""
    paths = [str(Path(welloop.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """Importing scipy costs every CLI process over half a second and some
    40 MB, and welloop needs none of it: no scipy module at all loads with
    the CLI."""
    code = (
        "import sys, welloop.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert _fresh_python(code).strip() == "[]"


_BAYES_RUN = """
import welloop.optimize as o
problem = o.SearchProblem(
    objective=lambda u: -float((u[0] - 3.0) ** 2 + (u[1] - 1.0) ** 2),
    variables=(o.BoundedVariable("u", 0.0, 6.0), o.BoundedVariable("v", -2.0, 2.0)),
    budget=12,
)
[(best, trace)] = o.bayes_opt([problem], [4])
rows = [[e.index, *map(float, e.point), e.value] for e in trace.entries]
"""


def test_the_first_bayes_run_in_a_fresh_process_loads_no_scipy_and_matches():
    """The Bayesian search runs on numpy alone: after the CLI import and a
    whole search, no scipy module is loaded, and the trace is the one this
    process, which has imported scipy for its tests, computes."""
    code = (
        "import sys, welloop.cli\n"
        + _BAYES_RUN
        + "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
        "print(repr(rows))\n"
    )
    loaded, rows = _fresh_python(code).splitlines()
    assert loaded == "[]"
    here = {}
    exec(_BAYES_RUN, here)
    assert len(here["rows"]) == 12
    assert rows == repr(here["rows"])


def test_no_module_of_the_package_imports_scipy():
    """scipy is a test dependency only: no import statement anywhere under
    src/welloop names it, at module level or inside a function."""
    package = Path(welloop.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


# --- crash safety ---------------------------------------------------------------------


def _fail_writing(monkeypatch, name):
    """Make every write of the file `name` through welloop.utils fail
    after half of its first chunk reached the disk."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def failing_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return HalfWriter(fh) if Path(file).name == f"{name}.tmp" else fh

    monkeypatch.setattr(welloop.utils, "open", failing_open, raising=False)


def test_a_failed_manifest_write_keeps_the_previous_manifest(
    tmp_path, monkeypatch, capsys
):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    before = (out / "manifest.json").read_bytes()
    _fail_writing(monkeypatch, "manifest.json")
    assert main(["explain", "--config", path, "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == before
    assert stage_status(read_manifest(out))["explain"] == "ok"
    assert not list(out.rglob("*.tmp"))


def test_a_stage_writer_failing_mid_rows_leaves_no_partial_file(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    real_fmt = welloop.explain.fmt
    calls = []

    def failing_fmt(x):
        calls.append(x)
        if len(calls) == 20:
            raise RuntimeError("row builder failed")
        return real_fmt(x)

    monkeypatch.setattr(welloop.explain, "fmt", failing_fmt)
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert len(calls) == 20  # the summary CSV had begun its rows
    assert not list(out.rglob("*.tmp"))
    assert not (out / "shap/summary_rf.csv").exists()
    manifest = assert_manifest_reconciles(out)
    assert stage_status(manifest)["explain"] == "failed"


# --- previous manifests -----------------------------------------------------------------


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("command, stage", [("run", "data"), ("synthesize", "train")])
def test_a_previous_manifest_never_touches_files_outside_the_output(
    tmp_path, command, stage, absolute
):
    """`run` would delete the data stage's files, `synthesize` carry the
    train stage's; neither may reach a file outside the directory."""
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    victim = tmp_path / "victim.txt"
    victim.write_text("keep", encoding="utf-8")
    manifest = read_manifest(out)
    listed = str(victim) if absolute else "../victim.txt"
    manifest["artifacts"].append({"path": listed, "sha256": "0", "stage": stage})
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main([command, "--config", path, "--out", str(out)]) == 0
    assert victim.read_text(encoding="utf-8") == "keep"
    assert listed not in {a["path"] for a in read_manifest(out)["artifacts"]}


@pytest.mark.parametrize(
    "previous", [[1], {"artifacts": [{"stage": "config", "path": 5}]}]
)
def test_a_malformed_previous_manifest_counts_as_absent(tmp_path, previous):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps(previous), encoding="utf-8")
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert set(stage_status(assert_manifest_reconciles(out)).values()) == {"ok", "skipped"}


def test_a_previous_path_spelled_another_way_is_not_deleted(tmp_path):
    """`data/./raw.csv` is the file this run writes as `data/raw.csv`."""
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    manifest["artifacts"].append({"path": "data/./raw.csv", "sha256": "0", "stage": "data"})
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert_manifest_reconciles(out)


# --- richer configurations ------------------------------------------------------------


def test_one_cluster_writes_a_one_cluster_file(tmp_path):
    obj = base_config()
    obj["explain"]["clusters"] = 1
    assert validate_config(obj) == []
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, obj), "--out", str(out)]) == 0
    text = (out / "shap/clusters.csv").read_text(encoding="utf-8")
    assert text.splitlines() == ["sample,cluster"] + [f"{i},0" for i in range(8)]


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


def test_integer_bounds_without_two_whole_numbers_are_refused_before_the_run(
    tmp_path, capsys
):
    """optimize_well searches a whole-number factor between the outermost
    integers inside its bounds, so it needs two of them there."""
    obj = base_config()
    obj["data"]["rows"] = 40
    obj["optimize"] = {"methods": ["pso"], "wells": [0], "bounds": {"stage count": [12.2, 12.8]}}
    path = write_config(tmp_path, obj)
    problem = "optimize.bounds.stage count: needs two whole numbers between lower and upper"
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == f"problem: {problem}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert not out.exists()
    obj["optimize"].update(bounds={"stage count": [12.2, 13.8]}, budget=5)
    path = write_config(tmp_path, obj)
    assert main(["validate", "--config", path]) == 1
    obj["optimize"]["bounds"] = {"stage count": [11.5, 13.0]}
    path = write_config(tmp_path, obj)
    assert main(["validate", "--config", path]) == 0
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    result = json.loads((out / "optimize/result_w0_pso.json").read_text(encoding="utf-8"))
    assert "optimized" in result


# command -> help text and the stages it runs
COMMANDS = {
    "run": ("execute the full pipeline", ("data", "train", "explain", "stack", "ice", "optimize")),
    "validate": ("check a config file and report problems", ()),
    "synthesize": ("generate, clean, and split a synthetic dataset", ("data",)),
    "explain": ("recompute attributions against saved models", ("explain",)),
    "ice": ("recompute ICE grids against saved models", ("ice",)),
    "optimize": ("re-optimize wells against saved models", ("optimize",)),
}


def test_help_lists_the_six_commands_in_order_with_their_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    listed = re.findall(r"^    (\w+) +(\S.*)$", capsys.readouterr().out, re.MULTILINE)
    assert listed == [(name, text) for name, (text, _) in COMMANDS.items()]


def test_each_command_runs_exactly_its_stages(tmp_path, monkeypatch):
    ran = []
    for stage in welloop.cli.STAGES:
        monkeypatch.setattr(
            welloop.cli.Pipeline, f"stage_{stage}", lambda self, stage=stage: ran.append(stage)
        )
    path = write_config(tmp_path, base_config())
    for command, (_, stages) in COMMANDS.items():
        ran.clear()
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert tuple(ran) == stages, command
    status = stage_status(read_manifest(tmp_path / "synthesize"))
    assert status == {stage: "ok" if stage == "data" else "skipped" for stage in status}
    assert not (tmp_path / "validate").exists()
