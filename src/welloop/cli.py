"""Command-line pipeline: ingest, train, explain, stack, ICE, optimize.

One JSON config file drives the whole run. Schema (every key optional
except "seed"):

    {
      "seed": 7,                      // required, drives every stage
      "out": "artifacts",             // output directory
      "data": {
        "csv": null,                  // path; null means synthesize
        "schema": null,               // factor schema JSON for the CSV
        "rows": 120,                  // synthetic sample count
        "noise_sd": 0.1,              // synthetic noise level
        "missing_ratio_max": 0.2,     // feature drop threshold
        "outlier_z": 4.0,             // row drop threshold
        "redundancy_r": 0.9           // collinear feature drop threshold
      },
      "train": {
        "kinds": ["rf", "gbdt", "xgb"],
        "hyperparams": {"rf": {"n_trees": 200}},   // per-kind overrides
        "tune": {                     // optional random search per kind
          "space": {"max_depth": {"choices": [3, 4, 5]},
                     "learning_rate": {"range": [0.05, 0.3]}},
          "budget": 0,                // 0 disables tuning
          "folds": 3
        },
        "test_fraction": 0.25,
        "cached": false               // reuse saved models on config match
      },
      "stack": {"enabled": true, "k": 5},
      "explain": {
        "kind": null,                 // ensemble to attribute; default first kind
        "interactions": false,        // gates the O(M^2) interaction tensor
        "clusters": 0,                // k-means groups over attribution rows
        "waterfalls": [0],            // per-well breakdown rows
        "max_rows": null              // cap on attributed samples
      },
      "ice": [                        // list of grid jobs, each 1..3 factors
        {"factors": [{"name": "stimulated length", "steps": 25}],
         "sample": null, "anchors": null}
      ],
      "optimize": {
        "methods": ["pso", "de", "bayes"],
        "wells": [],                  // clean-table rows; empty skips the stage
        "variables": null,            // default: all optimizable features
        "budget": 200,
        "bounds": {}                  // per-variable [lower, upper] overrides
      }
    }

Exit codes: 0 success, 1 config problems, 2 runtime failure. The output
directory is overridable with --out or the WELLOOP_OUT environment
variable (flag wins). Every run rewrites manifest.json listing each
artifact with its SHA-256; the manifest reconciles exactly with the
files on disk, itself excluded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from welloop.data import (
    DEFAULT_SCHEMA,
    WellTable,
    load_csv,
    load_schema,
    preprocess,
    save_schema,
    synthesize,
    write_csv,
)
from welloop.explain import (
    baseline_correlations,
    explain_well,
    rank_factors,
    shap_interactions,
    supervised_cluster,
    tree_shap,
    write_dependency_csv,
    write_summary_csv,
)
from welloop.ice import VariedFactor, ice
from welloop.optimize import METHODS, optimize_well
from welloop.stack import evaluate, fit_stacked, load_stacked, save_stacked
from welloop.trees import (
    FIT_FUNCTIONS,
    KINDS,
    HyperParams,
    load_ensemble,
    save_ensemble,
    tune_random_search,
)
from welloop.utils import fmt, mix_seed, subseed_rng

_SPLIT_TAG = 61
_TRAIN_TAG = 62
_TUNE_TAG = 63
_STACK_TAG = 64
_OPT_TAG = 65

STAGES = ("data", "train", "explain", "stack", "ice", "optimize")


# --- configuration ---------------------------------------------------------------


@dataclass
class DataConfig:
    csv: str | None = None
    schema: str | None = None
    rows: int = 120
    noise_sd: float = 0.1
    missing_ratio_max: float = 0.2
    outlier_z: float = 4.0
    redundancy_r: float = 0.9


@dataclass
class TuneConfig:
    space: dict = field(default_factory=dict)
    budget: int = 0
    folds: int = 3


@dataclass
class TrainConfig:
    kinds: tuple = ("rf", "gbdt", "xgb")
    hyperparams: dict = field(default_factory=dict)
    tune: TuneConfig | None = None
    test_fraction: float = 0.25
    cached: bool = False


@dataclass
class StackConfig:
    enabled: bool = True
    k: int = 5


@dataclass
class ExplainConfig:
    kind: str | None = None
    interactions: bool = False
    clusters: int = 0
    waterfalls: tuple = (0,)
    max_rows: int | None = None


@dataclass
class IceJob:
    factors: tuple = ()
    sample: int | None = None
    anchors: tuple | None = None


@dataclass
class OptimizeConfig:
    methods: tuple = ("pso", "de", "bayes")
    wells: tuple = ()
    variables: tuple | None = None
    budget: int = 200
    bounds: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "out"
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stack: StackConfig = field(default_factory=StackConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    ice: tuple = ()
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)


class _Section:
    """Typed reader over one config sub-object; accumulates problems
    instead of raising so validation reports everything at once."""

    def __init__(self, obj, label, problems):
        self.obj = obj if isinstance(obj, dict) else {}
        self.label = label
        self.problems = problems
        if obj is not None and not isinstance(obj, dict):
            problems.append(f"{label}: expected an object")

    def check_keys(self, allowed):
        for key in self.obj:
            if key not in allowed:
                self.problems.append(f"{self.label}.{key}: unknown key")

    def take(self, key, default, kind):
        if key not in self.obj or self.obj[key] is None:
            return default
        value = self.obj[key]
        ok = {
            "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "str": lambda v: isinstance(v, str),
            "bool": lambda v: isinstance(v, bool),
            "list": lambda v: isinstance(v, list),
            "dict": lambda v: isinstance(v, dict),
        }[kind](value)
        if not ok:
            self.problems.append(f"{self.label}.{key}: expected {kind}")
            return default
        return float(value) if kind == "float" else value


def _int_list(raw, label, problems):
    out = []
    for v in raw:
        if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
            out.append(v)
        else:
            problems.append(f"{label}: entries must be non-negative integers")
            return ()
    return tuple(out)


def _parse_tune(raw, problems):
    sec = _Section(raw, "train.tune", problems)
    sec.check_keys({"space", "budget", "folds"})
    cfg = TuneConfig(
        space=sec.take("space", {}, "dict"),
        budget=sec.take("budget", 0, "int"),
        folds=sec.take("folds", 3, "int"),
    )
    if cfg.budget < 0:
        problems.append("train.tune.budget: must be >= 0")
    if cfg.folds < 2:
        problems.append("train.tune.folds: must be >= 2")
    tunable = set(asdict(HyperParams()))
    for name, entry in cfg.space.items():
        label = f"train.tune.space.{name}"
        if name not in tunable:
            problems.append(f"{label}: not a hyperparameter")
        elif not isinstance(entry, dict) or set(entry) not in ({"range"}, {"choices"}):
            problems.append(f"{label}: expected range or choices")
        elif "choices" in entry and (
            not isinstance(entry["choices"], list) or not entry["choices"]
        ):
            problems.append(f"{label}.choices: expected a non-empty list")
        elif "range" in entry and not _is_range(entry["range"]):
            problems.append(f"{label}.range: expected [low, high] with low <= high")
        else:
            # every constraint on a hyperparameter is an interval, so a
            # range whose ends pass holds only passing values
            (values,) = entry.values()
            for value in values:
                try:
                    HyperParams(**{name: value})
                except (TypeError, ValueError) as exc:
                    problems.append(f"{label}: {exc}")
                    break
    return cfg


def _is_range(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        and value[0] <= value[1]
    )


def _sample_space(space: dict) -> dict:
    """The config's tune space in sample_space's form: a choice list stays
    a list, and a [low, high] range becomes a (low, high) tuple."""
    return {
        name: list(entry["choices"]) if "choices" in entry else tuple(entry["range"])
        for name, entry in space.items()
    }


def _parse_ice_jobs(raw, problems):
    jobs = []
    if not isinstance(raw, list):
        problems.append("ice: expected a list of grid jobs")
        return ()
    for i, job_raw in enumerate(raw):
        sec = _Section(job_raw, f"ice[{i}]", problems)
        sec.check_keys({"factors", "sample", "anchors"})
        factors_raw = sec.take("factors", [], "list")
        factors = []
        for j, f_raw in enumerate(factors_raw):
            fsec = _Section(f_raw, f"ice[{i}].factors[{j}]", problems)
            fsec.check_keys({"name", "lower", "upper", "steps"})
            name = fsec.take("name", None, "str")
            if name is None:
                problems.append(f"ice[{i}].factors[{j}].name: required")
                continue
            factors.append(
                {
                    "name": name,
                    "lower": fsec.take("lower", None, "float"),
                    "upper": fsec.take("upper", None, "float"),
                    "steps": fsec.take("steps", 25, "int"),
                }
            )
        if not 1 <= len(factors) <= 3:
            problems.append(f"ice[{i}]: needs 1 to 3 factors, got {len(factors)}")
        for f in factors:
            if f["steps"] < 2:
                problems.append(f"ice[{i}].factors: steps must be >= 2")
            if (
                f["lower"] is not None
                and f["upper"] is not None
                and not f["lower"] < f["upper"]
            ):
                problems.append(
                    f"ice[{i}].factors.{f['name']}: lower must be < upper"
                )
        anchors = sec.take("anchors", None, "list")
        if anchors is not None:
            anchors = _int_list(anchors, f"ice[{i}].anchors", problems)
        sample = sec.take("sample", None, "int")
        if sample is not None and sample < 1:
            problems.append(f"ice[{i}].sample: must be >= 1")
        jobs.append(IceJob(factors=tuple(factors), sample=sample, anchors=anchors))
    return tuple(jobs)


def parse_config(obj) -> tuple[RunConfig, list[str]]:
    """Turn a raw config dict into a RunConfig plus the full list of
    problems. The config is only trustworthy when the list is empty."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return RunConfig(), ["config: expected a JSON object"]
    root = _Section(obj, "config", problems)
    root.check_keys(
        {"seed", "out", "data", "train", "stack", "explain", "ice", "optimize"}
    )

    seed = root.take("seed", None, "int")
    if seed is None:
        problems.append("seed: required (an integer >= 0)")
        seed = 0
    elif seed < 0:
        problems.append("seed: must be >= 0")
        seed = 0
    out = root.take("out", "out", "str")

    d = _Section(obj.get("data"), "data", problems)
    d.check_keys(
        {
            "csv",
            "schema",
            "rows",
            "noise_sd",
            "missing_ratio_max",
            "outlier_z",
            "redundancy_r",
        }
    )
    data = DataConfig(
        csv=d.take("csv", None, "str"),
        schema=d.take("schema", None, "str"),
        rows=d.take("rows", 120, "int"),
        noise_sd=d.take("noise_sd", 0.1, "float"),
        missing_ratio_max=d.take("missing_ratio_max", 0.2, "float"),
        outlier_z=d.take("outlier_z", 4.0, "float"),
        redundancy_r=d.take("redundancy_r", 0.9, "float"),
    )
    if data.csv is None and data.rows < 20:
        problems.append("data.rows: synthetic tables need at least 20 rows")
    if data.csv is not None and not Path(data.csv).is_file():
        problems.append(f"data.csv: file not found: {data.csv}")
    if data.schema is not None and not Path(data.schema).is_file():
        problems.append(f"data.schema: file not found: {data.schema}")
    if data.noise_sd < 0:
        problems.append("data.noise_sd: must be >= 0")
    if not 0.0 <= data.missing_ratio_max < 1.0:
        problems.append("data.missing_ratio_max: must be in [0, 1)")
    if data.outlier_z <= 0:
        problems.append("data.outlier_z: must be > 0")
    if not 0.0 < data.redundancy_r <= 1.0:
        problems.append("data.redundancy_r: must be in (0, 1]")

    t = _Section(obj.get("train"), "train", problems)
    t.check_keys({"kinds", "hyperparams", "tune", "test_fraction", "cached"})
    kinds_raw = t.take("kinds", ["RF", "GBDT", "XGB"], "list")
    kinds = []
    for kind in kinds_raw:
        name = kind.upper() if isinstance(kind, str) else kind
        if name not in KINDS:
            problems.append(f"train.kinds: unknown kind {kind!r} (choose from {KINDS})")
        elif name in kinds:
            problems.append(f"train.kinds: duplicate kind {kind!r}")
        else:
            kinds.append(name)
    if not kinds:
        problems.append("train.kinds: need at least one model kind")
        kinds = ["RF"]
    hp_raw = t.take("hyperparams", {}, "dict")
    hyperparams = {}
    for kind, fields in hp_raw.items():
        name = kind.upper() if isinstance(kind, str) else kind
        if name not in KINDS:
            problems.append(f"train.hyperparams.{kind}: unknown kind")
            continue
        if not isinstance(fields, dict):
            problems.append(f"train.hyperparams.{kind}: expected an object")
            continue
        try:
            hyperparams[name] = HyperParams(**fields)
        except (TypeError, ValueError) as exc:
            problems.append(f"train.hyperparams.{kind}: {exc}")
    tune = None
    if "tune" in t.obj:
        tune = _parse_tune(t.obj["tune"], problems)
    train = TrainConfig(
        kinds=tuple(kinds),
        hyperparams=hyperparams,
        tune=tune,
        test_fraction=t.take("test_fraction", 0.25, "float"),
        cached=t.take("cached", False, "bool"),
    )
    if not 0.0 < train.test_fraction < 1.0:
        problems.append("train.test_fraction: must be in (0, 1)")

    s = _Section(obj.get("stack"), "stack", problems)
    s.check_keys({"enabled", "k"})
    stack = StackConfig(
        enabled=s.take("enabled", True, "bool"), k=s.take("k", 5, "int")
    )
    if stack.k < 2:
        problems.append("stack.k: must be >= 2")

    e = _Section(obj.get("explain"), "explain", problems)
    e.check_keys({"kind", "interactions", "clusters", "waterfalls", "max_rows"})
    kind_raw = e.take("kind", None, "str")
    explain = ExplainConfig(
        kind=kind_raw.upper() if isinstance(kind_raw, str) else kind_raw,
        interactions=e.take("interactions", False, "bool"),
        clusters=e.take("clusters", 0, "int"),
        waterfalls=tuple(e.take("waterfalls", [0], "list")),
        max_rows=e.take("max_rows", None, "int"),
    )
    if explain.kind is not None and explain.kind not in train.kinds:
        problems.append(f"explain.kind: {explain.kind!r} is not a trained kind")
    if explain.clusters < 0:
        problems.append("explain.clusters: must be >= 0")
    if explain.max_rows is not None and explain.max_rows < 1:
        problems.append("explain.max_rows: must be >= 1")
    explain = replace(
        explain,
        waterfalls=_int_list(explain.waterfalls, "explain.waterfalls", problems),
    )

    ice_jobs = _parse_ice_jobs(obj.get("ice", []), problems)

    o = _Section(obj.get("optimize"), "optimize", problems)
    o.check_keys({"methods", "wells", "variables", "budget", "bounds"})
    methods_raw = o.take("methods", list(METHODS), "list")
    for m in methods_raw:
        if m not in METHODS:
            problems.append(f"optimize.methods: unknown method {m!r} (choose from {METHODS})")
    variables = o.take("variables", None, "list")
    optimize = OptimizeConfig(
        methods=tuple(m for m in methods_raw if m in METHODS),
        wells=_int_list(o.take("wells", [], "list"), "optimize.wells", problems),
        variables=None if variables is None else tuple(variables),
        budget=o.take("budget", 200, "int"),
        bounds=o.take("bounds", {}, "dict"),
    )
    if not optimize.methods:
        problems.append("optimize.methods: need at least one method")
        optimize = replace(optimize, methods=("pso",))
    if optimize.budget < 1:
        problems.append("optimize.budget: must be >= 1")
    for name, pair in optimize.bounds.items():
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            problems.append(f"optimize.bounds.{name}: expected [lower, upper]")
        elif not pair[0] < pair[1]:
            problems.append(f"optimize.bounds.{name}: lower must be < upper")

    config = RunConfig(
        seed=seed,
        out=out,
        data=data,
        train=train,
        stack=stack,
        explain=explain,
        ice=ice_jobs,
        optimize=optimize,
    )
    _check_factor_references(config, problems)
    return config, problems


def _reference_schema(config):
    if config.data.schema is not None and Path(config.data.schema).is_file():
        try:
            return load_schema(config.data.schema)
        except (ValueError, json.JSONDecodeError):
            return None
    if config.data.csv is None or config.data.schema is None:
        return DEFAULT_SCHEMA
    return None


def _check_factor_references(config, problems):
    """Every factor name mentioned in ice/optimize sections must exist in
    the schema; optimize variables must also carry the optimizable flag."""
    specs = _reference_schema(config)
    if specs is None:
        return
    by_name = {s.name: s for s in specs}
    features = {s.name for s in specs if s.category != "production"}
    for i, job in enumerate(config.ice):
        for f in job.factors:
            if f["name"] not in features:
                problems.append(f"ice[{i}]: unknown factor {f['name']!r}")
    named = config.optimize.variables
    if named is not None:
        for name in named:
            if not isinstance(name, str) or name not in features:
                problems.append(f"optimize.variables: unknown factor {name!r}")
            elif not by_name[name].optimizable:
                problems.append(
                    f"optimize.variables: {name!r} is not flagged optimizable"
                )
    for name in config.optimize.bounds:
        if name not in features:
            problems.append(f"optimize.bounds: unknown factor {name!r}")


def validate_config(obj) -> list[str]:
    """Schema, range, and reference checks only; no compute."""
    return parse_config(obj)[1]


# --- pipeline ----------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """Sequential stage runner over one output directory.

    Stages record each file as they write it, so a failing stage leaves
    its partial artifacts both on disk and in the manifest. Re-runs first
    delete the files the previous manifest attributed to the stages being
    executed, keeping manifest and disk reconciled.
    """

    def __init__(self, config: RunConfig, out_dir):
        self.config = config
        self.out = Path(out_dir)
        self.artifacts: list[dict] = []
        self.statuses: dict[str, tuple[str, str]] = {}
        self.table: WellTable | None = None
        self.train_idx = None
        self.test_idx = None
        self.models: dict = {}
        self.hps: dict = {}
        self.stacked = None
        self.prev_manifest = self._load_prev_manifest()

    # -- bookkeeping --

    def _load_prev_manifest(self):
        path = self.out / "manifest.json"
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            return None

    def _path(self, rel) -> Path:
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _record(self, rel, stage):
        self.artifacts.append({"path": rel, "stage": stage})

    def _write_json(self, rel, obj, stage):
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        self._path(rel).write_text(text, encoding="utf-8")
        self._record(rel, stage)

    def _clear_stage(self, stage):
        if not self.prev_manifest:
            return
        for art in self.prev_manifest.get("artifacts", []):
            if art.get("stage") == stage:
                path = self.out / art.get("path", "")
                if path.is_file():
                    path.unlink()

    def _carry_stage(self, stage, detail=""):
        status = ("skipped", detail)
        if self.prev_manifest:
            for art in self.prev_manifest.get("artifacts", []):
                if art.get("stage") == stage and (self.out / art["path"]).is_file():
                    self._record(art["path"], stage)
            for entry in self.prev_manifest.get("stages", []):
                if entry.get("name") == stage:
                    status = (entry.get("status", "skipped"), entry.get("detail", ""))
        self.statuses[stage] = status

    def write_manifest(self):
        arts = []
        for art in self.artifacts:
            path = self.out / art["path"]
            arts.append(
                {"path": art["path"], "sha256": _sha256(path), "stage": art["stage"]}
            )
        arts.sort(key=lambda a: a["path"])
        stages = []
        for name in STAGES:
            status, detail = self.statuses.get(name, ("skipped", ""))
            entry = {"name": name, "status": status}
            if detail:
                entry["detail"] = detail
            stages.append(entry)
        manifest = {"stages": stages, "artifacts": arts}
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        self._path("manifest.json").write_text(text, encoding="utf-8")

    def run(self, selected=None) -> int:
        """Execute the selected stages (all by default) in pipeline order
        and write the manifest; returns the process exit code."""
        selected = set(STAGES if selected is None else selected)
        self.out.mkdir(parents=True, exist_ok=True)
        self._clear_stage("config")
        self._write_json("config.json", asdict(self.config), "config")
        failed = False
        for stage in STAGES:
            if stage not in selected or failed:
                detail = "earlier stage failed" if failed and stage in selected else ""
                self._carry_stage(stage, detail)
                continue
            try:
                outcome = getattr(self, f"stage_{stage}")()
                self.statuses[stage] = (
                    ("skipped", "nothing requested") if outcome == "skip" else ("ok", "")
                )
                print(f"[{stage}] {self.statuses[stage][0]}")
            except Exception as exc:
                self.statuses[stage] = ("failed", f"{type(exc).__name__}: {exc}")
                print(f"[{stage}] failed: {exc}", file=sys.stderr)
                failed = True
        self.write_manifest()
        return 2 if failed else 0

    # -- stage inputs reloaded for standalone subcommands --

    def _ensure_data(self):
        if self.table is not None:
            return
        schema_path = self.out / "data/schema.json"
        clean_path = self.out / "data/clean.csv"
        split_path = self.out / "data/split.json"
        if not (schema_path.is_file() and clean_path.is_file() and split_path.is_file()):
            raise RuntimeError("no data artifacts found; run the data stage first")
        specs = load_schema(schema_path)
        self.table = load_csv(clean_path, specs)
        split = json.loads(split_path.read_text(encoding="utf-8"))
        self.train_idx = np.array(split["train"], dtype=int)
        self.test_idx = np.array(split["test"], dtype=int)

    def _ensure_models(self):
        if self.models:
            return
        for kind in self.config.train.kinds:
            path = self.out / f"models/{kind.lower()}.json"
            if not path.is_file():
                raise RuntimeError(f"missing model file {path.name}; run training first")
            self.models[kind] = load_ensemble(path)
        hp_path = self.out / "models/hyperparams.json"
        if hp_path.is_file():
            raw = json.loads(hp_path.read_text(encoding="utf-8"))
            self.hps = {kind: HyperParams(**fields) for kind, fields in raw.items()}

    def _final_model(self):
        """The model the ICE and optimize stages interrogate: the stacked
        fusion when enabled, otherwise the first base ensemble."""
        if self.config.stack.enabled:
            if self.stacked is None:
                directory = self.out / "models/stacked"
                if not directory.is_dir():
                    raise RuntimeError("no stacked model saved; run the stack stage first")
                self.stacked = load_stacked(directory)
            return self.stacked
        self._ensure_models()
        return self.models[self.config.train.kinds[0]]

    # -- stages --

    def stage_data(self):
        self._clear_stage("data")
        cfg = self.config.data
        if cfg.csv is not None:
            specs = load_schema(cfg.schema) if cfg.schema else DEFAULT_SCHEMA
            raw = load_csv(cfg.csv, specs)
        else:
            raw = synthesize(self.config.seed, n=cfg.rows, noise_sd=cfg.noise_sd)
        write_csv(raw, self._path("data/raw.csv"))
        self._record("data/raw.csv", "data")

        clean, report = preprocess(
            raw,
            missing_ratio_max=cfg.missing_ratio_max,
            outlier_z=cfg.outlier_z,
            redundancy_r=cfg.redundancy_r,
        )
        write_csv(clean, self._path("data/clean.csv"))
        self._record("data/clean.csv", "data")
        save_schema(clean.specs, self._path("data/schema.json"))
        self._record("data/schema.json", "data")
        self._write_json("data/preprocess_report.json", report.to_json(), "data")

        n = clean.n_rows
        rng = subseed_rng(self.config.seed, _SPLIT_TAG)
        perm = rng.permutation(n)
        n_test = min(max(int(round(n * self.config.train.test_fraction)), 1), n - 2)
        split = {
            "test": sorted(int(i) for i in perm[:n_test]),
            "train": sorted(int(i) for i in perm[n_test:]),
        }
        self._write_json("data/split.json", split, "data")
        self.table = clean
        self.train_idx = np.array(split["train"], dtype=int)
        self.test_idx = np.array(split["test"], dtype=int)

    def _cache_key(self) -> str:
        train = asdict(self.config.train)
        train.pop("cached")
        payload = {
            "seed": self.config.seed,
            "data": asdict(self.config.data),
            "train": train,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def stage_train(self):
        cfg = self.config.train
        self._ensure_data()
        key = self._cache_key()
        cache_path = self.out / "models/cache.json"
        model_paths = {kind: self.out / f"models/{kind.lower()}.json" for kind in cfg.kinds}
        hp_path = self.out / "models/hyperparams.json"
        if cfg.cached and cache_path.is_file() and hp_path.is_file():
            cached = json.loads(cache_path.read_text(encoding="utf-8"))
            if cached.get("hash") == key and all(
                p.is_file() for p in model_paths.values()
            ):
                self._ensure_models()
                for kind in cfg.kinds:
                    self._record(f"models/{kind.lower()}.json", "train")
                self._record("models/hyperparams.json", "train")
                self._record("models/cache.json", "train")
                return

        self._clear_stage("train")
        self.models = {}
        self.hps = {}
        x = self.table.feature_matrix()[self.train_idx]
        y = self.table.target()[self.train_idx]
        names = list(self.table.feature_names)
        for z, kind in enumerate(cfg.kinds):
            hp = cfg.hyperparams.get(kind, HyperParams())
            if cfg.tune is not None and cfg.tune.budget > 0:
                hp, _ = tune_random_search(
                    x,
                    y,
                    kind,
                    _sample_space(cfg.tune.space),
                    budget=cfg.tune.budget,
                    k=cfg.tune.folds,
                    seed=mix_seed(self.config.seed, _TUNE_TAG, z),
                )
            hp = replace(hp, seed=mix_seed(self.config.seed, _TRAIN_TAG, z))
            model = FIT_FUNCTIONS[kind](x, y, hp, feature_names=names)
            save_ensemble(model, self._path(f"models/{kind.lower()}.json"))
            self._record(f"models/{kind.lower()}.json", "train")
            self.models[kind] = model
            self.hps[kind] = hp
        self._write_json(
            "models/hyperparams.json",
            {kind: asdict(hp) for kind, hp in self.hps.items()},
            "train",
        )
        self._write_json("models/cache.json", {"hash": key}, "train")

    def stage_explain(self):
        self._clear_stage("explain")
        cfg = self.config.explain
        self._ensure_data()
        self._ensure_models()
        kind = cfg.kind if cfg.kind is not None else self.config.train.kinds[0]
        model = self.models[kind]
        x = self.table.feature_matrix()
        if cfg.max_rows is not None:
            x = x[: cfg.max_rows]
        for row in cfg.waterfalls:
            if row >= x.shape[0]:
                raise ValueError(f"waterfall row {row} outside the explained rows")

        attr = tree_shap(model, x)
        path = f"shap/summary_{kind.lower()}.csv"
        write_summary_csv(attr, x, self._path(path))
        self._record(path, "explain")

        ranking = rank_factors(attr)
        corr = baseline_correlations(self.table)
        corr_rank = {
            method: {name: i + 1 for i, name in enumerate(names)}
            for method, names in corr.rankings.items()
        }
        corr_vals = dict(corr.factors)
        with open(self._path("shap/ranking.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "factor",
                    "mean_abs_attribution",
                    "shap_rank",
                    "pearson",
                    "spearman",
                    "gra",
                    "pearson_rank",
                    "spearman_rank",
                    "gra_rank",
                ]
            )
            for i, (name, eta) in enumerate(ranking):
                vals = corr_vals[name]
                writer.writerow(
                    [
                        name,
                        fmt(eta),
                        i + 1,
                        "" if vals["pearson"] is None else fmt(vals["pearson"]),
                        "" if vals["spearman"] is None else fmt(vals["spearman"]),
                        "" if vals["gra"] is None else fmt(vals["gra"]),
                        corr_rank["pearson"][name],
                        corr_rank["spearman"][name],
                        corr_rank["gra"][name],
                    ]
                )
        self._record("shap/ranking.csv", "explain")

        col = {name: i for i, name in enumerate(attr.feature_names)}
        for row in cfg.waterfalls:
            expl = explain_well(attr, row)
            path = f"shap/waterfall_{row}.csv"
            with open(self._path(path), "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["factor", "value", "attribution", "cumulative"])
                total = expl.base_value
                writer.writerow(["(base)", "", "", fmt(total)])
                for name, phi in expl.contributions:
                    total += phi
                    writer.writerow([name, fmt(x[row, col[name]]), fmt(phi), fmt(total)])
            self._record(path, "explain")

        if cfg.interactions:
            tensor = shap_interactions(model, x, attr)
            path = f"shap/dependency_{kind.lower()}.csv"
            write_dependency_csv(tensor, x, self._path(path))
            self._record(path, "explain")

        if cfg.clusters >= 2:
            labels = supervised_cluster(attr, cfg.clusters, seed=self.config.seed)
            with open(self._path("shap/clusters.csv"), "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["sample", "cluster"])
                for i, label in enumerate(labels):
                    writer.writerow([i, int(label)])
            self._record("shap/clusters.csv", "explain")

    def stage_stack(self):
        self._clear_stage("stack")
        cfg = self.config.stack
        self._ensure_data()
        self._ensure_models()
        features = self.table.feature_matrix()
        target = self.table.target()
        x_train, y_train = features[self.train_idx], target[self.train_idx]
        x_test, y_test = features[self.test_idx], target[self.test_idx]

        scored = dict(self.models)
        if cfg.enabled:
            if not self.hps:
                raise RuntimeError("hyperparameter record missing; re-run training")
            base_hps = {kind: self.hps[kind] for kind in self.config.train.kinds}
            self.stacked = fit_stacked(
                x_train,
                y_train,
                base_hps,
                k=cfg.k,
                seed=mix_seed(self.config.seed, _STACK_TAG),
                feature_names=list(self.table.feature_names),
            )
            for name in save_stacked(self.stacked, self._path("models/stacked")):
                self._record(f"models/stacked/{name}", "stack")
            scored["stacked"] = self.stacked

        with open(self._path("metrics.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "split", "r2", "mse", "mae"])
            for name, model in scored.items():
                for split, sx, sy in (
                    ("train", x_train, y_train),
                    ("test", x_test, y_test),
                ):
                    m = evaluate(model, sx, sy)
                    writer.writerow(
                        [name.lower(), split, fmt(m["r2"]), fmt(m["mse"]), fmt(m["mae"])]
                    )
        self._record("metrics.csv", "stack")

        final = scored["stacked"] if cfg.enabled else scored[self.config.train.kinds[0]]
        with open(self._path("parity.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "split", "actual", "predicted"])
            for split, idx, sx, sy in (
                ("train", self.train_idx, x_train, y_train),
                ("test", self.test_idx, x_test, y_test),
            ):
                pred = final.predict(sx)
                for i, actual, p in zip(idx, sy, pred):
                    writer.writerow([int(i), split, fmt(actual), fmt(p)])
        self._record("parity.csv", "stack")

    def stage_ice(self):
        self._clear_stage("ice")
        jobs = self.config.ice
        if not jobs:
            return "skip"
        self._ensure_data()
        model = self._final_model()
        for i, job in enumerate(jobs):
            varied = []
            for f in job.factors:
                column = self.table.column(f["name"])
                lower = f["lower"] if f["lower"] is not None else float(np.min(column))
                upper = f["upper"] if f["upper"] is not None else float(np.max(column))
                varied.append(
                    VariedFactor(name=f["name"], lower=lower, upper=upper, steps=f["steps"])
                )
            grid = ice(
                model,
                self.table,
                varied,
                anchor_rows=job.anchors,
                sample=job.sample,
                seed=self.config.seed,
            )
            path = f"ice/ice_{i}.csv"
            grid.write_csv(self._path(path))
            self._record(path, "ice")
            meta = f"ice/ice_{i}.meta.json"
            grid.write_meta(self._path(meta))
            self._record(meta, "ice")

    def stage_optimize(self):
        self._clear_stage("optimize")
        cfg = self.config.optimize
        if not cfg.wells:
            return "skip"
        self._ensure_data()
        model = self._final_model()
        specs = self.table.feature_specs
        if cfg.variables is not None:
            variables = list(cfg.variables)
        else:
            variables = [s.name for s in specs if s.optimizable]
        if not variables:
            raise RuntimeError("no optimizable factors survived preprocessing")
        bounds = {name: tuple(pair) for name, pair in cfg.bounds.items()}
        features = self.table.feature_matrix()
        name_to_col = {name: i for i, name in enumerate(self.table.feature_names)}
        resolved = {}
        for name in variables:
            if name in bounds:
                resolved[name] = bounds[name]
            else:
                column = features[:, name_to_col[name]]
                resolved[name] = (float(np.min(column)), float(np.max(column)))

        rows = []
        for row in cfg.wells:
            for m_index, method in enumerate(cfg.methods):
                result = optimize_well(
                    model,
                    self.table,
                    row,
                    variables,
                    method=method,
                    budget=cfg.budget,
                    bounds=bounds,
                    seed=mix_seed(self.config.seed, _OPT_TAG, row, m_index),
                )
                path = f"optimize/trace_w{row}_{method}.csv"
                result.trace.write_csv(self._path(path), variable_names=variables)
                self._record(path, "optimize")
                self._write_json(
                    f"optimize/result_w{row}_{method}.json",
                    result.to_json(bounds=resolved),
                    "optimize",
                )
                gain = ""
                if result.original_eur != 0:
                    gain = fmt(
                        100.0
                        * (result.optimized_eur - result.original_eur)
                        / abs(result.original_eur)
                    )
                rows.append(
                    [row, method, fmt(result.original_eur), fmt(result.optimized_eur), gain]
                    + [fmt(v) for v in result.original]
                    + [fmt(v) for v in result.optimized]
                )
        header = (
            ["well", "method", "eur_original", "eur_optimized", "improvement_pct"]
            + [f"{name} original" for name in variables]
            + [f"{name} optimized" for name in variables]
        )
        with open(self._path("optimize/comparison.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self._record("optimize/comparison.csv", "optimize")


# --- entry point --------------------------------------------------------------------


_SUBCOMMAND_STAGES = {
    "run": None,
    "synthesize": ("data",),
    "explain": ("explain",),
    "ice": ("ice",),
    "optimize": ("optimize",),
}


def _load_config_obj(path):
    if path is None:
        return {}, []
    p = Path(path)
    if not p.is_file():
        return None, [f"config: file not found: {path}"]
    try:
        return json.loads(p.read_text(encoding="utf-8")), []
    except json.JSONDecodeError as exc:
        return None, [f"config: invalid JSON: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="welloop",
        description="Train, explain, stack, and optimize well-productivity models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute the full pipeline"),
        ("validate", "check a config file and report problems"),
        ("synthesize", "generate, clean, and split a synthetic dataset"),
        ("explain", "recompute attributions against saved models"),
        ("ice", "recompute ICE grids against saved models"),
        ("optimize", "re-optimize wells against saved models"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
    args = parser.parse_args(argv)

    obj, problems = _load_config_obj(args.config)
    if obj is not None:
        if args.seed is not None:
            obj["seed"] = args.seed
        config, more = parse_config(obj)
        problems = problems + more
    else:
        config = None
    if args.command == "validate":
        for problem in problems:
            print(f"problem: {problem}")
        if not problems:
            print("config ok")
        return 1 if problems else 0
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1

    out = args.out or os.environ.get("WELLOOP_OUT") or config.out
    pipeline = Pipeline(config, out)
    code = pipeline.run(_SUBCOMMAND_STAGES[args.command])
    if code == 0:
        print(f"artifacts written to {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
