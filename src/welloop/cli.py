"""Command-line pipeline: ingest, train, explain, stack, ICE, optimize.

One JSON config file drives the whole run; README.md documents its keys,
the exit codes and the output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from welloop.data import (
    DEFAULT_SCHEMA,
    WellTable,
    load_csv,
    load_schema,
    parameter_problems,
    preprocess,
    save_schema,
    synthesize,
    write_csv,
)
from welloop.explain import (
    baseline_correlations,
    explain_well,
    rank_factors,
    row_problems,
    shap_interactions,
    supervised_cluster,
    tree_shap,
    write_dependency_csv,
    write_summary_csv,
)
from welloop.ice import VariedFactor, ice, job_problems
from welloop.optimize import METHODS, design_problems, optimize_wells
from welloop.stack import evaluate, fit_stacked, load_stacked, save_stacked
from welloop.trees import (
    FIT_FUNCTIONS,
    KINDS,
    HyperParams,
    load_ensemble,
    predict,
    save_ensemble,
    space_entry_problems,
    tune_random_search,
)
from welloop.utils import (
    is_int,
    is_number,
    mix_seed,
    raise_first,
    read_json,
    subseed_rng,
    take,
    take_list,
    typed,
    write_json,
    write_table,
)

_SPLIT_TAG = 61
_TRAIN_TAG = 62
_TUNE_TAG = 63
_STACK_TAG = 64
_OPT_TAG = 65

STAGES = ("data", "train", "explain", "stack", "ice", "optimize")

# command -> (help text, the stages it runs in pipeline order)
_COMMANDS = {
    "run": ("execute the full pipeline", STAGES),
    "validate": ("check a config file and report problems", ()),
    "synthesize": ("generate, clean, and split a synthetic dataset", ("data",)),
    "explain": ("recompute attributions against saved models", ("explain",)),
    "ice": ("recompute ICE grids against saved models", ("ice",)),
    "optimize": ("re-optimize wells against saved models", ("optimize",)),
}


# --- configuration ---------------------------------------------------------------
#
# Each config key is one field of the dataclasses below: its name, its JSON
# type (the annotation: int, float, str, bool, tuple for a JSON list, dict,
# or a section dataclass, optionally "| None"), its default and, declared
# with _key, the check for what a type cannot say. _read builds the
# dataclasses from the JSON object.


# annotation -> (JSON type named in problems, test, conversion)
_JSON_TYPES = {
    "int": ("int", is_int, None),
    "float": ("float", is_number, float),
    "str": ("str", lambda v: isinstance(v, str), None),
    "bool": ("bool", lambda v: isinstance(v, bool), None),
    "tuple": ("list", lambda v: isinstance(v, list), tuple),
    "dict": ("dict", lambda v: isinstance(v, dict), None),
}


def _read(cls, raw, label, problems):
    """Build the config dataclass `cls` from the JSON object `raw`.

    Unknown keys, wrongly typed values and failed field checks are appended
    to `problems` instead of raised, so validation reports everything at
    once. A missing, null or wrongly typed key keeps the field's default. A
    field without a default is required: when it is missing, reading stops
    and None is returned.
    """
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        problems.append(f"{label}: expected an object")
        raw = {}
    declared = fields(cls)
    names = {f.name for f in declared}
    for key in raw:
        if key not in names:
            problems.append(f"{label}.{key}: unknown key")
    values = {}
    for f in declared:
        where = f"{label}.{f.name}"
        # the root reports its keys' types as config.<key>, but its
        # sections and checks go by the bare key
        path = f.name if cls is RunConfig else where
        value = raw.get(f.name)
        kind = f.type.removesuffix(" | None")
        if value is not None and kind in _JSON_TYPES:
            json_type, ok, convert = _JSON_TYPES[kind]
            if not ok(value):
                problems.append(f"{where}: expected {json_type}")
                value = None
            elif convert is not None:
                value = convert(value)
        elif value is not None:  # any other annotation names a section dataclass
            value = _read(globals()[kind], value, path, problems)
        if value is None:
            if f.default is MISSING and f.default_factory is MISSING:
                problems.append(f"{where}: required")
                return None
            continue
        check = f.metadata.get("check")
        values[f.name] = value if check is None else check(value, path, problems)
    return cls(**values)


# --- checks: each takes (value, path, problems) and returns the value to keep


def _check(ok, message):
    def check(value, path, problems):
        if not ok(value):
            problems.append(f"{path}: {message}")
        return value

    return check


def _at_least(low):
    return _check(lambda v: v >= low, f"must be >= {low}")


def _file(value, path, problems):
    if not Path(value).is_file():
        problems.append(f"{path}: file not found: {value}")
    return value


def _are_rows(value):
    return all(is_int(v) and v >= 0 for v in value)


_ROWS = _check(_are_rows, "entries must be non-negative integers")


def _indices(value, path, problems):
    """_ROWS, keeping a list with another entry as (), so that the checks
    after it compare only numbers."""
    _ROWS(value, path, problems)
    return value if _are_rows(value) else ()


def _distinct(noun, check):
    """`check`, then a problem for each entry of the value it keeps that
    repeats an earlier one."""

    def distinct(value, path, problems):
        value = check(value, path, problems)
        for i, v in enumerate(value):
            if v in value[:i]:
                problems.append(f"{path}: duplicate {noun} {v!r}")
        return value

    return distinct


def _one_of(known, nouns, fold=str):
    """The check of a list of names from `known`: a string entry is matched
    after `fold`, an entry that matches nothing and a repeat are problems,
    and an empty result falls back to (known[0],). `nouns` is what an entry
    is called and what the list needs at least one of."""

    def one_of(value, path, problems):
        kept = []
        for v in value:
            name = fold(v) if isinstance(v, str) else v
            if name in known:
                kept.append(name)
            else:
                problems.append(f"{path}: unknown {nouns[0]} {v!r} (choose from {known})")
        if not kept:
            problems.append(f"{path}: need at least one {nouns[1]}")
            kept = known[:1]
        return tuple(kept)

    return _distinct(nouns[0], one_of)


def _hyperparams(value, path, problems):
    hyperparams = {}
    for kind, overrides in value.items():
        name, where = kind.upper(), f"{path}.{kind}"
        if name not in KINDS:
            problems.append(f"{where}: unknown kind")
        elif not isinstance(overrides, dict):
            problems.append(f"{where}: expected an object")
        elif "seed" in overrides:  # the train and stack stages set it
            problems.append(f"{where}: seed is derived from the run seed")
        else:
            try:
                hyperparams[name] = HyperParams(**overrides)
            except (TypeError, ValueError) as exc:
                problems.append(f"{where}: {exc}")
    return hyperparams


def _tune_space(value, path, problems):
    for name, entry in value.items():
        if name == "seed":  # the library may tune it, a run derives it
            problems.append(f"{path}.seed: seed is derived from the run seed")
        else:
            problems.extend(space_entry_problems(name, entry, f"{path}.{name}"))
    return value


def _ice_jobs(value, path, problems):
    jobs = []
    for i, raw in enumerate(value):
        where = f"{path}[{i}]"
        job = _read(IceJob, raw, where, problems)
        problems += [f"{where}: {p}" for p in job_problems(job.factors, job.anchors, job.sample)]
        jobs.append(job)
    return tuple(jobs)


def _ice_factors(value, path, problems):
    read = (_read(VariedFactor, raw, f"{path}[{j}]", problems) for j, raw in enumerate(value))
    return tuple(f for f in read if f is not None)


def _key(default, check):
    """A config field whose typed value must also pass `check`; an empty
    dict default is given afresh to each config."""
    default = {"default_factory": dict} if default == {} else {"default": default}
    return field(**default, metadata={"check": check})


@dataclass
class DataConfig:
    csv: str | None = _key(None, _file)
    schema: str | None = _key(None, _file)
    rows: int = 120
    noise_sd: float = 0.1
    missing_ratio_max: float = 0.2
    outlier_z: float = 4.0
    redundancy_r: float = 0.9


@dataclass
class TuneConfig:
    space: dict = _key({}, _tune_space)
    budget: int = _key(0, _at_least(0))
    folds: int = _key(3, _at_least(2))


@dataclass
class TrainConfig:
    kinds: tuple = _key(KINDS, _one_of(KINDS, ("kind", "model kind"), str.upper))
    hyperparams: dict = _key({}, _hyperparams)
    tune: TuneConfig | None = None
    test_fraction: float = _key(0.25, _check(lambda v: 0 < v < 1, "must be in (0, 1)"))


@dataclass
class StackConfig:
    enabled: bool = True
    k: int = _key(5, _at_least(2))


@dataclass
class ExplainConfig:
    kind: str | None = _key(None, lambda value, path, problems: value.upper())
    interactions: bool = False
    clusters: int = _key(0, _at_least(0))
    waterfalls: tuple = _key((0,), _distinct("row", _indices))
    max_rows: int | None = _key(None, _at_least(1))


@dataclass
class IceJob:
    factors: tuple = _key((), _ice_factors)  # of welloop.ice.VariedFactor
    sample: int | None = _key(None, _at_least(1))
    # kept as given, so that ice.job_problems tells a bad list from an empty one
    anchors: tuple | None = _key(None, _ROWS)


@dataclass
class OptimizeConfig:
    methods: tuple = _key(METHODS, _one_of(METHODS, ("method", "method")))
    wells: tuple = _key((), _distinct("well", _indices))
    variables: tuple | None = _key(
        None, _distinct("factor", _check(bool, "need at least one factor"))
    )
    budget: int = _key(200, _at_least(1))
    bounds: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    seed: int = _key(0, _at_least(0))
    out: str = "out"
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stack: StackConfig = field(default_factory=StackConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    ice: tuple = _key((), _ice_jobs)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)


def parse_config(obj) -> tuple[RunConfig, list[str]]:
    """Turn a raw config dict into a RunConfig plus the full list of
    problems. The config is only trustworthy when the list is empty."""
    if not isinstance(obj, dict):
        return RunConfig(), ["config: expected a JSON object"]
    problems: list[str] = []
    config = _read(RunConfig, obj, "config", problems)
    if not is_int(obj.get("seed")):
        problems.append("seed: required (an integer >= 0)")
    data = config.data
    rows = data.rows if data.csv is None else None
    thresholds = (data.missing_ratio_max, data.outlier_z, data.redundancy_r)
    problems += [f"data.{p}" for p in parameter_problems(*thresholds, rows, data.noise_sd)]
    kind = config.explain.kind
    if kind is not None and kind not in config.train.kinds:
        problems.append(f"explain.kind: {kind!r} is not a trained kind")
    # the explain stage attributes at most max_rows rows, so a valid cap
    # bounds its rows without reading any data
    cfg = config.explain
    if cfg.max_rows is not None and cfg.max_rows >= 1:
        problems += row_problems(cfg.waterfalls, cfg.clusters, cfg.max_rows, "explain")
    _check_factor_references(config, problems)
    return config, problems


def _reference_schema(config, problems):
    """The schema factor names are checked against, or None when there is
    none to check; a schema file that does not load is a problem, and so
    is one without a CSV, as synthesis uses DEFAULT_SCHEMA."""
    cfg = config.data
    if cfg.schema is not None and cfg.csv is None:
        problems.append("data.schema: only read with data.csv")
    if cfg.schema is None or cfg.csv is None:
        return DEFAULT_SCHEMA
    if Path(cfg.schema).is_file():
        try:
            return load_schema(cfg.schema)
        except ValueError as exc:
            problems.append(f"data.schema: {exc}")
    return None


def _check_factor_references(config, problems):
    """Every factor name mentioned in ice/optimize sections must exist in
    the schema, and the optimize section must pass design_problems; a
    schema that did not load leaves only the rules on the bound pairs."""
    specs = _reference_schema(config, problems)
    features = {s.name: s for s in specs or () if s.category != "production"}
    named = config.optimize.variables
    if specs is not None:
        for i, job in enumerate(config.ice):
            for f in job.factors:
                if f.name not in features:
                    problems.append(f"ice[{i}]: unknown factor {f.name!r}")
        for name in named or ():
            if not isinstance(name, str) or name not in features:
                problems.append(f"optimize.variables: unknown factor {name!r}")
        for name in config.optimize.bounds:
            if name not in features:
                problems.append(f"optimize.bounds: unknown factor {name!r}")
    searched = named if named is not None else [s.name for s in specs or () if s.optimizable]
    problems += design_problems(features, searched, config.optimize.bounds, "optimize")


def validate_config(obj) -> list[str]:
    """Schema, range, and reference checks only; no compute."""
    return parse_config(obj)[1]


# --- pipeline ----------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """Sequential stage runner over one output directory.

    Within `run`, a stage takes its inputs from the stage that produced
    them. The `explain`, `ice` and `optimize` commands read the clean
    table and the models they query back from the files on first use.
    Stages record each file as they write it, so a failing stage leaves its
    partial artifacts both on disk and in the manifest; the selected
    stages after it are skipped. After the stages, run() deletes the files
    the previous manifest gave to a selected stage and that this run did
    not write again, keeping manifest and disk reconciled.
    """

    def __init__(self, config: RunConfig, out_dir):
        self.config = config
        self.out = Path(out_dir)
        self.artifacts: list[dict] = []
        self.statuses: dict[str, tuple[str, str]] = {}
        self.models: dict = {}  # kind -> TreeEnsemble, trained or read by model()
        # the previous manifest's (path, stage) artifacts and name -> (status,
        # detail) stages; both empty when there is none
        self.prev_artifacts, self.prev_stages = self._load_prev_manifest()

    # -- bookkeeping --

    def _load_prev_manifest(self):
        """The previous manifest, read once. One that is unreadable, not of
        the shape write_manifest gives, or names a path that is anchored
        (absolute, or on a drive) or steps up with `..` counts as absent,
        so a re-run never deletes or records a file outside `out`."""
        where = "manifest.json"
        try:
            prev = typed(read_json(self.out / where), "object", where)
            artifacts = []
            for art in take_list(prev, "artifacts", "object", where):
                rel = take(art, "path", "string", where)
                if Path(rel).anchor or ".." in Path(rel).parts:
                    raise ValueError(f"{where}: {rel!r} is not inside the output directory")
                artifacts.append((rel, take(art, "stage", "string", where)))
            stages = {}
            for entry in take_list(prev, "stages", "object", where):
                detail = typed(entry.get("detail", ""), "string", where, "detail")
                status = take(entry, "status", "string", where)
                stages[take(entry, "name", "string", where)] = (status, detail)
        except (ValueError, OSError):
            return [], {}
        return artifacts, stages

    def _path(self, rel) -> Path:
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _record(self, rel, stage):
        self.artifacts.append({"path": rel, "stage": stage})

    def _save(self, rel, stage, write, *args, **kwargs):
        """Write one artifact with write(*args, path, **kwargs), then record it."""
        write(*args, self._path(rel), **kwargs)
        self._record(rel, stage)

    def _write_json(self, rel, obj, stage):
        write_json(self._path(rel), obj)
        self._record(rel, stage)

    def _write_csv(self, rel, header, rows, stage):
        """A table of rows whose cells are, column by column, all text, all
        integers or all floats (NaN an empty cell)."""
        write_table(self._path(rel), header, [list(map(np.array, zip(*rows)))] if rows else [])
        self._record(rel, stage)

    def _carry_stage(self, stage):
        for rel, art_stage in self.prev_artifacts:
            if art_stage == stage and (self.out / rel).is_file():
                self._record(rel, stage)
        self.statuses[stage] = self.prev_stages.get(stage, ("skipped", ""))

    def write_manifest(self):
        arts = [{**art, "sha256": _sha256(self.out / art["path"])} for art in self.artifacts]
        arts.sort(key=lambda a: a["path"])
        stages = []
        for name in STAGES:
            status, detail = self.statuses.get(name, ("skipped", ""))
            entry = {"name": name, "status": status}
            if detail:
                entry["detail"] = detail
            stages.append(entry)
        write_json(self._path("manifest.json"), {"stages": stages, "artifacts": arts})

    def run(self, command="run") -> int:
        """Execute the stages of `command` in pipeline order, write the
        manifest and drop the stale files of the stages that ran; returns
        the process exit code."""
        selected = _COMMANDS[command][1]
        self.out.mkdir(parents=True, exist_ok=True)
        self._write_json("config.json", asdict(self.config), "config")
        ran, failed = {"config"}, False
        for stage in STAGES:
            if stage not in selected:
                self._carry_stage(stage)
                continue
            ran.add(stage)  # its previous files go stale even if it is skipped
            if failed:
                self.statuses[stage] = ("skipped", "earlier stage failed")
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
        try:
            self.write_manifest()
            written = {Path(art["path"]) for art in self.artifacts}
            for rel, stage in self.prev_artifacts:
                path = self.out / rel
                if stage in ran and Path(rel) not in written and path.is_file():
                    path.unlink()
        except OSError as exc:
            print(f"[manifest] failed: {exc}", file=sys.stderr)
            return 2
        return 2 if failed else 0

    # -- stage inputs: set by the stage that produces them, else read back --

    def _input(self, rel, stage) -> Path:
        path = self.out / rel
        if not path.is_file():
            raise RuntimeError(f"missing {rel}; run the {stage} stage first")
        return path

    @cached_property
    def table(self) -> WellTable:
        specs = load_schema(self._input("data/schema.json", "data"))
        return load_csv(self._input("data/clean.csv", "data"), specs)

    def model(self, kind):
        if kind not in self.models:
            path = self._input(f"models/{kind.lower()}.json", "train")
            self.models[kind] = load_ensemble(path)
        return self.models[kind]

    def _check_kept(self, names):
        """Refuse factors the clean table lacks: validate found each in the
        schema, so preprocessing dropped it."""
        for name in names:
            if name not in self.table.feature_names:
                raise ValueError(f"factor {name!r} was dropped by preprocessing")

    @cached_property
    def final_model(self):
        """The model parity, ICE and optimize interrogate: the stacked
        fusion when enabled, otherwise the first base ensemble."""
        if self.config.stack.enabled:
            return load_stacked(self._input("models/stacked/meta.json", "stack").parent)
        return self.model(self.config.train.kinds[0])

    # -- stages --

    def stage_data(self):
        cfg = self.config.data
        if cfg.csv is not None:
            specs = load_schema(cfg.schema) if cfg.schema else DEFAULT_SCHEMA
            raw = load_csv(cfg.csv, specs)
        else:
            raw = synthesize(self.config.seed, n=cfg.rows, noise_sd=cfg.noise_sd)
        self._save("data/raw.csv", "data", write_csv, raw)

        clean, report = preprocess(
            raw,
            missing_ratio_max=cfg.missing_ratio_max,
            outlier_z=cfg.outlier_z,
            redundancy_r=cfg.redundancy_r,
        )
        self._save("data/clean.csv", "data", write_csv, clean)
        self._save("data/schema.json", "data", save_schema, clean.specs)
        self._write_json("data/preprocess_report.json", report.to_json(), "data")

        n = clean.n_rows
        rng = subseed_rng(self.config.seed, _SPLIT_TAG)
        perm = rng.permutation(n)
        n_test = min(max(int(round(n * self.config.train.test_fraction)), 1), n - 2)
        test, train = sorted(perm[:n_test].tolist()), sorted(perm[n_test:].tolist())
        self._write_json("data/split.json", {"test": test, "train": train}, "data")
        self.table = clean
        self.split = (np.array(train, dtype=int), np.array(test, dtype=int))

    def stage_train(self):
        cfg = self.config.train
        train_rows, _ = self.split
        x = self.table.feature_matrix()[train_rows]
        y = self.table.target()[train_rows]
        names = list(self.table.feature_names)
        hps = {}
        for z, kind in enumerate(cfg.kinds):
            hp = cfg.hyperparams.get(kind, HyperParams())
            if cfg.tune is not None and cfg.tune.budget > 0:
                hp, _ = tune_random_search(
                    x,
                    y,
                    kind,
                    cfg.tune.space,
                    budget=cfg.tune.budget,
                    k=cfg.tune.folds,
                    seed=mix_seed(self.config.seed, _TUNE_TAG, z),
                    base=hp,
                )
            hps[kind] = replace(hp, seed=mix_seed(self.config.seed, _TRAIN_TAG, z))
            model = FIT_FUNCTIONS[kind](x, y, hps[kind], feature_names=names)
            self._save(f"models/{kind.lower()}.json", "train", save_ensemble, model)
            self.models[kind] = model
        self.hps = hps
        self._write_json(
            "models/hyperparams.json",
            {kind: asdict(hp) for kind, hp in hps.items()},
            "train",
        )

    def stage_explain(self):
        cfg = self.config.explain
        x = self.table.feature_matrix()
        kind = cfg.kind if cfg.kind is not None else self.config.train.kinds[0]
        model = self.model(kind)
        self.table.check_feature_names(model)
        if cfg.max_rows is not None:
            x = x[: cfg.max_rows]
        # supervised_cluster checks the cluster count where it forms them
        raise_first(row_problems(cfg.waterfalls, 0, x.shape[0]))

        attr = tree_shap(model, x)
        path = f"shap/summary_{kind.lower()}.csv"
        self._save(path, "explain", write_summary_csv, attr, x)

        ranking = rank_factors(attr)
        corr = baseline_correlations(self.table)
        corr_rank = {
            method: {name: i + 1 for i, name in enumerate(names)}
            for method, names in corr.rankings.items()
        }
        corr_vals = dict(corr.factors)
        methods = ("pearson", "spearman", "gra")
        header = ["factor", "mean_abs_attribution", "shap_rank", *methods]
        header += [f"{m}_rank" for m in methods]
        rows = []
        for i, (name, eta) in enumerate(ranking):
            vals = corr_vals[name]
            rows.append(
                [name, eta, i + 1]
                + [np.nan if vals[m] is None else vals[m] for m in methods]
                + [corr_rank[m][name] for m in methods]
            )
        self._write_csv("shap/ranking.csv", header, rows, "explain")

        col = {name: i for i, name in enumerate(attr.feature_names)}
        for row in cfg.waterfalls:
            expl = explain_well(attr, row)
            total = expl.base_value
            rows = [["(base)", np.nan, np.nan, total]]
            for name, phi in expl.contributions:
                total += phi
                rows.append([name, x[row, col[name]], phi, total])
            header = ["factor", "value", "attribution", "cumulative"]
            self._write_csv(f"shap/waterfall_{row}.csv", header, rows, "explain")

        if cfg.interactions:
            tensor = shap_interactions(model, x, attr)
            path = f"shap/dependency_{kind.lower()}.csv"
            self._save(path, "explain", write_dependency_csv, tensor, x)

        if cfg.clusters:
            labels = supervised_cluster(attr, cfg.clusters, seed=self.config.seed)
            rows = [[i, int(label)] for i, label in enumerate(labels)]
            self._write_csv("shap/clusters.csv", ["sample", "cluster"], rows, "explain")

    def stage_stack(self):
        cfg = self.config.stack
        features, target = self.table.feature_matrix(), self.table.target()
        splits = [
            (name, idx, features[idx], target[idx])
            for name, idx in zip(("train", "test"), self.split)
        ]
        scored = {kind: self.model(kind) for kind in self.config.train.kinds}
        if cfg.enabled:
            _, _, x_train, y_train = splits[0]
            stacked = fit_stacked(
                x_train,
                y_train,
                self.hps,
                k=cfg.k,
                seed=mix_seed(self.config.seed, _STACK_TAG),
                feature_names=list(self.table.feature_names),
            )
            for name in save_stacked(stacked, self._path("models/stacked")):
                self._record(f"models/stacked/{name}", "stack")
            self.final_model = scored["stacked"] = stacked

        metrics, parity = [], []
        for name, model in scored.items():
            for split, idx, sx, sy in splits:
                pred = predict(model, sx)
                m = evaluate(sy, pred)
                metrics.append([name.lower(), split, m["r2"], m["mse"], m["mae"]])
                if model is self.final_model:
                    parity += zip(idx, [split] * len(idx), sy, pred)
        self._write_csv("metrics.csv", ["model", "split", "r2", "mse", "mae"], metrics, "stack")
        self._write_csv("parity.csv", ["sample", "split", "actual", "predicted"], parity, "stack")

    def stage_ice(self):
        jobs = self.config.ice
        if not jobs:
            return "skip"
        self._check_kept(f.name for job in jobs for f in job.factors)
        for i, job in enumerate(jobs):
            grid = ice(
                self.final_model,
                self.table,
                job.factors,
                anchor_rows=job.anchors,
                sample=job.sample,
                seed=self.config.seed,
            )
            self._save(f"ice/ice_{i}.csv", "ice", grid.write_csv)
            self._save(f"ice/ice_{i}.meta.json", "ice", grid.write_meta)

    def stage_optimize(self):
        cfg = self.config.optimize
        if not cfg.wells:
            return "skip"
        specs = self.table.feature_specs
        if cfg.variables is not None:
            variables = list(cfg.variables)
        else:
            variables = [s.name for s in specs if s.optimizable]
        if not variables:
            raise RuntimeError("no optimizable factors survived preprocessing")
        self._check_kept([*variables, *cfg.bounds])
        results = {}
        for m_index, method in enumerate(cfg.methods):
            found = optimize_wells(
                self.final_model,
                self.table,
                cfg.wells,
                variables,
                method=method,
                budget=cfg.budget,
                bounds=cfg.bounds,
                seeds=[mix_seed(self.config.seed, _OPT_TAG, row, m_index) for row in cfg.wells],
            )
            results.update(((row, method), result) for row, result in zip(cfg.wells, found))
        rows = []
        for row in cfg.wells:
            for method in cfg.methods:
                result = results[row, method]
                path = f"optimize/trace_w{row}_{method}.csv"
                self._save(path, "optimize", result.trace.write_csv, variable_names=variables)
                self._write_json(
                    f"optimize/result_w{row}_{method}.json",
                    result.to_json(),
                    "optimize",
                )
                gain = np.nan
                if result.original_eur != 0:
                    gain = (
                        100.0
                        * (result.optimized_eur - result.original_eur)
                        / abs(result.original_eur)
                    )
                rows.append(
                    [row, method, result.original_eur, result.optimized_eur, gain]
                    + list(result.original)
                    + list(result.optimized)
                )
        header = (
            ["well", "method", "eur_original", "eur_optimized", "improvement_pct"]
            + [f"{name} original" for name in variables]
            + [f"{name} optimized" for name in variables]
        )
        self._write_csv("optimize/comparison.csv", header, rows, "optimize")


# --- entry point --------------------------------------------------------------------


def _load_config_obj(path):
    if path is None:
        return {}, []
    p = Path(path)
    if not p.is_file():
        return None, [f"config: file not found: {path}"]
    try:
        return read_json(p), []
    except ValueError as exc:
        return None, [f"config: invalid JSON: {exc}"]


def _parser():
    parser = argparse.ArgumentParser(
        prog="welloop",
        description="Train, explain, stack, and optimize well-productivity models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
    return parser


# built once: a parser per call would leave its reference cycles to the
# cyclic collector on every call
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

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
    code = pipeline.run(args.command)
    if code == 0:
        print(f"artifacts written to {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
