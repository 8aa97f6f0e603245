"""The three closed-loop workloads: their inputs, set-up, passes and checks.

Every workload is one caller driving ``welloop.cli.main`` in-process; each
CLI invocation waits for the previous one. An operation is one invocation.
It fails if it exits non-zero, leaves a stage it ran not 'ok' in the
manifest, or its outputs fail a check.

Sizes are cut from the ROADMAP's "full" config (150 trees per kind, a
100-evaluation search budget) so that a run stays well under a minute on
two cores; see README.md for the exact make-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import checks
import welloop.cli
from welloop.explain import tree_shap
from welloop.trees import load_ensemble

TREES = 20  # trees per base kind; the stacked model holds 3 x 5 x TREES
OPT_BUDGET = 20  # evaluations per optimizer per well
OPT_WELLS = [0, 1]  # clean-table rows the optimizers redesign
FIELD_ROWS = 1000

_TRAIN = {
    "kinds": ["rf", "gbdt", "xgb"],
    "hyperparams": {k: {"n_trees": TREES, "max_depth": 4} for k in ("rf", "gbdt", "xgb")},
}
# the full config's two ICE grids: 1-D over every anchor, 10 x 10 over 20 anchors
_FULL_ICE = [
    {"factors": [{"name": "stimulated length", "steps": 25}]},
    {
        "factors": [
            {"name": "stimulated length", "steps": 10},
            {"name": "stage count", "steps": 10},
        ],
        "sample": 20,
    },
]
_NO_WORK = {"explain": {"max_rows": 1}, "ice": [], "optimize": {"wells": []}}


def _config(seed: int, **sections) -> dict:
    cfg = {"seed": seed, "data": {"rows": 120}, "train": _TRAIN, "stack": {"k": 5}}
    cfg.update(_NO_WORK)
    cfg.update(sections)
    return cfg


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the stages it must leave 'ok'."""

    command: str
    config: str  # key into Context.configs
    expect_ok: tuple


@dataclass
class Context:
    """Everything a workload's set-up, passes and checks share."""

    seed: int
    work: Path
    configs: dict  # name -> config dict, written to work/<name>.json
    interactions: object = None  # last tensor the explain stage computed

    @property
    def out(self) -> Path:
        return self.work / "out"

    def write_configs(self):
        for name, cfg in self.configs.items():
            (self.work / f"{name}.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")


def invoke(ctx: Context, op: Op) -> int:
    """Run one welloop CLI command in-process, its stdout discarded."""
    argv = [op.command, "--config", str(ctx.work / f"{op.config}.json"), "--out", str(ctx.out)]
    with contextlib.redirect_stdout(io.StringIO()):
        return welloop.cli.main(argv)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], dict]  # seed -> {config name: config}
    setup_ops: tuple
    pass_ops: tuple
    check: Callable[["Context"], list]  # problems found after the passes
    fit_in_setup: bool  # where the train and stack stages run
    probe: str  # hostspeed probe that does what a pass spends its time on


def _design_search_configs(seed):
    return {
        "setup": _config(seed),
        "pass": _config(
            seed,
            ice=_FULL_ICE,
            optimize={"methods": ["pso", "de", "bayes"], "wells": OPT_WELLS, "budget": OPT_BUDGET},
        ),
    }


def _design_search_check(ctx):
    cfg = ctx.configs["pass"]
    return checks.optimize_traces(ctx.out, cfg) + checks.ice_grids(ctx.out, cfg, ctx.seed)


def _attribution_configs(seed):
    base = _config(seed, stack={"enabled": False})
    return {
        "setup": base,
        "pass": dict(
            base,
            explain={"kind": "rf", "interactions": True, "clusters": 3, "max_rows": 40},
        ),
    }


def _attribution_check(ctx):
    cfg = ctx.configs["pass"]
    model = load_ensemble(ctx.out / f"models/{cfg['explain']['kind']}.json")

    def program_cut_shap(n_trees, row):
        cut = replace(model, trees=model.trees[:n_trees])
        return tree_shap(cut, [row]).values[0].tolist()

    return checks.attributions(ctx.out, cfg, ctx.interactions, program_cut_shap, ctx.seed)


def _field_configs(seed):
    return {
        "run": _config(
            seed,
            data={"rows": FIELD_ROWS},
            explain={"max_rows": 8},
            ice=[{"factors": [{"name": "stimulated length", "steps": 25}]}],
        )
    }


def _field_check(ctx):
    return checks.field(ctx.out, ctx.configs["run"])


_RUN_STAGES = ("data", "train", "explain", "stack")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="design-search",
            configs=_design_search_configs,
            setup_ops=(Op("run", "setup", _RUN_STAGES),),
            pass_ops=(Op("ice", "pass", ("ice",)), Op("optimize", "pass", ("optimize",))),
            check=_design_search_check,
            fit_in_setup=True,
            probe="numpy",
        ),
        Workload(
            name="attribution",
            configs=_attribution_configs,
            setup_ops=(Op("run", "setup", _RUN_STAGES),),
            pass_ops=(Op("explain", "pass", ("explain",)),),
            check=_attribution_check,
            fit_in_setup=True,
            probe="recursion",
        ),
        Workload(
            name="field-1k",
            configs=_field_configs,
            setup_ops=(Op("synthesize", "run", ("data",)),),
            pass_ops=(Op("run", "run", _RUN_STAGES + ("ice",)),),
            check=_field_check,
            fit_in_setup=False,
            probe="numpy",
        ),
    )
}


def fresh_context(workload: Workload, seed: int, work: Path) -> Context:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = Context(seed=seed, work=work, configs=workload.configs(seed))
    ctx.write_configs()
    return ctx
