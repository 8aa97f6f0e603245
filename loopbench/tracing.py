"""Spans and stage timers recorded from outside welloop.

Nothing in welloop is edited. The benchmark swaps a module attribute (or a
dict entry, or a class method) for a wrapper and puts the original back
when it is done. A wrapper is installed at the name through which the
*calling* module looks the function up, e.g. ``welloop.ice.predict_stacked``
rather than ``welloop.stack.predict_stacked``, so every call that crosses a
module boundary is seen once.

A span is ``[name, start, end, parent, count]``; spans live in a list in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Patches:
    """Attribute, dict-entry and class-method replacements, undone in reverse."""

    def __init__(self):
        self._undo = []
        self.missing: list[str] = []

    def attr(self, target: str, make):
        """Replace ``module.attr`` or ``module.Class.attr`` (dotted path)
        with make(original). A name that no longer exists is recorded in
        ``missing`` and skipped, so a refactor shows up as lost coverage."""
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, name = rest.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return
        setattr(owner, name, make(original))
        self._undo.append(lambda: setattr(owner, name, original))

    def item(self, mapping: dict, key, make):
        original = mapping[key]
        mapping[key] = make(original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def undo(self):
        while self._undo:
            self._undo.pop()()


class StageTimer:
    """Wall time of every ``Pipeline.stage_*`` call, summed per stage.

    This is a pair of clock reads per stage, cheap enough for the untraced
    end-to-end runs.
    """

    def __init__(self):
        self.seconds = defaultdict(float)

    def install(self, patches: Patches, stages):
        for stage in stages:
            patches.attr(f"welloop.cli:Pipeline.stage_{stage}", self._timed(stage))

    def _timed(self, stage):
        seconds = self.seconds

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[stage] += clock() - start

            return timed

        return make

    def take(self) -> dict:
        """Return the totals since the last take and start again."""
        out = dict(self.seconds)
        self.seconds.clear()
        return out


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, count=None):
        """A make() for Patches: wrap fn in a span called name. count(args,
        kwargs, result) gives the span's work count, taken after the span
        closes."""
        spans, open_ = self.spans, self._open

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
                open_.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    open_.pop()
                if count is not None:
                    span[4] = count(args, kwargs, result)
                return result

            return traced

        return make

    def write(self, path, passes):
        """Write spans as JSON lines, each tagged with its pass number."""
        with open(path, "w", encoding="utf-8") as fh:
            for number, (first, last) in enumerate(passes):
                for i in range(first, last):
                    name, start, end, parent, count = self.spans[i]
                    fh.write(
                        json.dumps(
                            {
                                "pass": number,
                                "id": i,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "count": count,
                            }
                        )
                        + "\n"
                    )


# --- what the traced run wraps ------------------------------------------------------


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _tree_nodes(node) -> int:
    total, stack = 0, [node]
    while stack:
        n = stack.pop()
        total += 1
        if n.feature is not None:
            stack.append(n.left)
            stack.append(n.right)
    return total


def _ensemble_nodes(_args, _kwargs, model) -> int:
    return sum(_tree_nodes(t) for t in model.trees)


def _predict_tree_rows(args, _kwargs, _result) -> int:
    return _rows(args[1]) * len(args[0].trees)


def _arg_rows(index):
    return lambda args, _kwargs, _result: _rows(args[index])


def _preprocess_rows(_args, _kwargs, result) -> int:
    return int(result[0].n_rows)


def _ice_points(_args, _kwargs, grid) -> int:
    return int(grid.predictions.size)


def _opt_evals(_args, _kwargs, result) -> int:
    return len(result.trace.entries)


# (target, span name, count). Library spans are grouped by welloop module.
PROBES = (
    ("welloop.cli:main", "cli.main", None),
    ("welloop.cli:Pipeline.write_manifest", "cli.manifest", None),
    ("welloop.cli:synthesize", "data.synthesize", None),
    ("welloop.cli:preprocess", "data.preprocess", _preprocess_rows),
    ("welloop.cli:load_csv", "data.load", None),
    ("welloop.cli:save_ensemble", "trees.save", None),
    ("welloop.cli:load_ensemble", "trees.load", None),
    ("welloop.trees:predict", "trees.predict", _predict_tree_rows),
    ("welloop.stack:predict", "trees.predict", _predict_tree_rows),
    ("welloop.ice:predict", "trees.predict", _predict_tree_rows),
    ("welloop.optimize:predict", "trees.predict", _predict_tree_rows),
    ("welloop.cli:fit_stacked", "stack.fit", None),
    ("welloop.cli:save_stacked", "stack.save", None),
    ("welloop.cli:load_stacked", "stack.load", None),
    ("welloop.cli:evaluate", "stack.evaluate", None),
    ("welloop.stack:predict_stacked", "stack.predict", _arg_rows(1)),
    ("welloop.ice:predict_stacked", "stack.predict", _arg_rows(1)),
    ("welloop.optimize:predict_stacked", "stack.predict", _arg_rows(1)),
    ("welloop.cli:tree_shap", "explain.tree_shap", _arg_rows(1)),
    ("welloop.cli:shap_interactions", "explain.interactions", _arg_rows(1)),
    ("welloop.cli:baseline_correlations", "explain.correlations", None),
    ("welloop.cli:supervised_cluster", "explain.cluster", None),
    ("welloop.cli:ice", "ice.grid", _ice_points),
    ("welloop.cli:optimize_well", "optimize.well", _opt_evals),
    ("welloop.optimize:pso", "optimize.pso", None),
    ("welloop.optimize:de", "optimize.de", None),
    ("welloop.optimize:bayes_opt", "optimize.bayes", None),
)


def install_probes(patches: Patches, tracer: Tracer, stages):
    for target, name, count in PROBES:
        patches.attr(target, tracer.wrap(name, count))
    fit_functions = importlib.import_module("welloop.trees").FIT_FUNCTIONS
    for kind in list(fit_functions):
        patches.item(fit_functions, kind, tracer.wrap("trees.fit", _ensemble_nodes))
    for stage in stages:
        patches.attr(f"welloop.cli:Pipeline.stage_{stage}", tracer.wrap(f"stage.{stage}"))


# --- per-layer metrics from one pass's spans --------------------------------------

_MODEL_SPANS = ("stack.predict", "trees.predict")
STAGES = ("data", "train", "explain", "stack", "ice", "optimize")

# metric name -> (unit, better); the order here is the order of the report
LAYER_METRICS = {
    "stage.data_s": ("s", "lower"),
    "stage.train_s": ("s", "lower"),
    "stage.explain_s": ("s", "lower"),
    "stage.stack_s": ("s", "lower"),
    "stage.ice_s": ("s", "lower"),
    "stage.optimize_s": ("s", "lower"),
    "data.synthesize_s": ("s", "lower"),
    "data.preprocess_s": ("s", "lower"),
    "data.load_s": ("s", "lower"),
    "data.rows_kept": ("count", "higher"),
    "trees.fit_s": ("s", "lower"),
    "trees.fit_calls": ("count", "lower"),
    "trees.nodes": ("count", "lower"),
    "trees.predict_s": ("s", "lower"),
    "trees.predict_calls": ("count", "lower"),
    "trees.predict_tree_rows": ("count", "lower"),
    "trees.load_s": ("s", "lower"),
    "trees.save_s": ("s", "lower"),
    "stack.fit_self_s": ("s", "lower"),
    "stack.predict_s": ("s", "lower"),
    "stack.predict_calls": ("count", "lower"),
    "stack.predict_rows": ("count", "lower"),
    "stack.evaluate_s": ("s", "lower"),
    "stack.load_s": ("s", "lower"),
    "stack.save_s": ("s", "lower"),
    "explain.tree_shap_s": ("s", "lower"),
    "explain.tree_shap_rows": ("count", "lower"),
    "explain.interactions_s": ("s", "lower"),
    "explain.interaction_rows": ("count", "lower"),
    "explain.correlations_s": ("s", "lower"),
    "explain.cluster_s": ("s", "lower"),
    "ice.grid_s": ("s", "lower"),
    "ice.self_s": ("s", "lower"),
    "ice.model_calls": ("count", "lower"),
    "ice.points": ("count", "lower"),
    "optimize.pso_s": ("s", "lower"),
    "optimize.de_s": ("s", "lower"),
    "optimize.bayes_s": ("s", "lower"),
    "optimize.pso.self_s": ("s", "lower"),
    "optimize.de.self_s": ("s", "lower"),
    "optimize.bayes.self_s": ("s", "lower"),
    "optimize.model_s": ("s", "lower"),
    "optimize.evals": ("count", "lower"),
    "cli.manifest_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifacts": ("count", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
}

# reported by the traced run next to the layer metrics
TRACE_METRICS = {
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.self_sum_pct": ("%", "higher"),
    "trace.missing_probes": ("count", "lower"),
    "host.speed": ("ratio", "higher"),
    "quality.holdout_mse": ("1e16m6", "lower"),
    "quality.eur_uplift": ("1e8m3", "higher"),
}

# metrics that must repeat exactly from pass to pass
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes"))


def layer_metrics(spans, first: int, last: int) -> dict:
    """Busy time, self time and counts per layer for spans[first:last].

    Busy time sums a layer's outermost spans, so a layer reached again
    from inside itself counts once. Self time is a span's duration minus
    its direct children's.
    """
    child_time = defaultdict(float)
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        if parent >= first:
            child_time[parent] += end - start

    def inside(i, names):
        parent = spans[i][3]
        while parent >= first:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    ice_calls = 0
    model_in_optimize = 0.0
    for i in range(first, last):
        name, start, end, parent, count = spans[i]
        self_time[name] += end - start - child_time[i]
        if not inside(i, (name,)):
            busy[name] += end - start
            calls[name] += 1
            counts[name] += count or 0
        if name in _MODEL_SPANS and not inside(i, _MODEL_SPANS):
            if parent >= first and spans[parent][0] == "ice.grid":
                ice_calls += 1
            elif inside(i, ("optimize.well",)):
                model_in_optimize += end - start

    m = {f"stage.{stage}_s": busy[f"stage.{stage}"] for stage in STAGES}
    m.update(
        {
            "data.synthesize_s": busy["data.synthesize"],
            "data.preprocess_s": busy["data.preprocess"],
            "data.load_s": busy["data.load"],
            "data.rows_kept": counts["data.preprocess"],
            "trees.fit_s": busy["trees.fit"],
            "trees.fit_calls": calls["trees.fit"],
            "trees.nodes": counts["trees.fit"],
            "trees.predict_s": busy["trees.predict"],
            "trees.predict_calls": calls["trees.predict"],
            "trees.predict_tree_rows": counts["trees.predict"],
            "trees.load_s": busy["trees.load"],
            "trees.save_s": busy["trees.save"],
            "stack.fit_self_s": self_time["stack.fit"],
            "stack.predict_s": busy["stack.predict"],
            "stack.predict_calls": calls["stack.predict"],
            "stack.predict_rows": counts["stack.predict"],
            "stack.evaluate_s": busy["stack.evaluate"],
            "stack.load_s": busy["stack.load"],
            "stack.save_s": busy["stack.save"],
            "explain.tree_shap_s": busy["explain.tree_shap"],
            "explain.tree_shap_rows": counts["explain.tree_shap"],
            "explain.interactions_s": busy["explain.interactions"],
            "explain.interaction_rows": counts["explain.interactions"],
            "explain.correlations_s": busy["explain.correlations"],
            "explain.cluster_s": busy["explain.cluster"],
            "ice.grid_s": busy["ice.grid"],
            "ice.self_s": self_time["ice.grid"],
            "ice.model_calls": ice_calls,
            "ice.points": counts["ice.grid"],
            "optimize.pso_s": busy["optimize.pso"],
            "optimize.de_s": busy["optimize.de"],
            "optimize.bayes_s": busy["optimize.bayes"],
            "optimize.pso.self_s": self_time["optimize.pso"],
            "optimize.de.self_s": self_time["optimize.de"],
            "optimize.bayes.self_s": self_time["optimize.bayes"],
            "optimize.model_s": model_in_optimize,
            "optimize.evals": counts["optimize.well"],
            "cli.manifest_s": busy["cli.manifest"],
            "cli.self_s": self_time["cli.main"]
            + sum(v for k, v in self_time.items() if k.startswith("stage.")),
        }
    )
    m["_self_total_s"] = sum(self_time.values())
    return m


def artifact_metrics(out) -> dict:
    """Files the manifest lists after a pass, and their total size."""
    listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    return {
        "cli.artifacts": len(listed),
        "cli.artifact_bytes": sum((out / a["path"]).stat().st_size for a in listed),
    }
