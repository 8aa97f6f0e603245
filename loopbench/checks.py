"""Correctness checks, run off the clock on the artifacts a pass left.

Each check returns a list of problems; an empty list means it passed.
Model outputs are compared with the reference computations in oracle.py,
never with welloop's own prediction or attribution code.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import oracle

REL = 1e-9
CUT_TREES = 3  # trees kept for the enumeration check


def _close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def manifest(out: Path) -> list[str]:
    """Every file under out, manifest.json aside, is listed exactly once
    with its SHA-256."""
    problems = []
    listed = _json(out / "manifest.json")["artifacts"]
    paths = [a["path"] for a in listed]
    if len(paths) != len(set(paths)):
        problems.append("manifest lists a file more than once")
    on_disk = sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p != out / "manifest.json"
    )
    if sorted(set(paths)) != on_disk:
        problems.append(
            f"manifest and disk disagree: {sorted(set(paths) ^ set(on_disk))[:5]}"
        )
    for art in listed:
        path = out / art["path"]
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != art["sha256"]:
            problems.append(f"sha256 mismatch for {art['path']}")
    return problems


def stages(out: Path, expect_ok) -> list[str]:
    """The stages an invocation ran are all 'ok' in the manifest."""
    status = {s["name"]: s for s in _json(out / "manifest.json")["stages"]}
    return [
        f"stage {name} is {status.get(name, {}).get('status')}: "
        f"{status.get(name, {}).get('detail', '')}"
        for name in expect_ok
        if status.get(name, {}).get("status") != "ok"
    ]


# --- design-search -----------------------------------------------------------------


def optimize_traces(out: Path, cfg: dict) -> list[str]:
    """Trace values against the reference walker at each trace point (stage
    count rounded), bounds, budget, best-so-far and the EUR pair."""
    problems = []
    table = oracle.Table(out)
    model = oracle.Stacked(out / "models/stacked")
    opt = cfg["optimize"]
    variables = table.optimizable
    cols = [table.feature_names.index(v) for v in variables]
    bounds = [(min(table.column(v)), max(table.column(v))) for v in variables]
    for well in opt["wells"]:
        x0 = table.features[well]
        for method in opt["methods"]:
            tag = f"w{well}_{method}"
            result = _json(out / f"optimize/result_{tag}.json")
            trace = oracle.read_csv(out / f"optimize/trace_{tag}.csv")
            if result["variables"] != variables:
                problems.append(f"{tag}: variables {result['variables']} != {variables}")
                continue
            if result["evaluations"] != opt["budget"] or len(trace) != opt["budget"]:
                problems.append(
                    f"{tag}: {result['evaluations']} evaluations, {len(trace)} trace rows,"
                    f" budget {opt['budget']}"
                )
            best = float("-inf")
            for k, entry in enumerate(trace):
                point = [float(entry[v]) for v in variables]
                if any(not lo <= u <= hi for u, (lo, hi) in zip(point, bounds)):
                    problems.append(f"{tag}: evaluation {k} out of bounds")
                row = list(x0)
                for v, c, u in zip(variables, cols, point):
                    row[c] = float(round(u)) if v == "stage count" else u
                value = float(entry["value"])
                if not _close(value, model(row)):
                    problems.append(f"{tag}: evaluation {k} value {value} != {model(row)}")
                best = max(best, value)
                if float(entry["best_so_far"]) != best:
                    problems.append(f"{tag}: best_so_far wrong at evaluation {k}")
            values = [float(e["value"]) for e in trace]
            if values and (
                result["original_eur"] != values[0] or result["optimized_eur"] != max(values)
            ):
                problems.append(f"{tag}: original/optimized EUR disagree with the trace")
            if result["optimized_eur"] < result["original_eur"]:
                problems.append(f"{tag}: optimized EUR below the original")
    return problems


def ice_grids(out: Path, cfg: dict, seed: int, anchors_checked: int = 4) -> list[str]:
    """ICE predictions at sampled anchors (every grid point) against the
    reference walker, and the AVERAGE rows against the mean over anchors."""
    problems = []
    table = oracle.Table(out)
    model = oracle.Stacked(out / "models/stacked")
    pick = random.Random(seed)
    n = len(table.features)
    for i, job in enumerate(cfg["ice"]):
        names = [f["name"] for f in job["factors"]]
        cols = [table.feature_names.index(name) for name in names]
        meta = _json(out / f"ice/ice_{i}.meta.json")
        anchors = meta["anchor_rows"]
        expected = job.get("sample") or n
        if len(anchors) != expected or len(set(anchors)) != expected or not all(
            0 <= a < n for a in anchors
        ):
            problems.append(f"ice_{i}: anchors {len(anchors)} rows, expected {expected}")
            continue
        points = 1
        for f, grid in zip(job["factors"], meta["grids"]):
            points *= f["steps"]
            column = table.column(f["name"])
            if len(grid) != f["steps"] or (grid[0], grid[-1]) != (min(column), max(column)):
                problems.append(f"ice_{i}: grid of {f['name']} does not span its column")
        rows = oracle.read_csv(out / f"ice/ice_{i}.csv")
        if len(rows) != (len(anchors) + 1) * points:
            problems.append(f"ice_{i}: {len(rows)} csv rows for {len(anchors)} anchors")
            continue
        by_anchor: dict[str, list] = {}
        for r in rows:
            by_anchor.setdefault(r["sample"], []).append(r)
        for anchor in pick.sample(anchors, min(anchors_checked, len(anchors))):
            for r in by_anchor[str(anchor)]:
                row = list(table.features[anchor])
                for c, name in zip(cols, names):
                    row[c] = float(r[name])
                got = float(r["prediction"])
                if not _close(got, model(row)):
                    problems.append(f"ice_{i}: anchor {anchor} at {row} {got} != {model(row)}")
        curves = [[float(r["prediction"]) for r in by_anchor[str(a)]] for a in anchors]
        for k, r in enumerate(by_anchor["AVERAGE"]):
            mean = sum(c[k] for c in curves) / len(curves)
            if not _close(float(r["prediction"]), mean):
                problems.append(f"ice_{i}: average at point {k} != mean over anchors")
    return problems


# --- attribution -------------------------------------------------------------------


def attributions(out: Path, cfg: dict, tensor, program_cut_shap, seed: int) -> list[str]:
    """Additivity against the reference walker, interaction symmetry and
    row sums, and exact agreement with subset enumeration on a cut model."""
    problems = []
    ex = cfg["explain"]
    kind = ex["kind"].lower()
    table = oracle.Table(out)
    model = oracle.Ensemble.load(out / f"models/{kind}.json")
    rows = table.features[: ex["max_rows"]]
    m = len(table.feature_names)
    phi = [[0.0] * m for _ in rows]
    for r in oracle.read_csv(out / f"shap/summary_{kind}.csv"):
        phi[int(r["sample"])][table.feature_names.index(r["factor"])] = float(r["attribution"])
    base = oracle.base_value(model)
    waterfall = oracle.read_csv(out / "shap/waterfall_0.csv")
    if not _close(float(waterfall[0]["cumulative"]), base):
        problems.append(f"base value {waterfall[0]['cumulative']} != {base}")
    for i, row in enumerate(rows):
        if not _close(base + sum(phi[i]), model(row)):
            problems.append(f"row {i}: base + sum(phi) {base + sum(phi[i])} != {model(row)}")

    if ex["interactions"]:
        if tensor is None or tensor.values.shape != (len(rows), m, m):
            problems.append("no interaction tensor of the expected shape was returned")
        else:
            main = {}
            for r in oracle.read_csv(out / f"shap/dependency_{kind}.csv"):
                main[(int(r["sample"]), r["factor"])] = float(r["main_effect"])
            for i, mat in enumerate(tensor.values.tolist()):
                for a in range(m):
                    if not _close(sum(mat[a]), phi[i][a]):
                        problems.append(f"row {i}: interaction row {a} does not sum to phi")
                    if main[(i, table.feature_names[a])] != mat[a][a]:
                        problems.append(f"row {i}: dependency csv main effect {a} differs")
                    for b in range(a):
                        if not _close(mat[a][b], mat[b][a]):
                            problems.append(f"row {i}: interactions ({a},{b}) not symmetric")

    if ex.get("clusters", 0) >= 2:
        labels = [int(r["cluster"]) for r in oracle.read_csv(out / "shap/clusters.csv")]
        if len(labels) != len(rows) or not set(labels) <= set(range(ex["clusters"])):
            problems.append("cluster labels do not cover the attributed rows")

    row = random.Random(seed).randrange(len(rows))
    want = oracle.shapley_by_enumeration(model.cut(CUT_TREES), rows[row], m)
    got = program_cut_shap(CUT_TREES, rows[row])
    for j in range(m):
        if not _close(got[j], want[j]):
            problems.append(
                f"row {row}, feature {j}: tree_shap on {CUT_TREES} trees {got[j]}"
                f" != enumeration {want[j]}"
            )
    return problems


# --- field-1k ----------------------------------------------------------------------


def field(out: Path, cfg: dict) -> list[str]:
    """Parity against the reference walker, the no-leakage cover audit,
    cover sums, the meta model's normal equations and boosting loss."""
    problems = []
    table = oracle.Table(out)
    stacked = oracle.Stacked(out / "models/stacked")
    split = _json(out / "data/split.json")
    train = split["train"]
    if sorted(train + split["test"]) != list(range(len(table.features))):
        problems.append("train and test split do not partition the clean rows")

    for r in oracle.read_csv(out / "parity.csv"):
        i = int(r["sample"])
        if float(r["actual"]) != table.target[i]:
            problems.append(f"parity: sample {i} actual differs from clean.csv")
        want = stacked(table.features[i])
        if not _close(float(r["predicted"]), want):
            problems.append(f"parity: sample {i} {r['predicted']} != {want}")

    models = [oracle.Ensemble.load(out / f"models/{k.lower()}.json") for k in cfg["train"]["kinds"]]
    fold = stacked.fold_assignment
    if len(fold) != len(train):
        problems.append(f"fold assignment covers {len(fold)} rows, training split {len(train)}")
    for z, subs in enumerate(stacked.sub_models):
        for j, sub in enumerate(subs):
            outside = sum(1 for f in fold if f != j)
            roots = {tree.cover[0] for tree in sub.trees}
            if roots != {outside}:
                problems.append(
                    f"sub-model {stacked.kinds[z]}/{j}: root covers {sorted(roots)[:3]},"
                    f" {outside} rows outside fold {j}"
                )
            models.append(sub)
    for model in models:
        bad = sum(tree.cover_problems() for tree in model.trees)
        if bad:
            problems.append(f"{model.kind}: {bad} nodes whose cover is not their children's sum")
        if model.train_loss is not None and any(
            b > a for a, b in zip(model.train_loss, model.train_loss[1:])
        ):
            problems.append(f"{model.kind}: boosting train_loss increases")

    # normal equations D^T (y - D c) = 0 of the meta least squares, with the
    # out-of-fold design D = [1, oof] rebuilt by the reference walker
    coef = [stacked.meta_intercept] + stacked.meta_weights
    grad = [0.0] * len(coef)
    scale = [0.0] * len(coef)
    for i, f in zip(train, fold):
        x = table.features[i]
        d = [1.0] + [subs[f](x) for subs in stacked.sub_models]
        fit = sum(c * v for c, v in zip(coef, d))
        resid = table.target[i] - fit
        size = abs(table.target[i]) + sum(abs(c * v) for c, v in zip(coef, d))
        for k, v in enumerate(d):
            grad[k] += v * resid
            scale[k] += abs(v) * size
    for k, (g, s) in enumerate(zip(grad, scale)):
        if abs(g) > REL * s:
            problems.append(f"meta normal equation {k} off by {g} (scale {s})")
    return problems
