"""Individual conditional expectation grids.

An ICE grid varies one to three factors over evenly spaced values while
every other factor stays frozen at each anchor well's observed values.
The result is one response curve (or surface) per anchor plus their
pointwise average. A model with terms() is evaluated by
`trees.predict_grid`, which walks each tree once per grid cell it
distinguishes; a plain callable is called once per grid point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from welloop.data import WellTable
from welloop.trees import _BLOCK_CELLS, as_predictor, predict_grid
from welloop.utils import is_int, raise_first, range_problems, subseed_rng, write_json, write_table

_ANCHOR_TAG = 41


@dataclass(frozen=True)
class VariedFactor:
    """One swept axis: `steps` evenly spaced values from lower to upper,
    a missing end taken from that end of the factor's observed range.
    job_problems states the rules that need no table."""

    name: str
    lower: float | None = None
    upper: float | None = None
    steps: int = 25

    def grid(self, table: WellTable) -> np.ndarray:
        """The swept values. A constant factor is refused, and so are
        ends that range_problems refuses once a missing one is resolved."""
        col = table.column(self.name)
        lo = float(np.nanmin(col)) if self.lower is None else self.lower
        hi = float(np.nanmax(col)) if self.upper is None else self.upper
        if self.lower is None and self.upper is None and not lo < hi:
            raise ValueError(f"factor {self.name!r} is constant; nothing to sweep")
        raise_first(range_problems(lo, hi, self.name))
        return np.linspace(lo, hi, self.steps)


@dataclass
class IceGrid:
    factor_names: tuple
    grids: tuple  # one non-decreasing value array per axis
    anchor_rows: np.ndarray
    predictions: np.ndarray  # (anchors, steps_1[, steps_2[, steps_3]])
    average: np.ndarray  # (steps_1[, steps_2[, steps_3]])

    def write_csv(self, path) -> None:
        """Long format: one row per (anchor, grid point), then the same
        grid points again for the AVERAGE pseudo-sample; one column per
        grid axis."""
        n = self.average.size
        cells = np.indices(self.average.shape).reshape(-1, n)  # np.ndindex order
        axes = [np.asarray(g, dtype=float)[i] for g, i in zip(self.grids, cells)]
        anchors = np.asarray(self.anchor_rows, dtype=int)
        step = max(1, _BLOCK_CELLS // n)  # anchors a block: no column outgrows a block

        def curves(first):
            rows = anchors[first : first + step]
            values = self.predictions[first : first + step].ravel()
            return [np.repeat(rows, n), *(np.tile(a, len(rows)) for a in axes), values]

        average = [["AVERAGE"] * n, *axes, self.average.ravel()]
        blocks = itertools.chain(map(curves, range(0, len(anchors), step)), [average])
        write_table(path, ["sample", *self.factor_names, "prediction"], blocks)

    def write_meta(self, path) -> None:
        meta = {
            "factor_names": list(self.factor_names),
            "grids": [[float(v) for v in g] for g in self.grids],
            "anchor_rows": [int(r) for r in self.anchor_rows],
        }
        write_json(path, meta)


def ice(
    model,
    table: WellTable,
    varied,
    anchor_rows=None,
    sample: int | None = None,
    seed: int = 0,
) -> IceGrid:
    """Build an ICE grid of `model` over 1 to 3 varied factors.

    Anchors default to every table row; pass `anchor_rows` to pin them or
    `sample` to draw that many rows without replacement (seeded). The
    average curve is the pointwise mean over anchors, and one that a float
    cannot hold (finite curves near the largest float) is refused.

    A model with terms() (a TreeEnsemble or a StackedModel) goes through
    `trees.predict_grid`, which walks each tree once per grid cell it
    distinguishes and gives predict's bits at every point; any other
    callable is called on all anchors once per grid point.
    """
    varied = tuple(varied)
    anchors = None if anchor_rows is None else list(anchor_rows)
    raise_first([f"anchor row {r!r} is not an integer" for r in anchors or () if not is_int(r)])
    anchors = None if anchors is None else np.asarray(anchors, dtype=int)
    raise_first(job_problems(varied, anchors, sample))
    feature_names = list(table.feature_names)
    for v in varied:
        if v.name not in feature_names:
            raise ValueError(f"no feature named {v.name!r}")
    predict_on_grid = _grid_predictor(model)
    table.check_feature_names(model)

    features = table.feature_matrix()
    if np.isnan(features).any():
        raise ValueError("table still contains missing values")
    n = features.shape[0]
    if anchors is not None:
        if anchors.min() < 0 or anchors.max() >= n:
            raise ValueError("anchor row outside the table")
    elif sample is not None:
        if not 1 <= sample <= n:
            raise ValueError(f"sample must be in [1, {n}]")
        rng = subseed_rng(seed, _ANCHOR_TAG)
        anchors = np.sort(rng.choice(n, size=sample, replace=False))
    else:
        anchors = np.arange(n)

    grids = tuple(v.grid(table) for v in varied)
    cols = [feature_names.index(v.name) for v in varied]
    predictions = predict_on_grid(features[anchors], cols, grids)
    with np.errstate(over="ignore", invalid="ignore"):
        average = predictions.mean(axis=0)
    if not np.all(np.isfinite(average)):
        raise ValueError("the average ICE curve is not finite")
    return IceGrid(
        factor_names=tuple(v.name for v in varied),
        grids=grids,
        anchor_rows=anchors,
        predictions=predictions,
        average=average,
    )


def job_problems(varied, anchor_rows, sample) -> list[str]:
    """The problems of an ICE job that need no data: it varies 1 to 3
    factors, each named once, each swept over at least 2 steps and, when
    both its ends are given, over a range that range_problems passes;
    and it gives at least one anchor row or a sample size, not both."""
    names = [v.name for v in varied]
    problems = [] if 1 <= len(names) <= 3 else [f"needs 1 to 3 factors, got {len(names)}"]
    repeats = [name for i, name in enumerate(names) if name in names[:i]]
    problems += [f"factors must be distinct, {name!r} repeats" for name in repeats]
    for v in varied:
        if v.steps < 2:
            problems.append(f"steps must be >= 2 for {v.name!r}")
        if v.lower is not None and v.upper is not None:
            problems += range_problems(v.lower, v.upper, v.name)
    if anchor_rows is not None and len(anchor_rows) == 0:
        problems.append("need at least one anchor row")
    if anchor_rows is not None and sample is not None:
        problems.append("give anchors or sample, not both")
    return problems


def _grid_predictor(model):
    """The function that maps (rows, columns, grids) to the model's
    outputs over the grid, shaped (rows, steps_1[, steps_2[, steps_3]]):
    `predict_grid` for a model with terms(), else a loop over the grid
    points that calls the model on all rows at each."""
    if callable(getattr(model, "terms", None)):
        return partial(predict_grid, model)
    return partial(_predict_by_points, as_predictor(model))


def _predict_by_points(predictor, rows, columns, grids) -> np.ndarray:
    shape = tuple(g.size for g in grids)
    out = np.empty((rows.shape[0],) + shape)
    for c in np.ndindex(*shape):
        block = np.array(rows)
        for col, g, i in zip(columns, grids, c):
            block[:, col] = g[i]
        out[(slice(None),) + c] = np.asarray(predictor(block), dtype=float)
    return out
