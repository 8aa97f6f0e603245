"""Individual conditional expectation grids.

An ICE grid varies one to three factors over evenly spaced values while
every other factor stays frozen at each anchor well's observed values.
The result is one response curve (or surface) per anchor plus their
pointwise average; projecting a grid onto fewer axes is pure indexing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from welloop.data import WellTable
from welloop.trees import as_predictor
from welloop.utils import fmt, subseed_rng, write_json, write_rows

_ANCHOR_TAG = 41


@dataclass(frozen=True)
class VariedFactor:
    """One swept axis: `steps` evenly spaced values from lower to upper,
    a missing end taken from that end of the factor's observed range."""

    name: str
    lower: float | None = None
    upper: float | None = None
    steps: int = 25

    def grid(self, table: WellTable) -> np.ndarray:
        col = table.column(self.name)
        lo = float(np.nanmin(col)) if self.lower is None else self.lower
        hi = float(np.nanmax(col)) if self.upper is None else self.upper
        if self.lower is None and self.upper is None and not lo < hi:
            raise ValueError(f"factor {self.name!r} is constant; nothing to sweep")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not lo < hi:
            raise ValueError(f"bounds reversed for {self.name!r}")
        return np.linspace(lo, hi, self.steps)


@dataclass
class IceGrid:
    factor_names: tuple
    grids: tuple  # one strictly increasing value array per axis
    anchor_rows: np.ndarray
    predictions: np.ndarray  # (anchors, steps_1[, steps_2[, steps_3]])
    average: np.ndarray  # (steps_1[, steps_2[, steps_3]])

    def write_csv(self, path) -> None:
        """Long format: one row per (anchor, grid point), then the same
        grid points again for the AVERAGE pseudo-sample."""
        coords = list(np.ndindex(*self.average.shape))
        curves = itertools.chain(
            zip(map(int, self.anchor_rows), self.predictions), [("AVERAGE", self.average)]
        )
        rows = (
            [sample] + [fmt(self.grids[ax][i]) for ax, i in enumerate(c)] + [fmt(values[c])]
            for sample, values in curves
            for c in coords
        )
        write_rows(path, ["sample"] + list(self.factor_names) + ["prediction"], rows)

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
    average curve is the pointwise mean over anchors.
    """
    varied = tuple(varied)
    if not 1 <= len(varied) <= 3:
        raise ValueError("ICE grids support 1 to 3 varied factors")
    names = [v.name for v in varied]
    if len(set(names)) != len(names):
        raise ValueError("varied factors must be distinct")
    feature_names = list(table.feature_names)
    for v in varied:
        if v.name not in feature_names:
            raise ValueError(f"no feature named {v.name!r}")
    predictor = as_predictor(model)
    table.check_feature_names(model)

    features = table.feature_matrix()
    if np.isnan(features).any():
        raise ValueError("table still contains missing values")
    n = features.shape[0]
    if anchor_rows is not None:
        anchors = np.asarray(list(anchor_rows), dtype=int)
        if anchors.size == 0:
            raise ValueError("need at least one anchor row")
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
    shape = tuple(g.size for g in grids)
    base = features[anchors]
    predictions = np.empty((anchors.size,) + shape)
    for c in np.ndindex(*shape):
        block = np.array(base)
        for ax, i in enumerate(c):
            block[:, cols[ax]] = grids[ax][i]
        predictions[(slice(None),) + c] = np.asarray(predictor(block), dtype=float)
    average = predictions.mean(axis=0)
    return IceGrid(
        factor_names=tuple(names),
        grids=grids,
        anchor_rows=anchors,
        predictions=predictions,
        average=average,
    )


def project(grid: IceGrid, axis: str, values=None) -> list[tuple[float, IceGrid]]:
    """Slice a 2-D or 3-D grid along `axis` at the given grid values
    (default all of them) into (axis value, grid over the other axes)
    pairs. Pure indexing, no model calls."""
    if axis not in grid.factor_names:
        raise ValueError(f"no grid axis named {axis!r}")
    if len(grid.factor_names) < 2:
        raise ValueError("projection needs a 2-D or 3-D grid")
    ax = grid.factor_names.index(axis)
    axis_values = grid.grids[ax]
    if values is None:
        picks = list(range(axis_values.size))
    else:
        picks = []
        for v in values:
            matches = np.nonzero(axis_values == float(v))[0]
            if matches.size == 0:
                raise ValueError(f"{v!r} is not a grid value of axis {axis!r}")
            picks.append(int(matches[0]))
    rest_names = tuple(n for i, n in enumerate(grid.factor_names) if i != ax)
    rest_grids = tuple(g for i, g in enumerate(grid.grids) if i != ax)
    sections = []
    for i in picks:
        section = IceGrid(
            factor_names=rest_names,
            grids=rest_grids,
            anchor_rows=grid.anchor_rows,
            predictions=np.take(grid.predictions, i, axis=1 + ax),
            average=np.take(grid.average, i, axis=ax),
        )
        sections.append((float(axis_values[i]), section))
    return sections
