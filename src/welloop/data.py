"""Well-table ingestion, cleaning, intensity features, and synthetic data.

A well table is a rectangular block of numeric factor columns plus exactly
one production column (the target). Cleaning follows a fixed order: drop
features with too many missing cells, drop rows with any remaining missing
cell (values are never imputed), drop z-score outlier rows until stable,
then drop the later-declared member of every highly correlated feature
pair. The same call applied twice is a no-op.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from welloop.utils import raise_first, read_json, take, typed, write_json, write_rows

CATEGORIES = ("geologic", "drilling", "completion", "production")

KNOWN_UNITS = frozenset(
    {"m", "%", "MPa", "m3", "m3/m", "deg", "-", "1e8 m3", "1e4 m3", "t", "t/m"}
)


class DataWarning(UserWarning):
    """Raised as a warning for recoverable data-quality problems."""


class PreprocessError(ValueError):
    """Cleaning removed so much data that nothing usable remains."""


@dataclass(frozen=True)
class FactorSpec:
    """Declaration of one column: name, unit, category, and whether the
    factor is an engineering parameter that a design search may move."""

    name: str
    unit: str
    category: str
    optimizable: bool = False

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown category {self.category!r} for factor {self.name!r}"
            )
        if not self.name:
            raise ValueError("factor name must be non-empty")


def column_problems(specs) -> list[str]:
    """The problems of factor declarations as the columns of one table:
    each name is declared once, and one factor is the production."""
    names = [s.name for s in specs]
    problems = [] if len(set(names)) == len(names) else ["duplicate factor names"]
    n_targets = sum(s.category == "production" for s in specs)
    if n_targets != 1:
        problems.append(f"need exactly one production factor, got {n_targets}")
    return problems


@dataclass(frozen=True)
class WellTable:
    """Immutable table of well factors; NaN marks a missing cell."""

    specs: tuple[FactorSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        specs = tuple(self.specs)
        raise_first(column_problems(specs))
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != len(specs):
            raise ValueError(
                f"values shape {vals.shape} does not match {len(specs)} factors"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def target_index(self) -> int:
        return next(
            i for i, s in enumerate(self.specs) if s.category == "production"
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        t = self.target_index
        return tuple(s.name for i, s in enumerate(self.specs) if i != t)

    @property
    def feature_specs(self) -> tuple[FactorSpec, ...]:
        t = self.target_index
        return tuple(s for i, s in enumerate(self.specs) if i != t)

    def index(self, name: str) -> int:
        for i, s in enumerate(self.specs):
            if s.name == name:
                return i
        raise KeyError(f"no factor named {name!r}")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index(name)]

    def check_feature_names(self, model) -> None:
        """Refuse a model whose feature columns are not this table's, in
        order; a plain callable names none."""
        names = getattr(model, "feature_names", None)
        if names is not None and tuple(names) != self.feature_names:
            raise ValueError("model and table disagree on feature columns")

    def feature_matrix(self) -> np.ndarray:
        t = self.target_index
        cols = [j for j in range(len(self.specs)) if j != t]
        return np.array(self.values[:, cols])

    def target(self) -> np.ndarray:
        return np.array(self.values[:, self.target_index])


def _parse_cell(cell: str) -> float:
    text = cell.strip()
    if not text:
        return float("nan")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparseable numeric {cell!r}") from None
    if math.isinf(value):
        raise ValueError(f"infinite numeric {cell!r}")
    return value


def load_csv(path, schema) -> WellTable:
    """Read a CSV whose header contains at least the schema's column names.

    Columns are picked by name, so header order does not matter. Empty
    cells and `nan` become missing values. Rows with the wrong cell count
    or a non-numeric or infinite cell are rejected with a warning naming
    the row index (0-based, counted below the header).
    """
    specs = tuple(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        absent = [s.name for s in specs if s.name not in header]
        if absent:
            raise ValueError(f"{path}: columns missing from header: {absent}")
        twice = [s.name for s in specs if header.count(s.name) > 1]
        if twice:
            raise ValueError(f"{path}: columns named more than once in header: {twice}")
        picks = [header.index(s.name) for s in specs]
        rows = []
        for i, raw in enumerate(reader):
            if len(raw) != len(header):
                warnings.warn(
                    f"row {i} rejected: expected {len(header)} cells, got {len(raw)}",
                    DataWarning,
                    stacklevel=2,
                )
                continue
            try:
                rows.append([_parse_cell(raw[c]) for c in picks])
            except ValueError as exc:
                warnings.warn(f"row {i} rejected: {exc}", DataWarning, stacklevel=2)
    return WellTable(specs, np.array(rows, dtype=float).reshape(-1, len(specs)))


def write_csv(table: WellTable, path) -> None:
    """Write a table back out; missing cells become empty strings."""
    # Python floats, whose repr is a numpy float64's; NaN is the one v != v
    rows = (["" if v != v else repr(v) for v in row] for row in table.values.tolist())
    write_rows(path, table.names, rows)


def load_schema(path) -> tuple[FactorSpec, ...]:
    """Read a JSON list of factor declarations. Unknown units only warn;
    a malformed file, or factors no table could have as its columns,
    raises a ValueError that names the bad part."""
    entries = read_json(path)
    if not isinstance(entries, list):
        got = type(entries).__name__
        raise ValueError(f"{path}: expected a list of factors, got {got}")
    specs = []
    for i, e in enumerate(entries):
        where = f"{path}[{i}]"
        typed(e, "object", where)
        spec = FactorSpec(
            name=take(e, "name", "string", where),
            unit=take(e, "unit", "string", where),
            category=take(e, "category", "string", where),
            optimizable=typed(e.get("optimizable", False), "boolean", where, "optimizable"),
        )
        if spec.unit not in KNOWN_UNITS:
            warnings.warn(
                f"unknown unit {spec.unit!r} for factor {spec.name!r}",
                DataWarning,
                stacklevel=2,
            )
        specs.append(spec)
    raise_first([f"{path}: {problem}" for problem in column_problems(specs)])
    return tuple(specs)


def save_schema(specs, path) -> None:
    entries = [
        {
            "name": s.name,
            "unit": s.unit,
            "category": s.category,
            "optimizable": s.optimizable,
        }
        for s in specs
    ]
    write_json(path, entries)


def pearson_matrix(x: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the columns of x.

    Zero-variance columns get correlation 0 against everything (no linear
    association is detectable); the diagonal is exactly 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D array")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    denom = np.outer(sd, sd)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / np.where(denom == 0, 1.0, denom), 0.0)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return np.clip(r, -1.0, 1.0)


@dataclass
class PreprocessReport:
    """What cleaning removed and why, plus the correlation matrix that
    drove the redundancy decision (features only, pre-drop)."""

    dropped_features: list = field(default_factory=list)
    dropped_rows: list = field(default_factory=list)
    pearson_matrix: np.ndarray | None = None
    pearson_features: tuple = ()

    def to_json(self) -> dict:
        return {
            "dropped_features": [
                {"name": n, "reason": r} for n, r in self.dropped_features
            ],
            "dropped_rows": [
                {"row": int(i), "reason": r} for i, r in self.dropped_rows
            ],
            "pearson_features": list(self.pearson_features),
            "pearson_matrix": (
                None
                if self.pearson_matrix is None
                else [[float(v) for v in row] for row in self.pearson_matrix]
            ),
        }


def parameter_problems(
    missing_ratio_max=0.0, outlier_z=1.0, redundancy_r=1.0, rows=None, noise_sd=0.0
) -> list[str]:
    """The problems of the data parameters, each at its name: preprocess's
    three cleaning thresholds, and synthesize's row count (`rows`, None
    for a table read from a file) and noise. The defaults pass."""
    rules = [
        ("missing_ratio_max", 0 <= missing_ratio_max < 1, "must be in [0, 1)"),
        ("outlier_z", outlier_z > 0, "must be > 0"),
        ("redundancy_r", 0 < redundancy_r <= 1, "must be in (0, 1]"),
        ("rows", rows is None or rows >= 20, "synthetic tables need at least 20 rows"),
        ("noise_sd", noise_sd >= 0, "must be >= 0"),
    ]
    return [f"{name}: {message}" for name, ok, message in rules if not ok]


def preprocess(
    table: WellTable,
    missing_ratio_max: float = 0.2,
    outlier_z: float = 4.0,
    redundancy_r: float = 0.9,
) -> tuple[WellTable, PreprocessReport]:
    """Clean a table in a fixed, reproducible order.

    1. Features whose missing-cell ratio exceeds missing_ratio_max are
       dropped (the target is never dropped).
    2. Rows with any remaining missing cell are dropped; no imputation.
    3. Rows where any feature sits more than outlier_z sample standard
       deviations from its column mean are dropped; this repeats until no
       row exceeds the threshold under the surviving rows' statistics, so
       the output is a fixed point.
    4. For every feature pair whose |Pearson| reaches redundancy_r, the
       later-declared feature is dropped.

    Returns the cleaned table and a report whose drop lists exactly
    reconcile the input and output dimensions.
    """
    raise_first(parameter_problems(missing_ratio_max, outlier_z, redundancy_r))
    if table.n_rows == 0:
        raise PreprocessError("empty after preprocessing")

    specs = list(table.specs)
    vals = np.array(table.values)
    report = PreprocessReport()

    keep = []
    for j, spec in enumerate(specs):
        if spec.category == "production":
            keep.append(j)
            continue
        if np.isnan(vals[:, j]).mean() > missing_ratio_max:
            report.dropped_features.append((spec.name, "missing-ratio"))
        else:
            keep.append(j)
    vals = vals[:, keep]
    specs = [specs[j] for j in keep]
    tgt = next(j for j, s in enumerate(specs) if s.category == "production")

    row_ids = np.arange(table.n_rows)
    miss = np.isnan(vals).any(axis=1)
    for r in np.nonzero(miss)[0]:
        reason = "missing-target" if np.isnan(vals[r, tgt]) else "missing-value"
        report.dropped_rows.append((int(row_ids[r]), reason))
    vals = vals[~miss]
    row_ids = row_ids[~miss]

    feat = [j for j in range(len(specs)) if j != tgt]
    while vals.shape[0] > 0 and feat:
        cols = vals[:, feat]
        mu = cols.mean(axis=0)
        sd = cols.std(axis=0)
        sd = np.where(sd == 0, np.inf, sd)  # constant feature: z is 0
        z = np.abs((cols - mu) / sd)
        out = (z > outlier_z).any(axis=1)
        if not out.any():
            break
        for r in np.nonzero(out)[0]:
            report.dropped_rows.append((int(row_ids[r]), "outlier"))
        vals = vals[~out]
        row_ids = row_ids[~out]
    if vals.shape[0] == 0:
        raise PreprocessError("empty after preprocessing")
    if vals.shape[0] < 2:
        raise PreprocessError("fewer than two rows left after preprocessing")

    fnames = tuple(specs[j].name for j in feat)
    corr = pearson_matrix(vals[:, feat]) if feat else np.zeros((0, 0))
    dropped_pos = set()
    for b in range(len(feat)):
        for a in range(b):
            if abs(corr[a, b]) >= redundancy_r:
                dropped_pos.add(b)
                report.dropped_features.append((fnames[b], "redundancy"))
                break
    report.pearson_matrix = corr
    report.pearson_features = fnames

    pos_of = {j: p for p, j in enumerate(feat)}
    keep2 = [
        j
        for j in range(len(specs))
        if j == tgt or pos_of[j] not in dropped_pos
    ]
    cleaned = WellTable(tuple(specs[j] for j in keep2), vals[:, keep2])
    return cleaned, report


# --- synthetic desk-scale data -------------------------------------------

DEFAULT_SCHEMA = (
    FactorSpec("formation depth", "m", "geologic"),
    FactorSpec("TOC", "%", "geologic"),
    FactorSpec("porosity", "%", "geologic"),
    FactorSpec("hydrocarbon saturation", "%", "geologic"),
    FactorSpec("tectonic curvature", "-", "geologic"),
    FactorSpec("formation pressure coefficient", "-", "geologic"),
    FactorSpec("breakdown pressure", "MPa", "geologic"),
    FactorSpec("target layer penetration", "%", "drilling", optimizable=True),
    FactorSpec("angle to Hmin", "deg", "drilling", optimizable=True),
    FactorSpec("stimulated length", "m", "completion", optimizable=True),
    FactorSpec("stage count", "-", "completion", optimizable=True),
    FactorSpec("fracturing fluid intensity", "m3/m", "completion", optimizable=True),
    FactorSpec("proppant intensity", "m3/m", "completion", optimizable=True),
    FactorSpec("EUR", "1e8 m3", "production"),
)

FACTOR_RANGES = {
    "formation depth": (2300.0, 3500.0),
    "TOC": (1.0, 6.0),
    "porosity": (3.0, 7.0),
    "hydrocarbon saturation": (5.0, 30.0),
    "tectonic curvature": (0.0, 1.0),
    "formation pressure coefficient": (0.9, 1.6),
    "breakdown pressure": (40.0, 90.0),
    "target layer penetration": (60.0, 100.0),
    "angle to Hmin": (0.0, 90.0),
    "stimulated length": (1000.0, 2100.0),
    "stage count": (12, 32),
    "fracturing fluid intensity": (15.0, 35.0),
    "proppant intensity": (0.3, 1.8),
}

# factors that only take whole values: drawn as integers, searched rounded
INTEGER_FACTORS = ("stage count",)

# Ground truth: EUR = base + saturating terms + plateau bumps + one
# pairwise synergy + noise. Saturating terms are logistic steps
# coef * sigmoid((x - knot) / width); bump terms are products of two
# opposed sigmoids sharing a width, which are log-concave with their
# maximum exactly at the knot midpoint.
GROUND_TRUTH_BASE = 1.2

# name -> (coef, knot, width)
SATURATING_TERMS = {
    "formation depth": (-1.0, 2850.0, 160.0),
    "TOC": (0.25, 2.5, 0.8),
    "porosity": (0.40, 5.0, 0.45),
    "hydrocarbon saturation": (0.55, 15.0, 3.5),
    "tectonic curvature": (0.15, 0.45, 0.15),
    "formation pressure coefficient": (0.50, 1.25, 0.12),
    "breakdown pressure": (-0.30, 70.0, 8.0),
    "target layer penetration": (0.30, 80.0, 6.0),
}

# name -> (coef, low knot, high knot, width); maximum at the midpoint
BUMP_TERMS = {
    "angle to Hmin": (0.25, 5.0, 55.0, 12.0),
    "stimulated length": (0.75, 1150.0, 1950.0, 120.0),
    "stage count": (0.45, 16.0, 34.0, 4.0),
    "fracturing fluid intensity": (0.50, 20.0, 36.0, 3.0),
    "proppant intensity": (0.35, 0.6, 1.6, 0.2),
}

# (coef, factor a, factor b): coef * sigmoid_a * sigmoid_b with the same
# knots/widths as the saturating terms of a and b
INTERACTION_TERM = (0.25, "porosity", "hydrocarbon saturation")

GROUND_TRUTH_OPTIMA = {
    name: (k1 + k2) / 2.0 for name, (_, k1, k2, _w) in BUMP_TERMS.items()
}

_FEATURE_ORDER = tuple(s.name for s in DEFAULT_SCHEMA if s.category != "production")


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-np.asarray(u, dtype=float)))


def _saturating(x, coef, knot, width):
    return coef * _sigmoid((x - knot) / width)


def _bump(x, coef, k1, k2, width):
    return coef * _sigmoid((x - k1) / width) * _sigmoid((k2 - x) / width)


def ground_truth_eur(features: np.ndarray) -> np.ndarray:
    """Noise-free EUR of the synthetic generator.

    `features` holds the 13 default factors, columns in declaration order.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != len(_FEATURE_ORDER):
        raise ValueError(f"expected {len(_FEATURE_ORDER)} feature columns")
    col = {name: x[:, j] for j, name in enumerate(_FEATURE_ORDER)}
    eur = np.full(x.shape[0], GROUND_TRUTH_BASE)
    for name, (coef, knot, width) in SATURATING_TERMS.items():
        eur = eur + _saturating(col[name], coef, knot, width)
    for name, (coef, k1, k2, width) in BUMP_TERMS.items():
        eur = eur + _bump(col[name], coef, k1, k2, width)
    coef, a, b = INTERACTION_TERM
    _, knot_a, width_a = SATURATING_TERMS[a]
    _, knot_b, width_b = SATURATING_TERMS[b]
    eur = eur + coef * _sigmoid((col[a] - knot_a) / width_a) * _sigmoid(
        (col[b] - knot_b) / width_b
    )
    return eur


def synthesize(seed: int, n: int = 120, noise_sd: float = 0.1) -> WellTable:
    """Draw a reproducible synthetic well table.

    Factors are sampled uniformly inside plausible field ranges (stage
    count is integer) and EUR comes from `ground_truth_eur` plus Gaussian
    noise of standard deviation noise_sd. parameter_problems states the
    rules on n (as `rows`) and noise_sd.
    """
    raise_first(parameter_problems(rows=n, noise_sd=noise_sd))
    rng = np.random.default_rng(int(seed))
    cols = []
    for name in _FEATURE_ORDER:
        lo, hi = FACTOR_RANGES[name]
        if name in INTEGER_FACTORS:
            cols.append(rng.integers(int(lo), int(hi) + 1, size=n).astype(float))
        else:
            cols.append(rng.uniform(lo, hi, size=n))
    x = np.column_stack(cols)
    eur = ground_truth_eur(x)
    if noise_sd > 0:
        eur = eur + noise_sd * rng.standard_normal(n)
    return WellTable(DEFAULT_SCHEMA, np.column_stack([x, eur]))
