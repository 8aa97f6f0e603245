import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welloop.data import (
    BUMP_TERMS,
    DEFAULT_SCHEMA,
    FACTOR_RANGES,
    GROUND_TRUTH_BASE,
    GROUND_TRUTH_OPTIMA,
    INTERACTION_TERM,
    SATURATING_TERMS,
    DataWarning,
    FactorSpec,
    PreprocessError,
    WellTable,
    ground_truth_eur,
    load_csv,
    load_schema,
    pearson_matrix,
    preprocess,
    save_schema,
    synthesize,
    write_csv,
)


def make_table(columns, n_features=None):
    """Small table with features f0..fk and target y from a dict of
    column arrays."""
    names = [k for k in columns if k != "y"]
    specs = [FactorSpec(k, "-", "geologic") for k in names]
    specs.append(FactorSpec("y", "1e8 m3", "production"))
    vals = np.column_stack([np.asarray(columns[k], dtype=float) for k in names + ["y"]])
    return WellTable(tuple(specs), vals)


# --- table and schema ------------------------------------------------------------


def test_table_requires_exactly_one_production_column():
    specs = (FactorSpec("a", "-", "geologic"), FactorSpec("b", "-", "geologic"))
    with pytest.raises(ValueError):
        WellTable(specs, np.zeros((3, 2)))


def test_table_rejects_duplicate_names_and_bad_arity():
    specs = (
        FactorSpec("a", "-", "geologic"),
        FactorSpec("a", "-", "geologic"),
        FactorSpec("y", "-", "production"),
    )
    with pytest.raises(ValueError):
        WellTable(specs, np.zeros((3, 3)))
    good = (FactorSpec("a", "-", "geologic"), FactorSpec("y", "-", "production"))
    with pytest.raises(ValueError):
        WellTable(good, np.zeros((3, 5)))


def test_table_values_are_read_only():
    t = make_table({"f0": [1.0, 2.0], "y": [0.0, 1.0]})
    with pytest.raises(ValueError):
        t.values[0, 0] = 9.0


def test_factor_spec_rejects_unknown_category():
    with pytest.raises(ValueError):
        FactorSpec("a", "-", "quantum")


def test_csv_round_trip_preserves_values_and_missing_cells(tmp_path):
    t = make_table({"f0": [1.5, np.nan, 3.25], "y": [0.1, 0.2, np.nan]})
    path = tmp_path / "t.csv"
    write_csv(t, path)
    back = load_csv(path, t.specs)
    assert back.names == t.names
    assert np.array_equal(back.values, t.values, equal_nan=True)


def test_csv_cells_are_the_shortest_repr_of_each_float(tmp_path):
    t = make_table(
        {
            "f0": [np.nan, -0.0, 3.0, 5e-324, 1.7976931348623157e308],
            "y": [1e-7, 2.5, 1e16, -12.0, 0.1],
        }
    )
    path = tmp_path / "t.csv"
    write_csv(t, path)
    assert path.read_bytes() == (
        b"f0,y\r\n,1e-07\r\n-0.0,2.5\r\n3.0,1e+16\r\n5e-324,-12.0\r\n"
        b"1.7976931348623157e+308,0.1\r\n"
    )


def test_load_csv_reads_past_a_byte_order_mark(tmp_path):
    """A BOM used to stick to the first header name, so that column was
    reported missing."""
    t = synthesize(1, n=20)
    path = tmp_path / "t.csv"
    write_csv(t, path)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_csv(marked, t.specs)
    assert back.names == t.names
    assert np.array_equal(back.values, load_csv(path, t.specs).values, equal_nan=True)


def test_load_csv_accepts_header_superset_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("extra,y,f0\n9,0.5,1.0\n8,0.25,2.0\n", encoding="utf-8")
    t = make_table({"f0": [0.0], "y": [0.0]})
    back = load_csv(path, t.specs)
    assert back.column("f0").tolist() == [1.0, 2.0]
    assert back.column("y").tolist() == [0.5, 0.25]


def test_load_csv_warns_and_skips_malformed_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,y\n1.0,0.5\nnot-a-number,0.1\n2.0,0.25\n", encoding="utf-8")
    t = make_table({"f0": [0.0], "y": [0.0]})
    with pytest.warns(DataWarning, match="1"):
        back = load_csv(path, t.specs)
    assert back.n_rows == 2
    assert back.column("f0").tolist() == [1.0, 2.0]


def test_load_csv_rejects_infinite_cells_and_reads_nan_as_missing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "f0,y\n1.0,0.5\ninf,0.1\n-Infinity,0.2\n1e999,0.3\nnan,0.4\n,0.45\n2.0,0.25\n",
        encoding="utf-8",
    )
    t = make_table({"f0": [0.0], "y": [0.0]})
    with pytest.warns(DataWarning) as record:
        back = load_csv(path, t.specs)
    assert [str(w.message) for w in record] == [
        "row 1 rejected: infinite numeric 'inf'",
        "row 2 rejected: infinite numeric '-Infinity'",
        "row 3 rejected: infinite numeric '1e999'",
    ]
    assert np.array_equal(back.column("f0"), [1.0, np.nan, np.nan, 2.0], equal_nan=True)
    assert back.column("y").tolist() == [0.5, 0.4, 0.45, 0.25]


def test_load_csv_requires_all_named_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0\n1.0\n", encoding="utf-8")
    t = make_table({"f0": [0.0], "y": [0.0]})
    with pytest.raises(ValueError):
        load_csv(path, t.specs)


def test_load_csv_refuses_a_schema_column_named_twice(tmp_path):
    """The first copy used to be read and the second ignored."""
    path = tmp_path / "t.csv"
    path.write_text("f0,f0,y\n1.0,2.0,0.5\n", encoding="utf-8")
    t = make_table({"f0": [0.0], "y": [0.0]})
    with pytest.raises(ValueError, match=r"named more than once in header: \['f0'\]"):
        load_csv(path, t.specs)
    # a repeated column the schema does not name is passed over
    path.write_text("extra,f0,extra,y\n9,1.0,8,0.5\n", encoding="utf-8")
    assert load_csv(path, t.specs).column("f0").tolist() == [1.0]


def test_schema_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(DEFAULT_SCHEMA, path)
    back = load_schema(path)
    assert back == DEFAULT_SCHEMA


def test_schema_warns_on_unknown_unit(tmp_path):
    path = tmp_path / "schema.json"
    save_schema((FactorSpec("a", "furlongs", "geologic"),
                 FactorSpec("y", "-", "production")), path)
    with pytest.warns(DataWarning, match="furlongs"):
        load_schema(path)


@pytest.mark.parametrize(
    "entries, problem",
    [
        ({}, r"schema.json: expected a list of factors, got dict"),
        ([1], r"schema.json\[0\]: expected object, got int"),
        ([{"unit": "m", "category": "geologic"}], r"\[0\]: missing key 'name'"),
        ([{"name": "a", "unit": 3, "category": "geologic"}], r"\[0\].unit: expected string"),
        (
            [{"name": "y", "unit": "-", "category": "production"}, {"name": "a", "unit": "m"}],
            r"\[1\]: missing key 'category'",
        ),
        ([{"name": "a", "unit": "m", "category": None}], r"category: expected string, got NoneType"),
        (
            [{"name": "a", "unit": "m", "category": "completion", "optimizable": "false"}],
            r"\[0\].optimizable: expected boolean, got str",
        ),
        (
            [{"name": "a", "unit": "m", "category": "geologic"}] * 2
            + [{"name": "y", "unit": "-", "category": "production"}],
            "schema.json: duplicate factor names",
        ),
        (
            [{"name": n, "unit": "-", "category": "production"} for n in ("y", "z")],
            "schema.json: need exactly one production factor, got 2",
        ),
    ],
)
def test_malformed_schema_names_its_problem(tmp_path, entries, problem):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(ValueError, match=problem):
        load_schema(path)


# --- pearson matrix ---------------------------------------------------------------


def test_pearson_matches_numpy_on_random_data(rng):
    x = rng.normal(size=(30, 5))
    got = pearson_matrix(x)
    want = np.corrcoef(x, rowvar=False)
    assert np.allclose(got, want, atol=1e-12)
    assert np.array_equal(got, got.T)
    assert np.allclose(np.diag(got), 1.0)


def test_pearson_zero_variance_column_gets_zero_correlation():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    got = pearson_matrix(x)
    assert got[0, 1] == 0.0 and got[1, 0] == 0.0
    assert got[0, 0] == 1.0


def test_pearson_values_stay_in_unit_interval(rng):
    for _ in range(20):
        x = rng.normal(size=(8, 4))
        x[:, 2] = 3.0 * x[:, 1]  # exact linear dependence
        got = pearson_matrix(x)
        assert np.all(np.abs(got) <= 1.0)
        assert got[1, 2] == pytest.approx(1.0, abs=1e-12)


# --- preprocess -------------------------------------------------------------------


def test_preprocess_drops_features_above_missing_ratio_only():
    n = 10
    a = np.zeros(n)
    a[:3] = np.nan  # 30% missing: dropped at 0.2
    b = np.arange(n, dtype=float)
    b[:2] = np.nan  # exactly 20% missing: kept (threshold is strict)
    t = make_table({"f_a": a, "f_b": b, "y": np.linspace(1, 2, n)})
    clean, report = preprocess(t)
    assert ("f_a", "missing-ratio") in report.dropped_features
    assert "f_a" not in clean.names
    assert "f_b" in clean.names
    # the two rows left missing in f_b then drop as rows
    rows = {r for r, reason in report.dropped_rows if reason == "missing-value"}
    assert rows == {0, 1}


def test_preprocess_row_drop_reasons_distinguish_target():
    y = np.linspace(1, 2, 8)
    y[3] = np.nan
    f = np.arange(8, dtype=float)
    f[5] = np.nan
    t = make_table({"f0": f, "y": y})
    clean, report = preprocess(t)
    reasons = dict(report.dropped_rows)
    assert reasons[3] == "missing-target"
    assert reasons[5] == "missing-value"
    assert clean.n_rows == 6


def test_preprocess_outlier_rule_drops_extreme_row_and_stops():
    n = 25
    f = np.zeros(n)
    f[-1] = 1e6  # z = 4.9 under the full sample, gone after one pass
    spread = np.linspace(0.0, 1.0, n)  # keeps a non-degenerate column around
    t = make_table({"f0": f, "f1": spread, "y": np.linspace(1, 2, n)})
    clean, report = preprocess(t)
    assert (n - 1, "outlier") in report.dropped_rows
    assert clean.n_rows == n - 1
    assert sum(1 for _, r in report.dropped_rows if r == "outlier") == 1


def test_preprocess_outlier_iteration_reaches_fixed_point():
    # 1e6 masks 1e3 in pass one; pass two must catch 1e3 as well.
    n = 40
    f = np.concatenate([np.linspace(0, 1, n - 2), [1e3, 1e6]])
    t = make_table({"f0": f, "y": np.linspace(1, 2, n)})
    clean, report = preprocess(t)
    outliers = {r for r, reason in report.dropped_rows if reason == "outlier"}
    assert outliers == {n - 2, n - 1}


def test_preprocess_is_idempotent_on_its_own_output(rng):
    for _ in range(10):
        n = 30
        f0 = rng.normal(size=n)
        f0[rng.integers(n)] *= 50.0
        t = make_table({"f0": f0, "f1": rng.normal(size=n), "y": rng.normal(size=n)})
        clean, _ = preprocess(t)
        again, report2 = preprocess(clean)
        assert np.array_equal(again.values, clean.values)
        assert report2.dropped_rows == []
        assert report2.dropped_features == []


def test_preprocess_redundancy_drops_later_feature():
    n = 12
    a = np.linspace(0, 1, n)
    t = make_table({"f_a": a, "f_b": 2.0 * a + 1.0, "f_c": np.sin(np.arange(n)), "y": np.ones(n)})
    clean, report = preprocess(t)
    assert ("f_b", "redundancy") in report.dropped_features
    assert "f_a" in clean.names and "f_c" in clean.names
    # the matrix that justified the drop still covers the dropped feature
    assert report.pearson_features == ("f_a", "f_b", "f_c")
    i, j = 0, 1
    assert abs(report.pearson_matrix[i, j]) >= 0.9


def test_preprocess_errors_on_empty_or_single_row():
    t2 = make_table({"f0": [1.0, 2.0], "y": [np.nan, np.nan]})
    with pytest.raises(PreprocessError):
        preprocess(t2)
    # f0 stays (20% missing), rows then collapse to a single survivor
    t3 = make_table(
        {"f0": [1.0, 2.0, 3.0, 4.0, np.nan], "y": [np.nan, np.nan, np.nan, 1.0, 2.0]}
    )
    with pytest.raises(PreprocessError):
        preprocess(t3)


def test_preprocess_report_reconciles_dimensions(rng):
    t = synthesize(seed=9, n=40)
    vals = np.array(t.values)
    vals[3, 0] = np.nan
    vals[7, -1] = np.nan
    vals[5, 2] = 1e9
    t = WellTable(t.specs, vals)
    clean, report = preprocess(t)
    assert clean.n_rows + len(report.dropped_rows) == t.n_rows
    assert len(clean.names) + len(report.dropped_features) == len(t.names)


# --- synthetic data -------------------------------------------------------------------


def test_synthesize_is_deterministic_and_in_range():
    a = synthesize(seed=5, n=30)
    b = synthesize(seed=5, n=30)
    assert np.array_equal(a.values, b.values)
    c = synthesize(seed=6, n=30)
    assert not np.array_equal(a.values, c.values)
    for name, (lo, hi) in FACTOR_RANGES.items():
        col = a.column(name)
        assert np.all(col >= lo) and np.all(col <= hi)
    stages = a.column("stage count")
    assert np.array_equal(stages, np.round(stages))


def test_synthesize_noise_free_target_equals_ground_truth():
    t = synthesize(seed=2, n=25, noise_sd=0.0)
    want = ground_truth_eur(t.feature_matrix())
    assert np.array_equal(t.target(), want)


def test_synthesize_rejects_tiny_tables():
    with pytest.raises(ValueError):
        synthesize(seed=0, n=10)


def test_ground_truth_matches_hand_computed_value_at_knots():
    # With every saturating factor at its knot each logistic is exactly
    # 1/2; bumps at their midpoints give sig(d/w)^2; the synergy term is
    # 1/4 of its coefficient.
    def sig(u):
        return 1.0 / (1.0 + math.exp(-u))

    point = {}
    expected = GROUND_TRUTH_BASE
    for name, (coef, knot, _w) in SATURATING_TERMS.items():
        point[name] = knot
        expected += coef * 0.5
    for name, (coef, k1, k2, width) in BUMP_TERMS.items():
        mid = (k1 + k2) / 2.0
        point[name] = mid
        expected += coef * sig((mid - k1) / width) * sig((k2 - mid) / width)
    expected += INTERACTION_TERM[0] * 0.25

    order = [s.name for s in DEFAULT_SCHEMA if s.category != "production"]
    x = np.array([[point[name] for name in order]])
    assert ground_truth_eur(x)[0] == pytest.approx(expected, abs=1e-12)


def test_ground_truth_optima_are_bump_midpoints():
    assert GROUND_TRUTH_OPTIMA == {
        "angle to Hmin": 30.0,
        "stimulated length": 1550.0,
        "stage count": 25.0,
        "fracturing fluid intensity": 28.0,
        "proppant intensity": 1.1,
    }


@given(st.sampled_from(sorted(BUMP_TERMS)), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_ground_truth_peaks_exactly_at_each_midpoint(name, frac):
    order = [s.name for s in DEFAULT_SCHEMA if s.category != "production"]
    base_point = {
        f: (FACTOR_RANGES[f][0] + FACTOR_RANGES[f][1]) / 2.0 for f in order
    }
    lo, hi = FACTOR_RANGES[name]
    probe = lo + frac * (hi - lo)
    best = GROUND_TRUTH_OPTIMA[name]

    def value(v):
        p = dict(base_point)
        p[name] = v
        return ground_truth_eur(np.array([[p[f] for f in order]]))[0]

    if probe != best:
        assert value(best) > value(probe)


def test_ground_truth_validates_column_count():
    with pytest.raises(ValueError):
        ground_truth_eur(np.zeros((2, 5)))


def test_the_preprocess_report_has_exactly_its_keys():
    _, report = preprocess(synthesize(seed=9, n=40))
    assert sorted(report.to_json()) == [
        "dropped_features",
        "dropped_rows",
        "pearson_features",
        "pearson_matrix",
    ]
