import csv
import io
import sys

import numpy as np
import pytest

import welloop.trees
from welloop.data import FactorSpec, WellTable, ground_truth_eur, synthesize
from welloop.ice import VariedFactor, ice, job_problems
from welloop.stack import fit_stacked
from welloop.trees import HyperParams, fit_gbdt, predict


def make_table(columns):
    names = [k for k in columns if k != "y"]
    specs = [FactorSpec(k, "-", "geologic") for k in names]
    specs.append(FactorSpec("y", "1e8 m3", "production"))
    vals = np.column_stack(
        [np.asarray(columns[k], dtype=float) for k in names + ["y"]]
    )
    return WellTable(tuple(specs), vals)


def linear_model(x):
    # 2*a + 3*b - c, written against the fixture's column order
    return 2.0 * x[:, 0] + 3.0 * x[:, 1] - x[:, 2]


@pytest.fixture
def table(rng):
    return make_table(
        {
            "a": rng.uniform(0, 10, size=12),
            "b": rng.uniform(-5, 5, size=12),
            "c": rng.uniform(1, 2, size=12),
            "y": rng.normal(size=12),
        }
    )


def test_varied_factor_grid_and_validation(table):
    """The checks run when the grid is resolved against a table, or, for
    those that need none, when ice() is called; a factor with bad
    settings still constructs."""
    v = VariedFactor("a", 0.0, 1.0, steps=5)
    assert np.allclose(v.grid(table), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError, match="lower must be < upper for 'a'"):
        VariedFactor("a", 1.0, 0.0).grid(table)
    for lower, upper in [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="lower and upper must be finite numbers for 'a'"):
            VariedFactor("a", lower, upper).grid(table)
    for steps in (1, 0, -3):
        with pytest.raises(ValueError, match="steps must be >= 2 for 'a'"):
            ice(linear_model, table, [VariedFactor("a", 0.0, 1.0, steps=steps)])


def test_a_sweep_whose_span_overflows_is_refused(table):
    """Both ends finite but upper - lower past the largest float used to
    sweep NaN and ±Infinity into the grid and its files."""
    wide = VariedFactor("a", -1.7e308, 1.7e308, steps=3)
    problem = "upper - lower overflows a float for 'a'"
    assert job_problems([wide], None, None) == [problem]
    with pytest.raises(ValueError, match=problem):
        ice(linear_model, table, [wide])
    with pytest.raises(ValueError, match=problem):
        wide.grid(table)
    # a resolved end is held to the same rule
    with pytest.raises(ValueError, match=problem):
        VariedFactor("a", lower=-1.7e308).grid(make_table({"a": [0.0, 1.7e308], "y": [1.0, 2.0]}))


def test_varied_factor_ends_default_to_the_observed_range(table):
    a = table.column("a")
    v = VariedFactor("a", steps=7)
    assert (v.lower, v.upper) == (None, None)
    grid = v.grid(table)
    assert (grid.size, grid[0], grid[-1]) == (7, a.min(), a.max())
    flat = make_table({"a": [2.0, 2.0, 2.0], "y": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="factor 'a' is constant; nothing to sweep"):
        VariedFactor("a").grid(flat)
    # a configured end replaces that end of the observed range
    grid = VariedFactor("a", lower=-1.0, steps=7).grid(table)
    assert (grid[0], grid[-1]) == (-1.0, a.max())
    assert VariedFactor("a", 0.0, 5.0, 7).grid(flat)[-1] == 5.0
    with pytest.raises(ValueError, match="lower must be < upper for 'a'"):
        VariedFactor("a", upper=1.0).grid(flat)


def test_curves_pass_through_each_anchor(table):
    """A grid point that coincides with an anchor's own factor value must
    reproduce the model's prediction for that untouched row."""
    a_vals = table.column("a")
    anchor = 3
    grid = ice(
        linear_model,
        table,
        [VariedFactor("a", a_vals[anchor] - 1.0, a_vals[anchor] + 1.0, steps=3)],
        anchor_rows=[anchor],
    )
    # middle grid value equals the anchor's own a
    direct = linear_model(table.feature_matrix()[anchor][None, :])[0]
    assert abs(grid.predictions[0, 1] - direct) <= 1e-12


def test_average_curve_is_the_pointwise_mean(table):
    grid = ice(linear_model, table, [VariedFactor("a", 0.0, 10.0, steps=9)])
    assert grid.predictions.shape == (12, 9)
    assert np.max(np.abs(grid.average - grid.predictions.mean(axis=0))) <= 1e-12


def test_an_average_a_float_cannot_hold_is_refused(table):
    """Each curve is finite, but their sum overflows; a NaN or Infinity
    in the average would reach ice_<k>.csv."""
    with pytest.raises(ValueError, match="the average ICE curve is not finite"):
        ice(lambda x: x.sum(axis=1), table, [VariedFactor("a", -1.7e308, 0.0, steps=3)])


def test_swept_factor_fully_controls_a_linear_model(table):
    # with a linear model, the curve's slope in the swept factor is its
    # coefficient and anchors shift the intercept only
    grid = ice(linear_model, table, [VariedFactor("b", -5.0, 5.0, steps=11)])
    diffs = np.diff(grid.predictions, axis=1)
    assert np.allclose(diffs, 3.0 * 1.0, atol=1e-12)


def test_ignored_factor_gives_flat_curves(table):
    def without_c(x):
        return 2.0 * x[:, 0] + 3.0 * x[:, 1]

    grid = ice(without_c, table, [VariedFactor("c", 1.0, 2.0, steps=6)])
    assert np.max(np.abs(np.diff(grid.predictions, axis=1))) == 0.0


def test_two_factor_grid_shape_and_values(table):
    grid = ice(
        linear_model,
        table,
        [VariedFactor("a", 0.0, 1.0, steps=3), VariedFactor("b", 0.0, 2.0, steps=4)],
        anchor_rows=[0, 5],
    )
    assert grid.predictions.shape == (2, 3, 4)
    assert grid.average.shape == (3, 4)
    c0 = table.column("c")[0]
    # grid point (a=1, b=2) for anchor 0
    assert grid.predictions[0, 2, 3] == pytest.approx(
        2.0 * 1.0 + 3.0 * 2.0 - c0, abs=1e-12
    )


def test_three_factor_grid_shape(table):
    grid = ice(
        linear_model,
        table,
        [
            VariedFactor("a", 0.0, 1.0, steps=2),
            VariedFactor("b", 0.0, 1.0, steps=3),
            VariedFactor("c", 1.0, 2.0, steps=2),
        ],
        anchor_rows=[1],
    )
    assert grid.predictions.shape == (1, 2, 3, 2)
    assert grid.average.shape == (2, 3, 2)


def test_ice_validates_factor_lists(table):
    with pytest.raises(ValueError, match="1 to 3"):
        ice(linear_model, table, [])
    four = [VariedFactor(n, 0.0, 1.0) for n in ("a", "b", "c")] + [
        VariedFactor("d", 0.0, 1.0)
    ]
    with pytest.raises(ValueError, match="1 to 3"):
        ice(linear_model, table, four)
    dup = [VariedFactor("a", 0.0, 1.0), VariedFactor("a", 2.0, 3.0)]
    with pytest.raises(ValueError, match="distinct"):
        ice(linear_model, table, dup)
    with pytest.raises(ValueError, match="no feature"):
        ice(linear_model, table, [VariedFactor("zz", 0.0, 1.0)])
    with pytest.raises(ValueError, match="production|no feature"):
        ice(linear_model, table, [VariedFactor("y", 0.0, 1.0)])


def test_ice_validates_anchors_and_sampling(table):
    v = [VariedFactor("a", 0.0, 1.0, steps=2)]
    with pytest.raises(ValueError, match="need at least one anchor row"):
        ice(linear_model, table, v, anchor_rows=[])
    with pytest.raises(ValueError):
        ice(linear_model, table, v, anchor_rows=[50])
    with pytest.raises(ValueError):
        ice(linear_model, table, v, sample=0)
    with pytest.raises(ValueError):
        ice(linear_model, table, v, sample=13)
    with pytest.raises(TypeError):
        ice(object(), table, v)


def test_ice_refuses_anchor_rows_that_are_not_integers(table):
    """[1.7] was read as row 1, and [True, False] as rows 1 and 0."""
    v = [VariedFactor("a", 0.0, 1.0, steps=2)]
    for rows in ([1.7], [True, False], [0, 2.0], [np.float64(1.0)]):
        with pytest.raises(ValueError, match="is not an integer"):
            ice(linear_model, table, v, anchor_rows=rows)
    grid = ice(linear_model, table, v, anchor_rows=[np.int64(1), 2])
    assert grid.anchor_rows.tolist() == [1, 2]


def test_ice_refuses_anchors_and_a_sample_together(table):
    """The sample used to be ignored when anchors were given."""
    v = [VariedFactor("a", 0.0, 1.0, steps=2)]
    with pytest.raises(ValueError, match="give anchors or sample, not both"):
        ice(linear_model, table, v, anchor_rows=[0, 1], sample=5)


def test_sampled_anchors_are_seeded_and_sorted(table):
    v = [VariedFactor("a", 0.0, 1.0, steps=2)]
    g1 = ice(linear_model, table, v, sample=5, seed=3)
    g2 = ice(linear_model, table, v, sample=5, seed=3)
    g3 = ice(linear_model, table, v, sample=5, seed=4)
    assert np.array_equal(g1.anchor_rows, g2.anchor_rows)
    assert np.all(np.diff(g1.anchor_rows) > 0)
    assert len(set(g1.anchor_rows)) == 5
    assert not np.array_equal(g1.anchor_rows, g3.anchor_rows)


def test_model_table_column_mismatch_is_rejected(table, rng):
    x = rng.normal(size=(20, 2))
    y = x[:, 0] + rng.normal(size=20)
    model = fit_gbdt(x, y, HyperParams(n_trees=3), feature_names=("p", "q"))
    with pytest.raises(ValueError, match="disagree"):
        ice(model, table, [VariedFactor("a", 0.0, 1.0)])


def test_missing_values_are_rejected():
    table = make_table({"a": [1.0, np.nan], "y": [1.0, 2.0]})
    with pytest.raises(ValueError, match="missing"):
        ice(linear_model, table, [VariedFactor("a", 0.0, 1.0)])


# --- which path a model takes ----------------------------------------------------


def test_a_model_with_terms_skips_predict_and_a_callable_is_called_per_point(
    table, monkeypatch
):
    hp = HyperParams(n_trees=4, max_depth=2)
    model = fit_stacked(
        table.feature_matrix(),
        table.target(),
        {"RF": hp, "GBDT": hp},
        k=3,
        seed=1,
        feature_names=table.feature_names,
    )
    varied = [VariedFactor("a", 0.0, 10.0, steps=3), VariedFactor("b", -5.0, 5.0, steps=2)]
    calls = []

    def by_point(x):
        calls.append(x.shape[0])
        return predict(model, x)

    want = ice(by_point, table, varied, anchor_rows=[0, 4, 9])
    assert calls == [3] * 6

    def refuse(*args, **kwargs):
        raise AssertionError("ICE called trees.predict")

    monkeypatch.setattr(welloop.trees, "predict", refuse)
    got = ice(model, table, varied, anchor_rows=[0, 4, 9])
    assert np.array_equal(got.predictions, want.predictions)
    assert np.array_equal(got.average, want.average)


# --- CSV --------------------------------------------------------------------------


def test_csv_round_trip(tmp_path, table):
    grid = ice(
        linear_model,
        table,
        [VariedFactor("a", 0.0, 1.0, steps=3)],
        anchor_rows=[2, 7],
    )
    path = tmp_path / "ice.csv"
    grid.write_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "a", "prediction"]
    assert len(rows) == 1 + 3 * 2 + 3
    anchors = [r[0] for r in rows[1:]]
    assert anchors == ["2", "2", "2", "7", "7", "7", "AVERAGE", "AVERAGE", "AVERAGE"]
    for k, r in enumerate(rows[7:]):
        assert float(r[1]) == grid.grids[0][k]
        assert float(r[2]) == pytest.approx(grid.average[k], abs=1e-12)
    meta_path = tmp_path / "ice.meta.json"
    grid.write_meta(meta_path)
    import json

    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["factor_names"] == ["a"]
    assert meta["anchor_rows"] == [2, 7]


@pytest.mark.parametrize("block_cells", [1, 12, 1 << 14])
def test_csv_rows_are_the_ndindex_loops_in_any_block_size(
    tmp_path, table, monkeypatch, block_cells
):
    """One row per (anchor, grid point) in np.ndindex order, then AVERAGE,
    however many anchors a block takes."""
    grid = ice(
        linear_model,
        table,
        [VariedFactor("a", 0.0, 1.0, steps=3), VariedFactor("b", -1.0, 1.0, steps=2)],
        anchor_rows=[2, 7, 0, 5, 9],
    )
    # welloop.ice is the function welloop exports; the module is in sys.modules
    monkeypatch.setattr(sys.modules[ice.__module__], "_BLOCK_CELLS", block_cells)
    grid.write_csv(tmp_path / "ice.csv")
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["sample", "a", "b", "prediction"])
    curves = [*zip(map(int, grid.anchor_rows), grid.predictions), ("AVERAGE", grid.average)]
    for sample, values in curves:
        for c in np.ndindex(*grid.average.shape):
            point = [repr(float(g[i])) for g, i in zip(grid.grids, c)]
            writer.writerow([sample, *point, repr(float(values[c]))])
    assert (tmp_path / "ice.csv").read_bytes() == want.getvalue().encode("utf-8")


# --- behaviour on the synthetic generator --------------------------------------------


def test_saturating_factor_plateaus_on_ground_truth():
    """Past its knee, hydrocarbon saturation stops paying: the tail slope
    of the average curve is well under the climb before it."""
    table = synthesize(seed=5, n=80, noise_sd=0.0)
    grid = ice(
        ground_truth_eur,
        table,
        [VariedFactor("hydrocarbon saturation", 5.0, 40.0, 36)],
    )
    avg = grid.average
    g = grid.grids[0]
    climb = (avg[g == 15.0][0] - avg[0]) / 10.0
    tail = (avg[-1] - avg[g == 30.0][0]) / 10.0
    assert tail < 0.1 * climb
