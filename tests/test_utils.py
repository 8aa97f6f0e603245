import ast
import csv
import io
import json
import os
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import welloop
from welloop.utils import (
    is_number,
    kfold_assignments,
    mix_seed,
    read_json,
    subseed_rng,
    typed,
    write_json,
    write_table,
)


@pytest.mark.parametrize(
    "value, kind, ok",
    [
        (True, "boolean", True),
        (False, "boolean", True),
        ("false", "boolean", False),
        (0, "boolean", False),
        (None, "boolean", False),
        (True, "integer", False),
        (False, "number", False),
        (1, "integer", True),
    ],
)
def test_typed_takes_a_bool_only_as_a_boolean(value, kind, ok):
    if ok:
        assert typed(value, kind, "f.json") is value
    else:
        with pytest.raises(ValueError, match=f"f.json.k: expected {kind}, got "):
            typed(value, kind, "f.json", "k")


def test_subseed_rng_is_deterministic_and_tag_sensitive():
    a = subseed_rng(7, 11, 0).random(4)
    b = subseed_rng(7, 11, 0).random(4)
    c = subseed_rng(7, 11, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_subseed_rng_rejects_negative_tags():
    with pytest.raises(ValueError):
        subseed_rng(-1)
    with pytest.raises(ValueError):
        subseed_rng(3, -2)


def test_mix_seed_stable_and_nonnegative():
    assert mix_seed(5, 1, 2) == mix_seed(5, 1, 2)
    assert mix_seed(5, 1, 2) != mix_seed(5, 2, 1)
    assert mix_seed(5, 1, 2) >= 0


@given(n=st.integers(4, 60), k=st.integers(2, 6), seed=st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_kfold_assigns_every_row_to_one_balanced_fold(n, k, seed):
    if n < k:
        return
    fold = kfold_assignments(n, k, subseed_rng(seed))
    assert fold.shape == (n,)
    sizes = np.bincount(fold, minlength=k)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert set(np.unique(fold)) == set(range(k))


def test_kfold_is_deterministic():
    a = kfold_assignments(17, 4, subseed_rng(3))
    b = kfold_assignments(17, 4, subseed_rng(3))
    assert np.array_equal(a, b)


def test_kfold_validates_arguments():
    with pytest.raises(ValueError):
        kfold_assignments(5, 1, subseed_rng(0))
    with pytest.raises(ValueError):
        kfold_assignments(3, 4, subseed_rng(0))


# --- artifact files -------------------------------------------------------------------


def _float_cells(tmp_path, values):
    write_table(tmp_path / "f.csv", ["x"], [[np.array(values, dtype=float)]])
    with open(tmp_path / "f.csv", newline="", encoding="utf-8") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_a_float_column_round_trips_floats_exactly(tmp_path_factory, values):
    cells = _float_cells(tmp_path_factory.mktemp("floats"), values)
    assert [float(c) for c in cells] == values
    assert [c.startswith("-") for c in cells] == [np.signbit(v) for v in values]


def test_a_float_column_is_compact_for_integral_values(tmp_path):
    assert _float_cells(tmp_path, [2.0, 0.1, -0.0, 5e-324, 1.7e308]) == [
        "2.0", "0.1", "-0.0", "5e-324", "1.7e+308"
    ]


_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "\t", "'"]), max_size=4)
_FLOAT = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1.7e308, float("nan"), float("inf")])
)
_KINDS = {
    "text": (_TEXT, list, lambda v: v),
    "float": (_FLOAT, lambda vs: np.array(vs, dtype=float), lambda v: "" if v != v else repr(v)),
    "int": (
        st.integers(-(2**63), 2**63 - 1),
        lambda vs: np.array(vs, dtype=np.int64),
        str,
    ),
}


@st.composite
def _tables(draw):
    """(header, columns of one kind each as write_table takes them, the
    rows as csv.writer would be given them, block cut points, cells the
    writer formats at a time)."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4))
    n = draw(st.integers(0, 8))
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    columns, cells = [], []
    for kind in kinds:
        values = draw(st.lists(_KINDS[kind][0], min_size=n, max_size=n))
        columns.append(_KINDS[kind][1](values))
        cells.append([_KINDS[kind][2](v) for v in values])
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return header, columns, list(zip(*cells)), cuts, draw(st.integers(1, 100))


@given(_tables())
@settings(max_examples=300, deadline=None)
def test_the_block_writer_writes_csv_writers_bytes(tmp_path_factory, table):
    header, columns, rows, cuts, block_cells = table
    bounds = [0, *cuts, len(rows)]
    blocks = [[c[a:b] for c in columns] for a, b in zip(bounds, bounds[1:])]
    path = tmp_path_factory.mktemp("blocks") / "t.csv"
    with mock.patch.object(welloop.utils, "_BLOCK_CELLS", block_cells):
        write_table(path, header, blocks)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_a_block_is_formatted_about_block_cells_at_a_time(tmp_path, monkeypatch):
    """No table is held whole as strings."""
    columns = [np.arange(10), ["a"] * 10, np.linspace(0.0, 1.0, 10)]
    write_table(tmp_path / "whole.csv", ["n", "t", "x"], [columns])
    formatted = []
    cells = welloop.utils._cells
    monkeypatch.setattr(welloop.utils, "_cells", lambda c: formatted.append(len(c)) or cells(c))
    monkeypatch.setattr(welloop.utils, "_BLOCK_CELLS", 8 * 7)
    write_table(tmp_path / "cut.csv", ["n", "t", "x"], [columns])
    assert formatted == [2] * 15
    assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "block, match",
    [
        ([np.arange(3), ["x", "y"]], r"t.csv: columns of lengths \[3, 2\] under 2 names"),
        ([["x", "y"], np.arange(3)], r"t.csv: columns of lengths \[2, 3\] under 2 names"),
        ([np.arange(2)], r"t.csv: columns of lengths \[2\] under 2 names"),
    ],
)
def test_a_block_that_does_not_fit_its_header_leaves_the_old_file_whole(tmp_path, block, match):
    """zip would cut every column to the shortest without a word."""
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[np.arange(2), ["x", "y"]]])
    old = path.read_bytes()
    with pytest.raises(ValueError, match=match):
        write_table(path, ["a", "b"], [block])
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_written_files_follow_the_on_disk_conventions(tmp_path):
    blocks = iter([[np.array([1]), ["x,y"]], [np.array([2]), [""]]])
    write_table(tmp_path / "t.csv", ["a", "b"], blocks)
    assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n2,\r\n'
    write_json(tmp_path / "p.json", {"b": [1], "a": "é"})
    assert (tmp_path / "p.json").read_bytes() == '{\n  "a": "\\u00e9",\n  "b": [\n    1\n  ]\n}\n'.encode()
    write_json(tmp_path / "c.json", {"b": 1, "a": None}, indent=None)
    assert (tmp_path / "c.json").read_bytes() == b'{"a": null, "b": 1}\n'
    assert read_json(tmp_path / "p.json") == {"a": "é", "b": [1]}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "p.json", "t.csv"]


def test_written_files_get_the_mode_a_plain_open_gives(tmp_path):
    with open(tmp_path / "plain", "w", encoding="utf-8") as fh:
        fh.write("x")
    write_json(tmp_path / "j.json", [])
    write_table(tmp_path / "r.csv", ["a"], [])
    mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert stat.S_IMODE(os.stat(tmp_path / "j.json").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "r.csv").st_mode) == mode


def test_rows_that_raise_halfway_leave_the_old_file_whole(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["n"], [[np.arange(3)]])
    old = path.read_bytes()

    def blocks():
        for start in range(0, 100_000, 1000):
            if start == 50_000:
                raise RuntimeError("row builder failed")
            yield [np.arange(start, start + 1000), ["padding" * 4] * 1000]

    with pytest.raises(RuntimeError, match="row builder failed"):
        write_table(path, ["n", "pad"], blocks())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_a_value_json_cannot_encode_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "v.json"
    write_json(path, {"ok": 1})
    with pytest.raises(TypeError):
        write_json(path, {"bad": object()})
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(ValueError, match="v.json: nested deeper"):
        write_json(path, deep)
    with pytest.raises(ValueError, match="v.json: nested deeper"):
        write_json(path, deep, indent=None)
    assert read_json(path) == {"ok": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["v.json"]


def test_a_number_is_finite_and_may_be_a_numpy_scalar():
    """Search bounds and sweep ends given from Python may be numpy
    scalars; a bool and anything past the largest float are not numbers."""
    for value in (0, -3, 1.5, 10**300, np.float64(2.0), np.float32(1.5), np.int64(-2**63)):
        assert is_number(value)
    for value in (True, np.bool_(True), float("nan"), np.float64("inf"), 10**400, "1", None):
        assert not is_number(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("indent", [2, None])
def test_a_non_finite_number_is_never_written_as_json(tmp_path, value, indent):
    """json.dumps would write NaN or Infinity, which strict JSON has no
    token for; the old file stays as it was."""
    path = tmp_path / "v.json"
    write_json(path, {"ok": 1})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"grid": [0.0, value]}, indent=indent)
    assert path.read_text(encoding="utf-8") == '{\n  "ok": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["v.json"]


def test_read_json_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xef\xbb\xbf" + b'{"seed": 1}')
    assert read_json(path) == {"seed": 1}


def test_read_json_names_the_file_nested_too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError, match="deep.json: nested deeper"):
        read_json(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError, match="Expecting property name"):
        read_json(path)


def _file_writes(tree):
    """(line, what) for every place in a module's AST that writes a file:
    open(path, mode) or path.open(mode) with a write or computed mode,
    .write_text/.write_bytes, and json.dump or csv.writer/DictWriter,
    called or imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
            for alias in node.names:
                if alias.name in ("dump", "writer", "DictWriter"):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(getattr(func, "value", None), ast.Name) else None
        if name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[1 if isinstance(func, ast.Name) else 0 :][:1]
            for mode in modes:
                if not isinstance(mode, ast.Constant) or set("wax+") & set(str(mode.value)):
                    found.append((node.lineno, f"open with mode {ast.unparse(mode)}"))
        elif name in ("write_text", "write_bytes"):
            found.append((node.lineno, f".{name}()"))
        elif (owner, name) in (("json", "dump"), ("csv", "writer"), ("csv", "DictWriter")):
            found.append((node.lineno, f"{owner}.{name}()"))
    return found


def test_only_utils_writes_files():
    package = Path(welloop.__file__).parent
    writes = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "utils.py":
            found = _file_writes(ast.parse(path.read_text(encoding="utf-8")))
            if found:
                writes[path.name] = found
    assert writes == {}
    # the scan itself sees every form it looks for
    probe = ast.parse(
        "open(p, 'w')\nopen(p, mode='a')\nq.open('wb')\nopen(p, m)\nopen(p)\n"
        "q.write_text(t)\njson.dump(o, fh)\ncsv.writer(fh)\nfrom json import dump\n"
    )
    assert sorted(line for line, _ in _file_writes(probe)) == [1, 2, 3, 4, 6, 7, 8, 9]


def test_the_package_exports_exactly_its_public_names():
    assert sorted(welloop.__all__) == sorted(
        [
            "AttributionMatrix", "BoundedVariable", "CoalitionalGame", "DEFAULT_SCHEMA",
            "FactorSpec", "HyperParams", "IceGrid", "InteractionTensor",
            "ModelIntegrityError", "PreprocessError", "PreprocessReport", "SearchProblem",
            "StackedModel", "SurrogateError", "Trace", "TreeEnsemble", "TreeNode",
            "VariedFactor", "WellOptimization", "WellTable", "baseline_correlations",
            "bayes_opt", "de", "evaluate", "explain_well", "fit_gbdt", "fit_rf",
            "fit_stacked", "fit_tree", "fit_xgb", "ground_truth_eur", "ice", "load_csv",
            "load_schema", "optimize_well", "pearson_matrix", "predict", "preprocess",
            "pso", "rank_factors", "shap_interactions", "shapley_exact",
            "supervised_cluster", "synthesize", "tree_expectation", "tree_game",
            "tree_shap", "tune_random_search",
        ]
    )
    namespace = {}
    exec("from welloop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(welloop.__all__)
