"""Small shared helpers: seeded RNG derivation, fold assignment, the one
place files are read and written (JSON, and every CSV table through one
block writer that formats a column at a time), the typed reads every
loader applies to decoded JSON, and the number and range tests and the
raising of listed problems that input checks share."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys

import numpy as np

_BLOCK_CELLS = 1 << 14  # elements in the largest array of one block


def subseed_rng(seed: int, *tags: int) -> np.random.Generator:
    """Derive an independent generator from a base seed and integer tags.

    Every stochastic stage draws from its own stream so that stages stay
    reproducible independently of each other.
    """
    entropy = [int(seed)] + [int(t) for t in tags]
    if any(e < 0 for e in entropy):
        raise ValueError("seeds and tags must be non-negative")
    return np.random.default_rng(entropy)


def mix_seed(seed: int, *tags: int) -> int:
    """Collapse (seed, tags) into a single non-negative integer seed."""
    ss = np.random.SeedSequence([int(seed)] + [int(t) for t in tags])
    return int(ss.generate_state(1)[0])


def kfold_assignments(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each of n rows to one of k folds.

    Rows are shuffled once, then cut into contiguous blocks; the first
    n % k folds receive one extra row. Returns the fold id per row.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    order = rng.permutation(n)
    sizes = np.full(k, n // k, dtype=int)
    sizes[: n % k] += 1
    fold = np.empty(n, dtype=int)
    start = 0
    for j, size in enumerate(sizes):
        fold[order[start : start + size]] = j
        start += size
    return fold


# --- artifact files -----------------------------------------------------------------
#
# Every file is UTF-8 and written whole: into a temp file beside it, which
# then replaces it, so a killed process leaves each file old or absent,
# never truncated. There is no fsync; surviving a power cut is not a goal.


@contextlib.contextmanager
def _replacing(path):
    """A text handle whose contents replace `path` when the block ends;
    if anything raises, the temp file is removed and `path` is untouched.
    A plain open gives the umask's file mode (mkstemp would give 0600),
    and newline="" writes line ends untranslated: csv's \r\n, JSON's \n."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# A CSV table is a header row, then the rows of its blocks. A block is a
# sequence of equal-length columns; the writer formats it a slice of rows
# at a time, about _BLOCK_CELLS / 8 cells, so no table is ever held whole
# as strings. A cell's str takes about the bytes of eight float64s, so a
# slice holds about what one numeric block does; slices of _BLOCK_CELLS
# cells raised field-1k's peak RSS by 2-3 MB. Each column slice is
# formatted by its kind: a float array as the shortest round-trip repr of
# each value, NaN as an empty cell (the data tables' missing value); an
# integer array as str of each value; anything else as text, each
# distinct value quoted by the csv module's minimal rule. A slice's lines
# are joined and written at once. The bytes are csv.writer's.


def _quoted(text) -> str:
    """One cell as csv.writer writes it in a row of more than one cell."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]


def _cells(column) -> list[str]:
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        cells = list(map(repr, column.tolist()))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = ""
        return cells
    if kind in "iu":
        return list(map(str, column.tolist()))
    quoted = {text: _quoted(text) for text in set(column)}
    return list(map(quoted.__getitem__, column))


def write_table(path, header, blocks) -> None:
    """A CSV file of a header and the rows of each block in turn, the
    blocks streamed from any iterable. A block whose columns differ in
    number from the header's names, or in length, is a ValueError."""
    with _replacing(path) as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            lengths = [len(column) for column in block]
            if len(lengths) != len(header) or len(set(lengths)) > 1:
                raise ValueError(f"{path}: columns of lengths {lengths} under {len(header)} names")
            step = max(1, _BLOCK_CELLS // (8 * max(1, len(block))))
            for i in range(0, max(lengths, default=0), step):
                columns = [_cells(column[i : i + step]) for column in block]
                if len(columns) == 1:  # csv quotes a lone empty cell
                    columns = [['""' if cell == "" else cell for cell in columns[0]]]
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def write_json(path, obj, indent=2) -> None:
    """Sorted-key JSON and a newline, encoded whole and then written in one
    go; `indent=None` is the compact form, which json.dumps (unlike the
    streaming json.dump) encodes in C. A NaN or ±Infinity, which strict
    JSON cannot hold, or a value nested too deep to encode is a
    ValueError, and leaves `path` as it was."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except RecursionError:
        raise ValueError(f"{path}: nested deeper than the recursion limit") from None
    with _replacing(path) as fh:
        fh.write(text + "\n")


def read_json(path):
    """The JSON value in a file, after a UTF-8 byte-order mark if it has
    one. A decoding error is a ValueError (JSONDecodeError is one); so is
    nesting too deep to decode."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: nested deeper than the recursion limit") from None


# --- typed reads of decoded JSON ---------------------------------------------------


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite float, or an integer a float can hold, numpy's scalars
    included. json.load also reads NaN and Infinity, and no config number
    may be either."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and abs(int(value)) <= sys.float_info.max


_JSON_TYPES = {
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "string": str,
    "list": list,
    "object": dict,
}


def typed(value, kind, where, key=None):
    """value, refused with a ValueError naming where it sits (`where`,
    then `key`) unless it has the JSON type `kind`; numbers come back as
    floats, and json.load's NaN and ±Infinity are refused. Only "boolean"
    takes a bool."""
    try:
        is_bool = isinstance(value, bool)
        if is_bool == (kind == "boolean") and isinstance(value, _JSON_TYPES[kind]):
            if kind != "number":
                return value
            value = float(value)
            if value - value == 0.0:  # NaN and ±inf leave NaN
                return value
            problem = f"expected a finite number, got {value!r}"
        else:
            problem = f"expected {kind}, got {type(value).__name__}"
    except OverflowError:
        problem = "number out of range"
    raise ValueError(f"{where if key is None else f'{where}.{key}'}: {problem}")


def range_problems(lower, upper, name=None) -> list[str]:
    """The problems of a range from `lower` to `upper`, each ending with
    `for <name>` when a name is given: both finite numbers, lower < upper,
    and upper - lower a finite float, as an evenly spaced sweep and a
    scaled search both compute it."""
    if not (is_number(lower) and is_number(upper)):
        problem = "lower and upper must be finite numbers"
    elif not float(lower) < float(upper):
        problem = "lower must be < upper"
    elif not math.isfinite(float(upper) - float(lower)):
        problem = "upper - lower overflows a float"
    else:
        return []
    return [problem if name is None else f"{problem} for {name!r}"]


def raise_first(problems) -> None:
    """Raise the first of a list of problems as a ValueError; an empty
    list raises nothing."""
    if problems:
        raise ValueError(problems[0])


def take(obj, key, kind, where):
    """obj[key], checked by typed; a missing key raises a ValueError."""
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return typed(obj[key], kind, where, key)


def take_list(obj, key, kind, where):
    """obj[key] as a tuple of items, the list and each item checked by typed."""
    items = take(obj, key, "list", where)
    return tuple(typed(v, kind, f"{where}.{key}[{i}]") for i, v in enumerate(items))
