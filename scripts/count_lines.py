"""Count the code lines of Python modules.

A code line is one on which a token starts that is not a comment, a
docstring or layout (newlines, indentation). A docstring here is any
string literal that stands alone as a statement. Blank lines, comment
lines, docstring lines and the continuation lines of a multi-line string
do not count. This is the count the project's change notes give for
src/welloop.

Prints one line per module, then the total.

Usage:
    python3 scripts/count_lines.py [PATH ...]   (default: this repo's src/welloop)
"""

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "welloop"
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: bytes) -> int:
    # without comments and blank lines, a string that stands alone sits
    # between the end of the statement before it and its own NEWLINE
    # (tokenize always emits one before ENDMARKER)
    tokens = [
        t
        for t in tokenize.tokenize(io.BytesIO(source).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        if token.type in LAYOUT:
            continue
        standalone = before.type in STATEMENT_START and after.type == tokenize.NEWLINE
        if token.type == tokenize.STRING and standalone:
            continue
        lines.add(token.start[0])
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[PACKAGE], help="modules or directories")
    args = parser.parse_args(argv)
    files = []
    for path in map(Path, args.paths):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_bytes())
        total += n
        print(f"{path.stem:<12}{n:>6}")
    print(f"{'total':<12}{total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
