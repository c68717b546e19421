"""Code lines of ``src/aces``, per module and in total.

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py OTHER/src/aces

A code line is a line that holds a token outside comments and docstrings
(the string that opens a module, class or function body): blank lines,
comment lines and docstring lines do not count, and a statement spread over
several lines counts each of them.  Prints one ``module lines`` row per
module, sorted by name, then ``total lines``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aces"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="directory of the modules to count (default: src/aces)")
    args = parser.parse_args(argv)
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, lines in counts.items():
        print(f"{name:<{width}} {lines}")
    print(f"{'total':<{width}} {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
