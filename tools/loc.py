"""Count the lines of a source tree by kind: code, docstring, comment, blank.

Run from the root of a checkout:

    python3 tools/loc.py                  # src/
    python3 tools/loc.py ../parent/src    # another tree

Every line of every .py file under the tree is counted once.  A docstring
line is one of the lines a module's, class's or function's docstring spans,
blank ones included; of the other lines, a blank line holds only
whitespace, a comment line only a comment, and every other line is code.
Prints one row per file and a total.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """The counts of one file's text, by kind."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree", nargs="?", default="src",
                   help="directory to count (default: src)")
    args = p.parse_args(argv)
    root = Path(args.tree)
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path.relative_to(root)):<32}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<32}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
