"""Count the lines of a source tree by kind: code, docstring, comment, blank.

Run from the root of a checkout:

    python3 tools/loc.py                  # src/
    python3 tools/loc.py ../parent/src    # another tree
    python3 tools/loc.py ../parent/src src   # two trees and the difference

Every line of every .py file under the tree is counted once.  A docstring
line is one of the lines a module's, class's or function's docstring spans,
blank ones included; of the other lines, a blank line holds only
whitespace, a comment line only a comment, and every other line is code.
Prints one row per file and a total; given two trees, one row per file
whose counts differ, with the second tree's minus the first's (a file of
one tree only counts as empty in the other), each tree's total and the
difference of the totals.
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


def tree_counts(root):
    """{relative path: counts} of every .py file under root."""
    return {str(path.relative_to(root)): count(path.read_text())
            for path in sorted(Path(root).rglob("*.py"))}


def row(name, counts):
    return (f"{name:<32}{sum(counts.values()):>7}"
            + "".join(f"{counts[k]:>11}" for k in KINDS))


def total(files):
    return {k: sum(counts[k] for counts in files.values()) for k in KINDS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="*", default=["src"], metavar="tree",
                   help="directory to count (default: src); given two, the"
                        " second's counts minus the first's")
    args = p.parse_args(argv)
    if len(args.trees) > 2:
        p.error("at most two trees")
    print(f"{'file':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    files = [tree_counts(tree) for tree in args.trees]
    if len(files) == 1:
        for name, counts in files[0].items():
            print(row(name, counts))
        print(row("total", total(files[0])))
        return
    zero = dict.fromkeys(KINDS, 0)
    old, new = files
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, zero), new.get(name, zero)
        if a != b:
            print(row(name, {k: b[k] - a[k] for k in KINDS}))
    a, b = total(old), total(new)
    for tree, counts in zip(args.trees, (a, b)):
        print(row(f"total {tree}", counts))
    print(row("difference", {k: b[k] - a[k] for k in KINDS}))


if __name__ == "__main__":
    main()
