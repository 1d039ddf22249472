#!/usr/bin/env python3
"""List the statements of src/gaborbox that no selected test runs.

Runs pytest in this process under a `sys.settrace` line tracer (standard
library only, no coverage package) and prints, file by file, every
statement of the package that reported no line event, as
`path:line: source`.  The arguments are pytest's; with none, the default
run (tests marked slow left out).  Unless they give `--hypothesis-seed`,
`--hypothesis-seed=0` goes first, so two runs over one tree draw the same
examples and print the same list.  A statement counts as run when any of
its own lines ran: a simple statement's whole span, a compound one's
header up to its body.  Docstrings and `try:` headers run no code of
their own and are never listed.  Lines that run in a child process, as
the CLI tests that start `python -m gaborbox.cli` do, are not seen.

Usage:
    python3 scripts/linecov.py
    python3 scripts/linecov.py -q tests/test_classifier.py tests/test_cli.py
    python3 scripts/linecov.py -q -m slow
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaborbox"


def _own_lines(node: ast.stmt) -> range:
    """The lines whose code is the statement's own: all of a simple
    statement, the decorators and header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def _statements(path: Path):
    """(own lines, first line) of every statement in the file that runs code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        yield _own_lines(node), node.lineno


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    if any(name == "gaborbox" or name.startswith("gaborbox.") for name in sys.modules):
        raise SystemExit("gaborbox is already imported: its module lines would read as unrun")
    prefix = str(PACKAGE) + "/"
    ran = {}  # file name -> set of lines with a line event

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    if not any(arg.startswith("--hypothesis-seed") for arg in argv):
        argv = ["--hypothesis-seed=0", *argv]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for own, first in sorted(_statements(path), key=lambda item: item[1]):
            if lines.isdisjoint(own):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{unrun} statements not run (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
