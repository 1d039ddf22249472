"""Rules every module of the package follows."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gaborbox"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements; invariants raise GaborBoxError
    # subclasses instead
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
