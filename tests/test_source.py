"""Checks on the package's source text."""

import ast
from pathlib import Path

import gkz1

PACKAGE = Path(gkz1.__file__).parent


def test_package_has_no_assert():
    # python -O strips assert statements, so an invariant check must raise
    # InternalInvariantError instead
    found = []
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
