"""Checks on the package's source text."""

import ast
from pathlib import Path

import gkz1

PACKAGE = Path(gkz1.__file__).parent


def _nodes():
    """(module file name, node) for every AST node of the package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_package_has_no_assert():
    # python -O strips assert statements, so an invariant check must raise
    # InternalInvariantError instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear"}


def _is_dict(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def test_package_sets_fields_one_way():
    # a record sets its fields once, in one way: through Record._set.  A write
    # through __dict__ (an update or an item assignment), or a cached_property,
    # which writes there on first use, would be a second way
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Attribute) and _is_dict(node.value) and node.attr in DICT_WRITES:
            found.append(f"{name}:{node.lineno} __dict__.{node.attr}")
        elif isinstance(node, ast.Subscript) and _is_dict(node.value) and not isinstance(
            node.ctx, ast.Load
        ):
            found.append(f"{name}:{node.lineno} __dict__[...]")
        elif isinstance(node, ast.alias) and node.name == "cached_property":
            found.append(f"{name}:{node.lineno} import {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.append(f"{name}:{node.lineno} .cached_property")
    assert not found, f"fields written past Record._set: {found}"


BUILDER_MODULES = {"series", "coefficients", "exponents", "classify"}


def _type_checking_block(node) -> bool:
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def test_verify_imports_no_builder_code():
    # the certificate checks a series against the operators on its own, so
    # it may not share code with what built the series; an import under
    # `if TYPE_CHECKING:` only names a type and never runs
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if _type_checking_block(node)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        parts = {part for name in names for part in name.split(".")}
        if parts & BUILDER_MODULES:
            found.append(f"verify.py:{node.lineno}")
    assert not found, f"builder code imported by the certificate: {found}"


FROZEN = {"__setattr__", "__delattr__", "__hash__"}


def test_only_record_guards_its_attributes():
    # every record is frozen and hashed by its fields through Record alone:
    # a class that defines or assigns one of these would unfreeze a record
    # or change what its hash compares
    found = []
    for name, node in _nodes():
        if not isinstance(node, ast.ClassDef) or (name, node.name) == ("_record.py", "Record"):
            continue
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            found += [f"{name}:{statement.lineno} {node.name}.{n}" for n in names if n in FROZEN]
    assert not found, f"attribute guards past Record: {found}"
