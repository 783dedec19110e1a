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


def _body(function) -> list:
    """A function's statements after its docstring, if it has one."""
    body = function.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
        first.value.value, str
    ):
        body = body[1:]
    return body


def test_no_function_body_defined_twice():
    # one decision sits behind one function: two functions whose bodies,
    # after the docstring, are the same statements (two or more of them)
    # are a copy that can drift from its original
    found = {}
    for name, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = _body(node)
            if len(body) >= 2:
                key = ast.dump(ast.Module(body=body, type_ignores=[]))
                found.setdefault(key, []).append(f"{name}:{node.lineno} {node.name}")
    copies = [where for where in found.values() if len(where) > 1]
    assert not copies, f"functions defined twice: {copies}"


BUILDER_MODULES = {"series", "coefficients", "exponents", "classify"}


def _imported(node) -> set[str]:
    """The parts of every module name an import statement names, or none."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return set()
    return {part for name in names for part in name.split(".")}


def test_verify_imports_no_builder_code():
    # the certificate checks a series against the operators on its own, so
    # it may not share code with what built the series, not even to name a
    # type (no module imports typing, so there is no TYPE_CHECKING block)
    found = [
        f"verify.py:{node.lineno}"
        for node in ast.walk(ast.parse((PACKAGE / "verify.py").read_text()))
        if _imported(node) & BUILDER_MODULES
    ]
    assert not found, f"builder code imported by the certificate: {found}"


def test_import_path_stays_lean():
    # every fresh interpreter imports the package, so it loads no module it
    # can do without: pathlib and typing are not imported at all (paths are
    # os.path strings, annotations are builtins), and argparse only by
    # _usage, which only help and usage errors reach
    found = [
        f"{name}:{node.lineno} {module}"
        for name, node in _nodes()
        for module in _imported(node) & {"pathlib", "typing", "argparse"}
        if (name, module) != ("_usage.py", "argparse")
    ]
    assert not found, f"imports off the lean path: {found}"


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


def _exported(tree) -> set[str]:
    """The names a module lists in its __all__."""
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in ast.walk(node.value)
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    }


def test_every_imported_name_is_used():
    # an import that nothing reads is dead code left behind by a deletion; a
    # name the module exports through __all__ counts as read, and a
    # __future__ import is a directive rather than a name
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _exported(tree)
        found += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read
        ]
    assert not found, f"imported and never used: {found}"


def test_coefficient_m_has_one_caller():
    # every coefficient in the package comes from one walk, which seeds its
    # rows from coefficient_M in series._seed; any other function naming it
    # would be a second coefficient route, free to drift from the walk
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # ast.walk visits an outer function before the functions inside it,
        # so each node ends up owned by its innermost function
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    owner[node] = f"{path.stem}.{function.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "coefficient_M") or (
                isinstance(node, ast.Attribute) and node.attr == "coefficient_M"
            ):
                callers.add(owner.get(node, f"{path.stem} (module level)"))
    assert callers == {"series._seed"}, f"coefficient_M named outside series._seed: {callers}"
