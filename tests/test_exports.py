"""The package's exports: every name in `kssbij.__all__` exists, and every
public name that `kssbij/__init__.py` imports is listed in `__all__`."""

import ast
import inspect

import kssbij


def test_all_names_resolve():
    missing = [name for name in kssbij.__all__ if not hasattr(kssbij, name)]
    assert missing == []


def test_public_imports_are_exported():
    tree = ast.parse(inspect.getsource(kssbij))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert sorted(public - set(kssbij.__all__)) == []
