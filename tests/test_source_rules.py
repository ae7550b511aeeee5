"""Source rules of the library: invariants raise real exceptions (an
`assert` statement vanishes under `python -O`), no module keeps a
hidden global cache rebound through a `global` statement, and no
private module-level name is left without a reader."""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gsp4verify"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_global_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}: {type(node).__name__}"
           for node in ast.walk(tree)
           if isinstance(node, (ast.Assert, ast.Global))]
    assert bad == []


def _private_definitions(tree):
    """(name, statement) for each module-level `_name` the module binds
    by def, class or assignment (dunder names excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id] if isinstance(node.target,
                                                   ast.Name) else []
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(stmt):
    """Counts of the names a statement reads, as bare names or as
    attributes."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute))


TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
READS = sum((_references(s) for t in TREES.values() for s in t.body),
            collections.Counter())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_module_names_are_read_elsewhere(path):
    """Every module-level `_name` is read somewhere in the library
    outside its own definition: a private helper with no caller is
    dead code."""
    dead = [f"{path.name}:{stmt.lineno}: {name}"
            for name, stmt in _private_definitions(TREES[path])
            if READS[name] == _references(stmt)[name]]
    assert dead == []
