"""Source rules of the library: invariants raise real exceptions (an
`assert` statement vanishes under `python -O`), and no module keeps a
hidden global cache rebound through a `global` statement."""

import ast
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
