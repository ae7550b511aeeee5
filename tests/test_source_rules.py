"""Source rules of the library: invariants raise real exceptions (an
`assert` statement vanishes under `python -O`), no module keeps a
hidden global cache, whether rebound through a `global` statement,
filled in place, named a cache or kept by functools, no module-level
name is left without a reader in the library (a public one may name
its reader outside it), every imported name is read (in the tests and
demos too), sympy is imported only inside symcore's one gcd helper, so
that importing the library does not load it, only symcore reads the
packed form of a LaurentPoly, and only padic's public Fraction-matrix
functions convert a matrix to integer rows."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsp4verify"
MODULES = sorted(SRC.glob("*.py"))
#: the scripts outside the library that the import rule also covers
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py"))


def test_modules_found():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_global_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}: {type(node).__name__}"
           for node in ast.walk(tree)
           if isinstance(node, (ast.Assert, ast.Global))]
    assert bad == []


def _definitions(tree):
    """(name, statement) for each module-level name the module binds by
    def, class or assignment (dunder names excluded)."""
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
            if not name.startswith("__"):
                yield name, node


def _references(stmt):
    """Counts of the names a statement reads, as bare names or as
    attributes."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute))


def _unread(trees):
    """(file name, line, name) of each module-level name that no module
    of trees, a dict from path to parsed module, reads outside its own
    definition."""
    reads = sum((_references(s) for t in trees.values() for s in t.body),
                collections.Counter())
    for path, tree in trees.items():
        for name, stmt in _definitions(tree):
            if reads[name] == _references(stmt)[name]:
                yield path.name, stmt.lineno, name


def _methods(tree):
    """(class, method, def) for each public method of each public class
    the module defines at its top level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name, item.name, item


def _unread_methods(trees):
    """(file name, "Class.method") of each public method of a public
    class whose name the library reads only inside the methods of that
    name, so one that only delegates to its namesake counts too."""
    reads = sum((_references(s) for t in trees.values() for s in t.body),
                collections.Counter())
    methods = [(path.name, cls, name, fn) for path, tree in trees.items()
               for cls, name, fn in _methods(tree)]
    own = collections.Counter()
    for _, _, name, fn in methods:
        own[name] += _references(fn)[name]
    for module, cls, name, _ in methods:
        if reads[name] == own[name]:
            yield module, f"{cls}.{name}"


TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
UNREAD = list(_unread(TREES))
UNREAD_METHODS = list(_unread_methods(TREES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_module_names_are_read_elsewhere(path):
    """Every module-level `_name` is read somewhere in the library
    outside its own definition: a private helper with no caller is
    dead code."""
    dead = [f"{module}:{line}: {name}" for module, line, name in UNREAD
            if module == path.name and name.startswith("_")]
    assert dead == []


ACCEPTANCE = "imported by tests/test_acceptance.py"
TRACER = "wrapped by name in perfbench/tracer.py"
ORACLE = ("imported by tests/test_gsp4local.py, whose oracle it is; it "
          "moves there once perfbench's speed probe stops charging a "
          "garbage collection to its burst (ROADMAP item 1)")
#: the public names that the library itself never reads, each with the
#: reader outside it that keeps it
READ_OUTSIDE_LIBRARY = {
    "padic.py": {"act_schwartz": ACCEPTANCE, "in_level": ACCEPTANCE,
                 "iwasawa_gl2": ACCEPTANCE,
                 "enumerate_double_coset": TRACER},
    "gsp4local.py": {"eval_induced": ORACLE,
                     "InducedVectorG.spherical": ORACLE,
                     "InducedVectorG.parahoric_basis": ORACLE},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_module_names_are_read_in_the_library(path):
    """Every public module-level name, and every public method of a
    public class, is read somewhere in the library outside its own
    definition, or READ_OUTSIDE_LIBRARY names its reader: a name that
    only tests read belongs in the tests."""
    unread = {name for module, _, name in UNREAD
              if module == path.name and not name.startswith("_")}
    unread |= {name for module, name in UNREAD_METHODS if module == path.name}
    assert unread == set(READ_OUTSIDE_LIBRARY.get(path.name, {}))


def _imported_names(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_names_read_outside_the_library_have_their_readers():
    tests = ROOT / "tests"
    readers = {ACCEPTANCE: tests / "test_acceptance.py",
               ORACLE: tests / "test_gsp4local.py"}
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    for names in READ_OUTSIDE_LIBRARY.values():
        for name, reason in names.items():
            if reason == TRACER:
                assert f".{name}" in tracer, name
                continue
            # a method's reader imports its class and reads the method
            cls, _, method = name.rpartition(".")
            assert (cls or method) in _imported_names(readers[reason]), name
            assert not cls or f".{method}(" in readers[reason].read_text()


def test_unread_rule_flags_an_unread_def():
    trees = {pathlib.Path("a.py"): ast.parse(
                 "def used():\n"
                 "    return 1\n"
                 "def unread():\n"
                 "    return used()\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "CONST = used()\n"
                 "_HELPER = 2\n"),
             pathlib.Path("b.py"): ast.parse(
                 "from .a import CONST\n"
                 "def read_by_none():\n"
                 "    return CONST\n")}
    assert sorted(_unread(trees)) == [
        ("a.py", 3, "unread"), ("a.py", 5, "recursive"),
        ("a.py", 8, "_HELPER"), ("b.py", 2, "read_by_none")]


def test_unread_rule_flags_an_unread_method():
    trees = {pathlib.Path("a.py"): ast.parse(
                 "class Public:\n"
                 "    def used(self):\n"
                 "        return self.helper()\n"
                 "    def helper(self):\n"
                 "        return 1\n"
                 "    def unread(self):\n"
                 "        return self.used()\n"
                 "    def _private(self):\n"
                 "        return 2\n"
                 "class _Hidden:\n"
                 "    def hidden(self):\n"
                 "        return 3\n"),
             pathlib.Path("b.py"): ast.parse(
                 "class Value:\n"
                 "    def const_value(self):\n"
                 "        return self.num.const_value()\n"
                 "class Poly:\n"
                 "    def const_value(self):\n"
                 "        return 0\n"
                 "def read(poly):\n"
                 "    return poly.helper\n")}
    assert sorted(_unread_methods(trees)) == [
        ("a.py", "Public.unread"), ("b.py", "Poly.const_value"),
        ("b.py", "Value.const_value")]


#: methods that change a dict, list or set in place
MUTATORS = frozenset({"append", "setdefault", "update", "add", "pop",
                      "clear"})


def _module_names(tree):
    """Names the module binds at its top level by assignment."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _functions(tree):
    """The module's functions and the methods of its classes; a nested
    function is part of the function that encloses it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body
                        if isinstance(n, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def _local_names(fn):
    """Names a function binds anywhere in its body, arguments included."""
    names = {a.arg for n in ast.walk(fn) if isinstance(n, ast.arguments)
             for a in n.posonlyargs + n.args + n.kwonlyargs
             + [n.vararg, n.kwarg] if a is not None}
    names.update(n.id for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and not isinstance(n.ctx,
                                                               ast.Load))
    return names


def _writes_to_module_state(tree):
    """(line, name) of each store into, or mutating method call on, a
    module-level name inside a function: `X[k] = ...`, `del X[k]` and
    `X.append(...)`-style calls."""
    module = _module_names(tree)
    for fn in _functions(tree):
        shared = module - _local_names(fn)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript)
                    and not isinstance(node.ctx, ast.Load)):
                target = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                yield node.lineno, target.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_leave_module_containers_alone(path):
    """A function that fills a module-level container is a hidden
    global cache: what one check costs would depend on which checks ran
    before it.  Values shared between checks are handed to them."""
    bad = [f"{path.name}:{line}: {name}"
           for line, name in _writes_to_module_state(TREES[path])]
    assert bad == []


def test_module_state_rule_flags_a_cache():
    tree = ast.parse(
        "_CACHE = {}\n"
        "_SEEN = []\n"
        "def f(k):\n"
        "    _CACHE[k] = 1\n"
        "    _SEEN.append(k)\n"
        "    seen = []\n"
        "    seen.append(k)\n"
        "class C:\n"
        "    def g(self, k):\n"
        "        _CACHE.setdefault(k, 2)\n"
        "def h(_CACHE):\n"
        "    _CACHE[0] = 1\n")
    assert sorted(_writes_to_module_state(tree)) == [
        (4, "_CACHE"), (5, "_SEEN"), (10, "_CACHE")]


#: the functools decorators that keep every result for the life of the
#: process, and the containers a module-level cache is built as
FUNCTOOLS_CACHES = frozenset({"lru_cache", "cache"})
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = frozenset({"dict", "list", "set", "defaultdict",
                             "OrderedDict"})


def _named_caches(tree):
    """(line, name) of each module-level dict, list or set whose name
    contains "cache", and of each use of functools' lru_cache or cache,
    by import or by attribute: what perfbench's process_caches measures
    at run time, read off the source."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        called = (call.id if isinstance(call, ast.Name) else
                  call.attr if isinstance(call, ast.Attribute) else None)
        if isinstance(value, CONTAINERS) or called in CONTAINER_CALLS:
            yield from ((node.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name)
                        and "cache" in t.id.lower())
    functools = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in FUNCTOOLS_CACHES)
        elif (isinstance(node, ast.Attribute)
              and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id in functools):
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_keeps_a_named_cache(path):
    """No hidden global cache under its own name either: a module-level
    container called a cache, or a functools cache, would make one
    check's cost depend on the checks that ran before it in the
    process."""
    assert list(_named_caches(TREES[path])) == []


def test_named_cache_rule_flags_a_cache():
    tree = ast.parse(
        "import functools as ft\n"
        "from functools import lru_cache, partial\n"
        "from collections import defaultdict\n"
        "_CACHE = {}\n"
        "pair_cache: dict = dict()\n"
        "_Cached = defaultdict(list)\n"
        "CACHE_SIZE = 128\n"
        "_seen = set()\n"
        "@ft.cache\n"
        "def f(x):\n"
        "    local_cache = {}\n"
        "    return partial(f, x), local_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def g(x):\n"
        "    return x.cache\n")
    assert sorted(_named_caches(tree)) == [
        (2, "lru_cache"), (4, "_CACHE"), (5, "pair_cache"), (6, "_Cached"),
        (9, "cache")]


def _sympy_imports(tree):
    """Line numbers of the statements that import sympy or a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            yield node.lineno


#: the one function that may import sympy: symcore's gcd-and-divide step
SYMPY_HELPER = ("symcore.py", "_divide_by_gcd")


def _sympy_imports_outside(tree, helper):
    """Line numbers of the sympy imports outside the module-level
    function named helper (None: anywhere)."""
    return sorted(line for node in tree.body
                  if not (isinstance(node, ast.FunctionDef)
                          and node.name == helper)
                  for line in _sympy_imports(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_symcore_imports_sympy(path):
    """symcore is the one exact-arithmetic backend, and only its gcd
    needs sympy: the helper imports it at its first call, so a run that
    reduces no fraction by a gcd never loads it."""
    helper = SYMPY_HELPER[1] if path.name == SYMPY_HELPER[0] else None
    assert _sympy_imports_outside(TREES[path], helper) == []


def test_gcd_helper_is_a_symcore_function_that_imports_sympy():
    (fn,) = [node for node in TREES[SRC / SYMPY_HELPER[0]].body
             if isinstance(node, ast.FunctionDef)
             and node.name == SYMPY_HELPER[1]]
    assert list(_sympy_imports(fn))


def test_sympy_rule_flags_an_import():
    tree = ast.parse(
        "import sympy\n"
        "from sympy.polys import ring\n"
        "import sympyx\n"
        "from .symcore import sympy_gcd\n"
        "def f():\n"
        "    import os, sympy.abc as abc\n"
        "def _divide_by_gcd(names, sides):\n"
        "    import sympy\n"
        "class C:\n"
        "    def _divide_by_gcd(self):\n"
        "        from sympy import gcd\n")
    assert sorted(_sympy_imports(tree)) == [1, 2, 6, 8, 11]
    assert _sympy_imports_outside(tree, "_divide_by_gcd") == [1, 2, 6, 11]
    assert _sympy_imports_outside(tree, None) == [1, 2, 6, 8, 11]


def test_sympy_rule_flags_a_module_level_import_in_symcore():
    lines = (SRC / SYMPY_HELPER[0]).read_text().splitlines()
    at = lines.index("from fractions import Fraction") + 1
    lines.insert(at, "import sympy")
    tree = ast.parse("\n".join(lines))
    assert _sympy_imports_outside(tree, SYMPY_HELPER[1]) == [at + 1]


def _unread_imports(tree):
    """(line, name) of each name an import binds that the module never
    reads; `from __future__ import annotations` sets a compiler flag."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


#: imports that only code outside the library reads: perfbench's tracer
#: test takes `branching.mat_mul` as its second binding of a wrapped
#: function, so the import goes when that test names another binding
READ_OUTSIDE = {"branching.py": ["mat_mul"]}


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    """An import that nothing reads is dead code and a false dependency."""
    tree = TREES.get(path) or ast.parse(path.read_text(), filename=str(path))
    unread = [name for _, name in _unread_imports(tree)]
    assert unread == (READ_OUTSIDE.get(path.name, []) if path in TREES
                      else [])


def test_import_rule_flags_an_unread_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from .padic import mat, mat_mul as mm\n"
        "def f(x: Fraction):\n"
        "    import json\n"
        "    return sys.argv, mat\n")
    assert sorted(_unread_imports(tree)) == [
        (2, "os"), (3, "os"), (4, "mm"), (6, "json")]


#: the attributes that hold a LaurentPoly's packed monomials and the
#: names that give their fields meaning
PACKED = frozenset({"vecs", "names"})


def _packed_reads(tree):
    """Line numbers of the attribute accesses `.vecs` and `.names`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PACKED]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_symcore_reads_packed_monomials(path):
    """The packed-monomial format stays behind symcore: every other
    module reads a LaurentPoly through `terms`, `repr` and arithmetic."""
    lines = _packed_reads(TREES[path])
    assert path.name == "symcore.py" or lines == []


def test_packed_rule_flags_a_read():
    tree = ast.parse(
        "def f(r, terms):\n"
        "    keys = list(r.num.vecs)\n"
        "    n = len(r.den.names)\n"
        "    names, vecs = r.num.terms, terms.values()\n"
        "    return getattr(r, 'vecs'), keys, n, names, vecs\n")
    assert _packed_reads(tree) == [2, 3]


#: padic's Fraction-to-integer conversion, and the functions that take
#: Fraction matrices at the public boundary and may call it; the hot
#: loops carry (r, d) from end to end
CONVERSION = "_integer_rows"
CONVERTERS = frozenset({"mat_mul", "gsp4_multiplier", "gsp4_inv",
                        "iwasawa_gsp4", "in_level", "in_gl2_z",
                        "act_schwartz"})


def _conversion_reads(tree, allowed):
    """Line numbers of the reads of the conversion, by name, attribute or
    import, outside the module-level functions named in allowed."""
    lines = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            continue
        lines += [sub.lineno for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and sub.id == CONVERSION
                  or isinstance(sub, ast.Attribute) and sub.attr == CONVERSION
                  or isinstance(sub, ast.alias) and sub.name == CONVERSION]
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_padic_converters_build_integer_rows(path):
    """Products, inverses and level tests run on (r, d); a Fraction
    matrix becomes (r, d) only where it enters padic's public
    functions, so no loop slips back onto Fractions."""
    allowed = CONVERTERS if path.name == "padic.py" else frozenset()
    assert _conversion_reads(TREES[path], allowed) == []


def test_converters_are_padic_functions():
    defined = {node.name for node in TREES[SRC / "padic.py"].body
               if isinstance(node, ast.FunctionDef)}
    assert CONVERSION in defined and CONVERTERS <= defined


def test_conversion_rule_flags_a_hot_loop():
    tree = ast.parse(
        "from .padic import _integer_rows, mat\n"
        "from . import padic\n"
        "def mat_mul(a, b):\n"
        "    return _integer_rows(a), _integer_rows(b)\n"
        "def _orbit(start, gens):\n"
        "    return [padic._integer_rows(g) for g in gens]\n"
        "class Pair:\n"
        "    def of(self):\n"
        "        return _integer_rows(self.g1)\n"
        "rows = _integer_rows\n")
    assert _conversion_reads(tree, frozenset({"mat_mul"})) == [1, 6, 9, 10]
