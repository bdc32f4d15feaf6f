"""Lint: every name a source, test, demo or benchmark file imports is used
there, and every function, class and module-level name the package defines
is referenced by a program: the package itself, a demo or the benchmark.
A reference from a test does not count, so code that only tests call is
reported.  And every helper a test file defines at module level, a
function, class or assigned name other than a test_* function, is
referenced from some test file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/e510", "tests", "demos", "perfbench")
               for p in (ROOT / d).glob("*.py"))
# the benchmark looks program functions up by name, so its files count as
# references too; tests do not
REFERENCING = sorted(p for d in ("src/e510", "demos", "perfbench")
                     for p in (ROOT / d).glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno,
                                 alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_unused_names():
    src = ("import os\nimport a.b\nfrom x import y as z, w\n"
           "from __future__ import annotations\nprint(w, a)\n")
    assert unused_imports(src) == [(1, "os"), (3, "z")]


def test_no_unused_imports():
    assert FILES
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in FILES for line, name in unused_imports(p.read_text())]
    assert found == []


def definitions(source, top_level=False):
    """(line, name) of each function, method and class, and of each name a
    module-level assignment binds, dunders excepted; with top_level, only
    the module-level functions and classes, so no methods."""
    tree = ast.parse(source)
    found = [(node.lineno, node.name)
             for node in (tree.body if top_level else ast.walk(tree))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            found += [(n.lineno, n.id) for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(source):
    """Every name read, attribute and string constant the module mentions."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scan_finds_unreferenced_definitions():
    src = ("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
           "class B: pass\ndef f(): return g + Y\ndef g(): pass\n"
           "def h(): pass\ngetattr(A, 'm')\nX, Y = 0, 1\n__all__ = []\n")
    refs = references(src)
    assert [(line, name) for line, name in definitions(src)
            if name not in refs] == [(4, "B"), (5, "f"), (7, "h"), (9, "X")]
    assert [name for _, name in definitions(src, top_level=True)] \
        == ["A", "B", "f", "g", "h", "X", "Y"]


def test_no_dead_definitions():
    refs = set().union(*(references(p.read_text()) for p in REFERENCING))
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in sorted((ROOT / "src/e510").glob("*.py"))
             for line, name in definitions(p.read_text()) if name not in refs]
    assert found == []


def test_no_dead_test_helpers():
    tests = sorted((ROOT / "tests").glob("*.py"))
    refs = set().union(*(references(p.read_text()) for p in tests))
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in tests
             for line, name in definitions(p.read_text(), top_level=True)
             if not name.startswith("test_") and name not in refs]
    assert found == []
