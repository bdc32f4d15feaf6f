"""Lint: every name a source, test or demo file imports is used there, and
every function or class the package defines is referenced by a program:
the package itself, a demo or the benchmark.  A reference from a test does
not count, so code that only tests call is reported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/e510", "tests", "demos")
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


def definitions(source):
    """(line, name) of each function, method and class, dunders excepted."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source):
    """Every name, attribute and string constant the module mentions."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scan_finds_unreferenced_definitions():
    src = ("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
           "class B: pass\ndef f(): return g\ndef g(): pass\n"
           "def h(): pass\ngetattr(A, 'm')\n")
    refs = references(src)
    assert [(line, name) for line, name in definitions(src)
            if name not in refs] == [(4, "B"), (5, "f"), (7, "h")]


def test_no_dead_definitions():
    refs = set().union(*(references(p.read_text()) for p in REFERENCING))
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in sorted((ROOT / "src/e510").glob("*.py"))
             for line, name in definitions(p.read_text()) if name not in refs]
    assert found == []
