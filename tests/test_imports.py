"""Lint: every name a source, test or demo file imports is used there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/e510", "tests", "demos")
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
