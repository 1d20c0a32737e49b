"""Source hygiene: no module imports a name at top level that it never uses."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "hochduflo")
                 .glob("*.py"))


def unused_imports(source):
    """Names bound by top-level imports that the module never reads.

    A name listed in ``__all__`` counts as read: it is re-exported.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_scanner_finds_unused_and_respects_all():
    source = ("from __future__ import annotations\n"
              "import os\nfrom math import gcd, lcm\nimport json as j\n"
              "from .x import Exported\n"
              "__all__ = ['Exported']\n"
              "def f(a: j.JSONDecoder):\n    return gcd(a, 2)\n")
    assert unused_imports(source) == [(2, "os"), (3, "lcm")]


def test_no_unused_top_level_imports():
    assert SOURCES
    found = ["%s:%d %s" % (path.name, line, name)
             for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused top-level imports: " + ", ".join(found)
