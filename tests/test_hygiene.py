"""Source hygiene: no unused top-level import, no definition without a
caller, no true division in the package, and every entry point the
benchmark's tracer wraps still exists."""

import ast
import importlib.util
from pathlib import Path

from hochduflo.exact import GradedVector

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "hochduflo").glob("*.py"))
# the files kept free of unused imports
IMPORTERS = SOURCES + sorted(path for tree in ("tests", "demos", "tools")
                             for path in (ROOT / tree).glob("*.py"))
# every file whose reads count as a caller; this file is left out, so the
# names in its scanner fixtures call nothing
READERS = sorted(path for tree in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / tree).rglob("*.py")
                 if path != Path(__file__))


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
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in IMPORTERS
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused top-level imports: " + ", ".join(found)


def definitions(source):
    """(line, name) of the top-level functions and classes of a module and
    of the non-dunder methods of its classes (as ``Class.method``)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, kinds):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((sub.lineno, "%s.%s" % (node.name, sub.name))
                         for sub in node.body
                         if isinstance(sub, kinds[:2])
                         and not (sub.name.startswith("__")
                                  and sub.name.endswith("__")))
    return found


def reads(source):
    """Every name a module reads: loaded names, loaded attributes and string
    constants (the tracer names its targets by string)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled(source, read):
    """The definitions of ``source`` whose name is not in ``read``."""
    return [(line, name) for line, name in definitions(source)
            if name.rpartition(".")[2] not in read]


def test_uncalled_scanner_sees_names_attributes_and_strings():
    source = ("import os\n"
              "def used(): pass\ndef unused(): pass\ndef traced(): pass\n"
              "class Kept:\n    def __init__(self): pass\n"
              "    def method(self): pass\n    def orphan(self): pass\n"
              "class Dropped:\n    pass\n"
              "def stored(): pass\n")
    reader = ("from m import unused\nused()\nKept().method()\n"
              "TARGETS = [('m', None, 'traced')]\nstored = 1\nx.Dropped = 2\n")
    read = reads(source) | reads(reader)
    assert uncalled(source, read) == [
        (3, "unused"), (8, "Kept.orphan"), (9, "Dropped"), (11, "stored")]


def test_no_definitions_without_a_caller():
    assert SOURCES and READERS
    read = set().union(*(reads(path.read_text()) for path in READERS))
    found = ["%s:%d %s" % (path.name, line, name)
             for path in SOURCES
             for line, name in uncalled(path.read_text(), read)]
    assert not found, "definitions nothing calls: " + ", ".join(found)


def true_divisions(source):
    """Lines of the ``/`` and ``/=`` operators of a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_division_scanner_sees_binop_and_augassign():
    source = ("half = 1 / 2\nfloor = 7 // 2\n"
              "def f(z):\n    z /= 3\n    return Q(z, 2)\n"
              "class C:\n    def g(self, a):\n        return a / 2\n")
    assert true_divisions(source) == [1, 4, 8]


def test_no_true_division_in_src():
    """``int / int`` is a float, so the package has no ``/`` at all: every
    exact quotient is written ``Q(a, b)``."""
    assert SOURCES
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in SOURCES
             for line in true_divisions(path.read_text())]
    assert not found, "true division in src: " + ", ".join(found)


def test_tracer_targets_exist():
    """Each entry point perfbench/tracer.py wraps is where it looks for it:
    a module attribute, or a method in its class's own ``__dict__``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for name, module, cls, attr, _, _ in tracer.TARGETS:
        mod = importlib.import_module("%s.%s" % (tracer.PACKAGE, module))
        if cls is None:
            ok = callable(getattr(mod, attr, None))
        else:
            ok = attr in vars(getattr(mod, cls, object))
        if not ok:
            missing.append(name)
    missing += ["exact.GradedVector." + attr for attr in tracer.VECTOR_OPS
                if attr not in vars(GradedVector)]
    assert not missing, "tracer targets missing: " + ", ".join(missing)
