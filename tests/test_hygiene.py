"""Source hygiene: no unused top-level import, no definition without a
caller, no true division in the package, no dense row built outside
``exact.py``, and every entry point the benchmark's tracer wraps still
exists."""

import ast
import importlib.util
from pathlib import Path

from hochduflo.exact import GradedVector

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "hochduflo").glob("*.py"))
# the files kept free of unused imports
IMPORTERS = SOURCES + sorted(path for tree in ("tests", "demos", "tools")
                             for path in (ROOT / tree).glob("*.py"))
# every file whose reads count as a caller
READERS = sorted(path for tree in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / tree).rglob("*.py"))


def load_tracer():
    """``perfbench/tracer.py`` as a module (``perfbench`` is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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


def _local_names(args, body):
    """The names a function binds itself: its parameters and every name its
    body stores or imports, outside nested functions and classes (whose own
    names it does bind)."""
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out |= {a.arg for a in (args.vararg, args.kwarg) if a}
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {(a.asname or a.name).split(".")[0] for a in node.names}
        todo.extend(ast.iter_child_nodes(node))
    return out


class _Reads(ast.NodeVisitor):
    """Collects what a module reads, by binding:

    - ``.name`` for every attribute load ``x.name``;
    - ``name`` for every load of a name no enclosing function binds
      (a parameter or local of the same spelling reads nothing), and for
      every name imported with ``from ... import name``;
    - ``module.name`` for an attribute load on a name bound to an imported
      module (``from pkg import module as M``; ``M.name``).
    """

    def __init__(self):
        self.out = set()
        self.modules = {}
        self.scopes = []

    def visit_Import(self, node):
        for a in node.names:
            self.modules[a.asname or a.name] = a.name.rpartition(".")[2]

    def visit_ImportFrom(self, node):
        for a in node.names:
            self.out.add(a.name)
            self.modules[a.asname or a.name] = a.name

    def _is_global(self, name):
        return not any(name in scope for scope in self.scopes)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and self._is_global(node.id):
            self.out.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.out.add("." + node.attr)
            base = node.value
            if (isinstance(base, ast.Name) and base.id in self.modules
                    and self._is_global(base.id)):
                self.out.add("%s.%s" % (self.modules[base.id], node.attr))
        self.generic_visit(node)

    def _function(self, node):
        body = node.body if isinstance(node.body, list) else [node.body]
        # decorators, defaults and annotations belong to the outer scope
        for child in ast.iter_child_nodes(node):
            if not any(child is stmt for stmt in body):
                self.visit(child)
        self.scopes.append(_local_names(node.args, body))
        for stmt in body:
            self.visit(stmt)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


def reads(source):
    """Everything a module reads (see ``_Reads``).  String constants read
    nothing; the tracer's targets are added by ``tracer_reads``."""
    visitor = _Reads()
    visitor.visit(ast.parse(source))
    return visitor.out


def tracer_reads(tracer):
    """The entry points ``perfbench/tracer.py`` wraps: ``module.function``
    for a function, ``Class.method`` for a method."""
    out = {"%s.%s" % (cls or module, attr)
           for _, module, cls, attr, _, _ in tracer.TARGETS}
    return out | {"GradedVector." + attr for attr in tracer.VECTOR_OPS}


def uncalled(module, source, read):
    """The definitions of ``source`` (the module ``module``) that nothing in
    ``read`` reaches: a method only through ``.name`` or its tracer target
    ``Class.name``, a function or class only through a name load, an import
    or ``module.name``."""
    found = []
    for line, name in definitions(source):
        cls, _, attr = name.rpartition(".")
        keys = ("." + attr, name) if cls else (name, "%s.%s" % (module, name))
        if not any(key in read for key in keys):
            found.append((line, name))
    return found


def test_uncalled_scanner_is_binding_aware():
    source = ("import os\n"
              "def used(): pass\ndef unused(): pass\ndef traced(): pass\n"
              "class Kept:\n    def __init__(self): pass\n"
              "    def method(self): pass\n    def orphan(self): pass\n"
              "    def param(self): pass\n"
              "class Dropped:\n    pass\n"
              "def stored(): pass\ndef shadowed(): pass\n"
              "def qualified(): pass\ndef attribute(): pass\n")
    reader = ("from m import unused\nimport m as mod\nused()\n"
              "Kept().method()\nprint(orphan)\n"
              "TARGETS = [('m', None, 'traced')]\nstored = 1\n"
              "x.Dropped = 2\nx.attribute()\nmod.qualified()\n"
              "def f(param, shadowed):\n"
              "    return param + shadowed + (lambda orphan: orphan)(0)\n")
    read = reads(source) | reads(reader)
    assert uncalled("m", source, read) == [
        (4, "traced"), (8, "Kept.orphan"), (9, "Kept.param"),
        (10, "Dropped"), (12, "stored"), (13, "shadowed"), (15, "attribute")]
    assert uncalled("m", source, read | {"m.traced", "Kept.param"}) == [
        (8, "Kept.orphan"), (10, "Dropped"), (12, "stored"),
        (13, "shadowed"), (15, "attribute")]


def test_no_definitions_without_a_caller():
    assert SOURCES and READERS
    read = set().union(*(reads(path.read_text()) for path in READERS))
    read |= tracer_reads(load_tracer())
    found = ["%s:%d %s" % (path.name, line, name)
             for path in SOURCES
             for line, name in uncalled(path.stem, path.read_text(), read)]
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


def zero_lists(source):
    """Lines of the ``[ZERO] * n`` lists of a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Mult)
                  and any(isinstance(side, ast.List)
                          and any(isinstance(e, ast.Name) and e.id == "ZERO"
                                  for e in side.elts)
                          for side in (node.left, node.right)))


def test_zero_list_scanner():
    source = ("a = [ZERO] * 3\nb = 2 * [ZERO]\nc = [ONE] + [ZERO] * n\n"
              "d = [0] * 4\ne = [[ZERO] * n for _ in r]\n")
    assert zero_lists(source) == [1, 2, 3, 5]


def test_dense_rows_only_in_exact():
    """Only ``exact.py`` lays sparse vectors out as dense rows; the
    ``[ZERO] *`` lists of ``series.py`` are truncated series, not matrices."""
    assert SOURCES
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in SOURCES
             if path.name not in ("exact.py", "series.py")
             for line in zero_lists(path.read_text())]
    assert not found, "[ZERO] * lists outside exact.py: " + ", ".join(found)


def test_tracer_targets_exist():
    """Each entry point perfbench/tracer.py wraps is where it looks for it:
    a module attribute, or a method in its class's own ``__dict__``."""
    tracer = load_tracer()
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
