"""Outside-in tracer for the hochduflo package.

The package is not edited.  ``Tracer.install`` replaces each traced entry
point with a wrapper: a module-level function is rebound under every name
that holds it in any ``hochduflo`` module (``from .exact import rows_solve``
makes a second binding in ``suites``, ``keller`` and ``duflo``), and a
method is replaced in its own class's ``__dict__``.  ``Tracer.restore`` puts
every original back.

Three kinds of wrapper are used:

* timed: call count, self time (the span minus the time covered by traced
  spans it caused) and total time (outermost activations only, so recursion
  is not counted twice);
* keyed: timed, plus the set of distinct argument keys, for reuse ratios of
  the key-level structure maps;
* counted: call count only, for the hottest calls (``GradedVector``
  arithmetic, ``UgWindow.normal_order``), where a clock read per call would
  dominate what it measures.

Spans of the coarse entry points (solves, cone homotopies, the lift, the
suites and the benchmark's own operations) are kept in memory as
``(id, parent_id, name, start, end)`` and written out by the caller when the
run ends; the hot evaluators are aggregated only.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "keys", "extra",
                 "pass_calls", "ratios")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        # distinct argument keys (or matrices) seen in the current pass
        self.keys = set()
        self.extra = {"cells": 0, "nnz": 0, "max_cells": 0}
        self.pass_calls = 0
        # distinct keys over calls, one entry per traced pass that called
        self.ratios = []

    def end_pass(self):
        """Close the current pass's reuse ratio and start the next afresh.

        A ratio taken over every pass at once would fall as 1/passes, since
        each pass repeats the same keys.
        """
        calls = self.calls - self.pass_calls
        if calls and self.keys:
            self.ratios.append(len(self.keys) / calls)
        self.keys = set()
        self.pass_calls = self.calls


TIMED, KEYED, COUNTED, MATRIX = "timed", "keyed", "counted", "matrix"

# (stat name, module, class or None, attribute, kind, keep spans)
TARGETS = [
    ("exact.bareiss_echelon", "exact", None, "bareiss_echelon", MATRIX, True),
    ("exact.rows_solve", "exact", None, "rows_solve", TIMED, True),
    ("exact.rows_nullspace", "exact", None, "rows_nullspace", TIMED, True),
    ("exact.rows_rank", "exact", None, "rows_rank", TIMED, True),
    ("exact.cohomology_slice", "exact", None, "cohomology_slice", TIMED,
     True),
    ("liealg.UgWindow.mul_keys", "liealg", "UgWindow", "mul_keys", KEYED,
     False),
    ("liealg.UgWindow.normal_order", "liealg", "UgWindow", "normal_order",
     COUNTED, False),
    ("liealg.UgWindow.normal_order.miss", "liealg", "UgWindow",
     "_normal_order_uncached", COUNTED, False),
    ("liealg.DualOdd.mul_keys", "liealg", "DualOdd", "mul_keys", KEYED,
     False),
    ("liealg.OddSym.coderivation_bracket_key", "liealg", "OddSym",
     "coderivation_bracket_key", KEYED, False),
    ("liealg.contract", "liealg", None, "contract", TIMED, False),
    ("keller.LieTriple._d_x_key", "keller", "LieTriple", "_d_x_key", KEYED,
     False),
    ("keller.LieTriple._rmul_key", "keller", "LieTriple", "_rmul_key", KEYED,
     False),
    ("keller.LieTriple._lmul_key", "keller", "LieTriple", "_lmul_key", TIMED,
     False),
    ("keller.AugmentationCone.build_homotopy", "keller", "AugmentationCone",
     "build_homotopy", TIMED, True),
    ("keller.kernel_dimension_match", "keller", None,
     "kernel_dimension_match", TIMED, True),
    ("keller.row_exactness_certificate", "keller", None,
     "row_exactness_certificate", TIMED, True),
    ("keller.ModuleCochain.value", "keller", "ModuleCochain", "value", TIMED,
     False),
    ("hochschild.Cochain.value", "hochschild", "Cochain", "value", TIMED,
     False),
    ("hochschild.Derived.value", "hochschild", "Derived", "value", TIMED,
     False),
    ("hochschild.total_differential", "hochschild", None,
     "total_differential", TIMED, True),
    ("hochschild.interior_hh", "hochschild", None, "interior_hh", TIMED,
     True),
    ("trio.XCochain.value", "trio", "XCochain", "value", TIMED, False),
    ("trio.XDerived.value", "trio", "XDerived", "value", TIMED, False),
    ("trio.EndCochain.value", "trio", "EndCochain", "value", TIMED, False),
    ("duflo.lift_central_through_projection", "duflo", None,
     "lift_central_through_projection", TIMED, True),
    ("duflo.null_homotopy", "duflo", None, "null_homotopy", TIMED, True),
    ("duflo.koszul_preimage", "duflo", None, "koszul_preimage", TIMED, True),
    ("duflo.LinearXCochain.value", "duflo", "LinearXCochain", "value", TIMED,
     False),
    ("duflo.DufloContext.homotopy_component", "duflo", "DufloContext",
     "homotopy_component", TIMED, True),
]

# every call of these lands in the one counter "exact.GradedVector.ops"
VECTOR_OPS = ("__add__", "__neg__", "scale", "add_inplace", "add_term",
              "copy")

LAYERS = ("exact", "liealg", "keller", "hochschild", "trio", "duflo")


PACKAGE = "hochduflo"


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self._ids = itertools.count(1)
        # frame = [time covered by traced children, id of nearest span]
        self._stack = [[0.0, 0]]
        self._patches = []

    # -- installation -------------------------------------------------------

    def _module(self, name):
        return sys.modules["%s.%s" % (PACKAGE, name)]

    def _package_modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or
                                      n.startswith(prefix))]

    def _stat(self, name):
        return self.stats.setdefault(name, Stat())

    def _patch(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def _rebind_function(self, module_name, attr, make):
        original = getattr(self._module(module_name), attr)
        wrapper = make(original)
        bound = 0
        for mod in self._package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError("no binding of %s.%s found"
                               % (module_name, attr))

    def _replace_method(self, module_name, cls_name, attr, make):
        cls = getattr(self._module(module_name), cls_name)
        if attr not in vars(cls):
            raise RuntimeError("%s.%s defines no %s of its own"
                               % (module_name, cls_name, attr))
        self._patch(cls, attr, make(vars(cls)[attr]))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, mod, cls, attr, kind, span in TARGETS:
                make = self._factory(name, kind, span)
                if cls is None:
                    self._rebind_function(mod, attr, make)
                else:
                    self._replace_method(mod, cls, attr, make)
            ops = self._stat("exact.GradedVector.ops")
            for attr in VECTOR_OPS:
                self._replace_method("exact", "GradedVector", attr,
                                     lambda fn: self._counted(ops, fn))
            overflow = self._module("exact").WindowOverflow
            raised = self._stat("exact.WindowOverflow.raised")
            base_init = overflow.__init__

            def counting_init(exc, *args):
                raised.calls += 1
                base_init(exc, *args)

            self._patch(overflow, "__init__", counting_init)
            suites = self._module("suites")
            for attr in sorted(vars(suites)):
                if attr.startswith("suite_") or attr == "run_suite":
                    self._rebind_function(
                        "suites", attr,
                        self._factory("suites." + attr, TIMED, True))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put every original back and close the pass's reuse ratios."""
        for stat in self.stats.values():
            stat.end_pass()
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- wrappers -----------------------------------------------------------

    def _factory(self, name, kind, span):
        stat = self._stat(name)
        if kind == COUNTED:
            return lambda fn: self._counted(stat, fn)
        # the key is the whole argument tuple, window object included: the
        # unit a memo table would have.  Windows hash by identity, and holding
        # them in the key set for the pass keeps a freed window's address
        # from being reused by another
        keyed = kind == KEYED
        pre = self._matrix_stats(stat) if kind == MATRIX else None
        span_name = name if span else None
        return lambda fn: self._timed(stat, fn, span_name, keyed, pre)

    @staticmethod
    def _counted(stat, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _matrix_stats(self, stat):
        """Shape, non-zeros and a fingerprint of each eliminated matrix."""
        extra = stat.extra
        # callers fill dense rows with this one object; skipping it by
        # identity keeps the scan of a large sparse matrix cheap
        zero = self._module("exact").ZERO

        def pre(args):
            rows = args[0]
            ncols = len(rows[0]) if rows else 0
            cells = len(rows) * ncols
            entries = tuple((i, j, c.numerator, c.denominator)
                            for i, row in enumerate(rows)
                            for j, c in enumerate(row)
                            if c is not zero and c)
            extra["cells"] += cells
            extra["nnz"] += len(entries)
            extra["max_cells"] = max(extra["max_cells"], cells)
            stat.keys.add(hash((len(rows), ncols, entries)))
        return pre

    def _timed(self, stat, fn, span_name=None, keyed=False, pre=None):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                # the scan is tracer work: count it as covered time of the
                # enclosing span, so no layer's self time is charged for it
                t = clock()
                pre(args)
                stack[-1][0] += clock() - t
            if keyed:
                stat.keys.add(args)
            parent = stack[-1][1]
            sid = next(ids) if span_name is not None else parent
            frame = [0.0, sid]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.active -= 1
                if not stat.active:
                    stat.total_s += dt
                if span_name is not None:
                    spans.append((sid, parent, span_name, t0, t1))
        return wrapper

    def span(self, name, fn):
        """Run ``fn()`` as a traced span of its own (a benchmark operation)."""
        return self._timed(self._stat(name), fn, name)()

    # -- results ------------------------------------------------------------

    def calls(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def per_layer(self, passes, pass_s, overhead_ratio):
        """Per-layer metrics, per traced pass: name -> (value, unit)."""
        st = self.stats
        n = float(passes)
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def calls(key):
            put(key + ".calls", st[key].calls / n, "count")

        def self_s(key):
            put(key + ".self_s", st[key].self_s / n, "s")

        def total_s(key):
            put(key + ".total_s", st[key].total_s / n, "s")

        def unique(key):
            put(key + ".unique_ratio", _mean(st[key].ratios), "ratio")

        b = "exact.bareiss_echelon"
        calls(b)
        self_s(b)
        for field in ("cells", "nnz", "max_cells"):
            scale = 1.0 if field == "max_cells" else n
            put("%s.%s" % (b, field), st[b].extra[field] / scale, "count")
        put(b + ".distinct_ratio", _mean(st[b].ratios), "ratio")
        for key in ("exact.rows_solve", "exact.rows_nullspace",
                    "exact.cohomology_slice"):
            calls(key)
            total_s(key)
        calls("exact.rows_rank")
        put("exact.GradedVector.ops", st["exact.GradedVector.ops"].calls / n,
            "count")
        put("exact.WindowOverflow.raised",
            st["exact.WindowOverflow.raised"].calls / n, "count")

        for key in ("liealg.UgWindow.mul_keys", "liealg.DualOdd.mul_keys",
                    "liealg.OddSym.coderivation_bracket_key",
                    "keller.LieTriple._d_x_key",
                    "keller.LieTriple._rmul_key"):
            calls(key)
            self_s(key)
            unique(key)
        normal = "liealg.UgWindow.normal_order"
        calls(normal)
        put(normal + ".hit_ratio",
            1.0 - _ratio(st[normal + ".miss"].calls, st[normal].calls)
            if st[normal].calls else 0.0, "ratio")
        for key in ("liealg.contract", "keller.LieTriple._lmul_key",
                    "keller.ModuleCochain.value",
                    "hochschild.Cochain.value", "hochschild.Derived.value",
                    "trio.XCochain.value", "trio.XDerived.value",
                    "trio.EndCochain.value", "duflo.null_homotopy",
                    "duflo.LinearXCochain.value",
                    "duflo.DufloContext.homotopy_component"):
            calls(key)
            self_s(key)
        for key in ("keller.AugmentationCone.build_homotopy",
                    "keller.row_exactness_certificate"):
            calls(key)
            total_s(key)
        for key in ("keller.kernel_dimension_match",
                    "hochschild.total_differential",
                    "hochschild.interior_hh"):
            total_s(key)
        lift = "duflo.lift_central_through_projection"
        total_s(lift)
        self_s(lift)
        calls("duflo.koszul_preimage")

        suite_keys = [k for k in st if k.startswith("suites.")]
        put("suites.self_s", sum(st[k].self_s for k in suite_keys) / n, "s")
        put("suites.ops", sum(st[k].calls for k in suite_keys) / n, "count")
        for layer in LAYERS:
            put(layer + ".self_s",
                sum(s.self_s for k, s in st.items()
                    if k.startswith(layer + ".")) / n, "s")
        put("trace.pass_s", pass_s, "s")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        return out
