"""The benchmark's workloads, built only from the package's public functions.

A workload is a fixed list of operations.  ``setup()`` builds the Lie
algebras, windows and contexts the list runs against (fresh objects, so the
lazy window caches start empty), and ``operations(state)`` returns the list
in the workload's seeded order.  Each operation is a ``(name, fn)`` pair;
``fn()`` returns ``None`` when its exact check passes and a witness
otherwise.  Results handed out by the package are never mutated here: cached
vectors (``UgWindow.normal_order``) are shared with later operations.
"""

from __future__ import annotations

import random

from hochduflo import duflo as D
from hochduflo import exact as E
from hochduflo import hochschild as H
from hochduflo import keller as K
from hochduflo import liealg as L
from hochduflo import suites as S


def _suite_witness(report):
    """None when every check of a suite report passed (none skipped)."""
    bad = [c for c in report.checks if c.status != "pass"]
    if not bad:
        return None
    return ["%s:%s:%s" % (report.suite, c.name, c.status) for c in bad]


# ---------------------------------------------------------------------------
# endgame: the corrected-symmetrization route comparison (AC9's check)
# ---------------------------------------------------------------------------

class Endgame:
    """``route-classes-agree`` of the Duflo endgame on heisenberg3.

    The lift of the corrected-symmetrized Casimir through the bimodule
    projection (tens of thousands of lazy evaluator calls and a few thousand
    small null homotopies), its residual sweep, and the class match: one
    1066 x 882 very sparse exact solve.  The staircase stops one stage
    earlier than the suite's (``max_extra=1``): on heisenberg3 the last stage
    only re-solves 8^5 dual words to zero, and the lifted components and
    ``fB`` are the same.  Inputs do not depend on the seed.
    """

    name = "endgame"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        g = L.LieAlgebra.heisenberg3()
        ctx = D.DufloContext(g, pbw_cap=6, sym_cap=4)
        _J, Js = D.duflo_series(g, 4)
        inv = L.invariants_basis(g, L.ce_module_sym(ctx.sym), 0)
        quad = [v for v in inv
                if v.coeffs and all(len(k) == 2 for k in v.coeffs)]
        tprime = D.series_contraction(ctx.sym, Js, quad[0])
        t_vec = E.GradedVector.zero(ctx.tp.space)
        for mk, c in tprime.coeffs.items():
            t_vec.add_term(((), mk), c)
        return {"ctx": ctx, "u0": L.pbw_map(ctx.sym, ctx.ug, tprime),
                "hkr": D.hkr(ctx.tp, ctx.B, t_vec)}

    def operations(self, st):
        return [("route-classes-agree", lambda: self.route(st))]

    @staticmethod
    def route(st):
        ctx, u0 = st["ctx"], st["u0"]
        comps, fB = D.lift_central_through_projection(ctx, u0, depth=5,
                                                      max_extra=1)
        x_keys = [k for k in ctx.X.space.keys
                  if len(k[0]) + len(k[1]) <= 2]
        bad = D.lift_residuals(ctx, u0, comps, fB, x_keys)
        if bad:
            return ("lift residual", bad[0][:3])
        return class_mismatch(ctx, fB, st["hkr"])


def class_mismatch(ctx, parts1, parts2):
    """None when two B-cochain families are window cocycles that differ by
    a coboundary (the suite's class match, arity window = dim g)."""
    arity_cap = ctx.g.dimension
    here = H.total_cochain_space(ctx.B, ctx.B.space, 0, arity_cap)
    below = H.total_cochain_space(ctx.B, ctx.B.space, -1, arity_cap)
    above = H.total_cochain_space(ctx.B, ctx.B.space, 1, arity_cap + 1)
    d_in = H.total_differential(ctx.B, ctx.b_ops, below, here)
    d_out = H.total_differential(ctx.B, ctx.b_ops, here, above)

    def tototal(parts):
        out = E.GradedVector.zero(here)
        for (p, word, vkey) in here.keys:
            r = ctx.B.space.degree[vkey] \
                - sum(ctx.B.space.degree[k] for k in word)
            f = parts.get((p, r))
            if f is None or f.p != p:
                continue
            c = f.value(word).coeff(vkey)
            if c:
                out.add_term((p, word, vkey), c)
        return out

    v1, v2 = tototal(parts1), tototal(parts2)
    if d_out(v1) or d_out(v2):
        return "not window cocycles"
    rows = list(here.keys)
    cols = list(below.keys)
    index = {k: i for i, k in enumerate(rows)}
    mat = [[E.ZERO] * len(cols) for _ in rows]
    for j, ck in enumerate(cols):
        for tk, c in d_in.column(ck).coeffs.items():
            mat[index[tk]][j] = c
    diff = v1 - v2
    if E.rows_solve(mat, [diff.coeff(k) for k in rows]) is None:
        return "route classes differ"
    return None


# ---------------------------------------------------------------------------
# certificates: short seeded identity sweeps through the lazy evaluators
# ---------------------------------------------------------------------------

AC3_ALGEBRAS = ("abelian1", "aff1", "heisenberg3", "sl2")
AC8_ALGEBRAS = ("sl2", "heisenberg3")
# Degree-2 elements take 0.9 to 1.3 s and degree-1 elements 0.5 to 1.0 s,
# depending on the seed.  The 90th latency percentile falls among the
# slowest operations, so only degrees 0 and 2 are drawn: a steady cluster
# of degree-2 identities sits at that rank instead of a seed-sensitive mix.
AC8_DEGREES = (0, 2, 2)


def _algebra(name):
    if name == "abelian1":
        return L.LieAlgebra.abelian(1)
    return getattr(L.LieAlgebra, name)()


class Certificates:
    """Seeded exactness sweeps; almost no elimination.

    Per pass: 48 one-sided homotopy row certificates (the AC3 family: four
    algebras, both sides, p + q <= 2, r seeded from {0, -1}); the pullback
    homotopy identity on 6 seeded elements (AC8's family, sl2 and
    heisenberg3 at PBW 8, total degrees 0, 2 and 2); the Hochschild axioms on aff1
    (arity 4, 100 trials); the phi/psi embeddings on aff1 (15 trials); and two
    tail-vanishing sweeps of module-valued cochains.  The seed drives every
    cochain and the order of the operations.
    """

    name = "certificates"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        return {
            "triples": {n: K.LieTriple(_algebra(n), 5) for n in AC3_ALGEBRAS},
            "contexts": {n: D.DufloContext(_algebra(n), pbw_cap=8, sym_cap=4)
                         for n in AC8_ALGEBRAS},
        }

    def operations(self, st):
        seed = self.seed
        rng = random.Random(E.derive_seed("certificates", seed))
        ops = []
        for name in AC3_ALGEBRAS:
            triple = st["triples"][name]
            n_inputs = 60 if triple.g.dimension >= 3 else 120
            for side in ("R", "L"):
                for p in range(3):
                    for q in range(3 - p):
                        r = rng.choice((0, -1))
                        s = E.derive_seed("bench-rx", seed, name, side, p, q)
                        ops.append((
                            "row-exactness/%s/%s/%d%d%d" % (name, side, p, q,
                                                            r),
                            lambda t=triple, a=(side, p, q, r, s, n_inputs):
                            _row_witness(t, *a)))
        for name in AC8_ALGEBRAS:
            ctx = st["contexts"][name]
            for k, n in enumerate(AC8_DEGREES):
                s = E.derive_seed("bench-hi", seed, name, n, k)
                ops.append(("homotopy-identity/%s/%d" % (name, n),
                            lambda c=ctx, n=n, s=s: _homotopy_witness(c, n,
                                                                      s)))
        aff1 = L.LieAlgebra.aff1()
        ops.append(("suite/hochschild-axioms/aff1", lambda: _suite_witness(
            S.suite_hochschild_axioms(aff1, max_arity=4, trials=100,
                                      seed=seed))))
        ops.append(("suite/phi-psi/aff1", lambda: _suite_witness(
            S.suite_phi_psi(aff1, trials=15, seed=seed))))
        for p, r in ((0, 0), (0, 1)):
            ops.append(("tail-vanishing/%d%d" % (p, r),
                        lambda p=p, r=r: _tail_witness(p, r, seed)))
        rng.shuffle(ops)
        return ops


def _row_witness(triple, side, p, q, r, seed, n_inputs):
    bad = K.row_exactness_certificate(triple, side, p, q, r, seed,
                                      n_inputs=n_inputs)
    return bad[0][:3] if bad else None


def _homotopy_witness(ctx, degree, seed):
    e = D.random_pullback_element(ctx, degree, seed)
    res = ctx.homotopy_identity_residual(e, degree)
    return None if res.is_zero() else res


def _tail_witness(p, r, seed):
    """Tails (H d_H)^k H f of a seeded module-valued cochain vanish past
    the bound (the vanishing suite's tail check at one (p, r))."""
    cone = K.AbelianActionCone(dom_cap=5, val_cap=16)
    module = cone.module()
    algebra = H.ug_algebra(cone.val)
    letters = [k for k in cone.val.space.keys if len(k) <= 1]
    space = cone.val.space

    def low(vec):
        return E.GradedVector(space, {k: c for k, c in vec.coeffs.items()
                                      if len(k) <= 2})

    def words_fn(n):
        out = [()]
        for _ in range(n):
            out = [w + (a,) for w in out for a in letters]
        return out[:30]

    def fn(word):
        s = E.derive_seed("bench-tail", seed, word, p, r)
        v = low(E.random_vector(space, 0, s)) if r == 0 \
            else E.GradedVector.zero(space)
        g0 = E.GradedMap(cone.dom.space, space, 0)
        g1 = E.GradedMap(cone.dom.space, space, 0)
        for u in cone.dom.space.keys:
            col = low(E.random_vector(space, 0, E.derive_seed("tg", s, u, r)))
            if r == 0:
                g0.set_column(u, col, check=False)
            g1.set_column(u, col, check=False)
        return (v, g0, g1)

    f = K.ModuleCochain(algebra, module, p, fn, label="tail")
    bound = p + r + cone.degree_bound()
    last, _seq = K.frak_h_vanishing_index(f, r, bound + 2, words_fn)
    return None if last <= bound else ((p, r), last, bound)


# ---------------------------------------------------------------------------
# elimination: many small and medium, denser exact systems
# ---------------------------------------------------------------------------

# interior Hochschild dimensions of the dual-odd algebras at the seed commit
INTERIOR_HH = {("heisenberg3", 3): {-1: 0, 0: 3, 1: 16},
               ("sl2", 3): {-1: 0, 0: 2, 1: 5},
               ("aff1", 5): {0: 1}}
# (kernel, linear) dimensions of kernel_dimension_match at the seed commit
KERNEL_DIMS = {("heisenberg3", "L"): (20, 20), ("sl2", "L"): (20, 20)}


class Elimination:
    """Exact elimination on many small and medium systems.

    Fresh filtration homotopies of the augmentation cone (heisenberg3 and
    sl2 at depth 5, about a hundred small solves each), one-sided kernel
    dimension matches (medium nullspaces), and interior Hochschild
    cohomology of the dual-odd algebras (heisenberg3 and sl2 at window 3 in
    degrees -1..1, aff1 at window 5 in degree 0).  Each
    operation builds its own windows, so its time does not depend on the
    order; the seed only shuffles the order.
    """

    name = "elimination"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        return {n: _algebra(n) for n in ("aff1", "heisenberg3", "sl2")}

    def operations(self, algebras):
        ops = []
        for name in ("heisenberg3", "sl2"):
            g = algebras[name]
            ops.append(("cone-homotopy/%s/5" % name,
                        lambda g=g: _cone_witness(g, 5)))
        for (name, side), want in sorted(KERNEL_DIMS.items()):
            ops.append(("kernel-dimensions/%s/%s" % (name, side),
                        lambda g=algebras[name], side=side, want=want:
                        _kernel_witness(g, side, want)))
        for (name, window), dims in sorted(INTERIOR_HH.items()):
            for degree, want in sorted(dims.items()):
                ops.append(("interior-hh/%s/%d/%d" % (name, window, degree),
                            lambda g=algebras[name], w=window, n=degree,
                            want=want: _interior_witness(g, w, n, want)))
        random.Random(E.derive_seed("elimination", self.seed)).shuffle(ops)
        return ops


def _cone_witness(g, depth):
    cone = K.AugmentationCone(K.LieTriple(g, depth), depth)
    h = cone.build_homotopy()
    if h.column(("k",)) != E.GradedVector.basis(cone.space,
                                                ("x", ((), ()))):
        return "base value"
    bad = cone.homotopy_residuals() or cone.containment_violations()
    return bad[0] if bad else None


def _kernel_witness(g, side, want):
    got = K.kernel_dimension_match(K.LieTriple(g, 5), side, 0, dom_pbw=1,
                                   val_pbw=1)
    return None if got == want else got


def _interior_witness(g, window, degree, want):
    algebra = H.dual_odd_algebra(L.DualOdd(g), L.OddSym(g))
    dim, _reps = H.interior_hh(algebra, degree, window)
    return None if dim == want else dim


WORKLOADS = {w.name: w for w in (Endgame, Certificates, Elimination)}
