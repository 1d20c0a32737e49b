"""The symmetrization pipeline: series, contraction, comparison maps, the
pullback homotopy, and the endgame certificates."""

import random
from fractions import Fraction as Q

import pytest

from hochduflo import duflo
from hochduflo.exact import (GradedVector, LazyMap, StructuralError,
                             WindowOverflow, derive_seed)
from hochduflo.hochschild import Cochain, Derived, TotalSlice, words_of
from hochduflo.liealg import LieAlgebra, SymPoly, pbw_map
from hochduflo.series import PolyTrunc, duflo_log_coefficients
from hochduflo.duflo import (DufloContext, LinearValue, LinearXCochain,
                             PolyVectors, duflo_series, hkr, hkr_cochain,
                             invariance_defects,
                             lift_central_through_projection, lift_residuals,
                             phi2_tilde, quadratic_invariant,
                             random_pullback_element, series_contraction,
                             todd_determinant, trace_ad_powers,
                             atiyah_cocycle)
from hochduflo.suites import suite_duflo_maps, suite_homotopy_identity
from hochduflo.trio import XDerived, d_right, d_xb, del_x

from oracles import (duflo_log_oracle, full_sweep_lift, old_b_complex,
                     old_class_match, old_corrected_image, old_get_quadratic,
                     old_hkr_value, old_polyvector_mul_keys, old_tototal)


def test_log_coefficients_against_ode_oracle():
    got = duflo_log_coefficients(8)
    want = duflo_log_oracle(8)
    assert got == want
    assert got[1] == Q(-1, 2)
    assert got[2] == Q(1, 24)
    assert got[3] == 0
    assert got[4] == Q(-1, 2880)


def test_series_examples(abelian2, heis3, sl2):
    J, Js = duflo_series(abelian2, 4)
    assert J == PolyTrunc.constant(2, 4)
    Jh, _ = duflo_series(heis3, 5)
    assert Jh == PolyTrunc.constant(3, 5)       # nilpotent traces vanish
    J2, Js2 = duflo_series(sl2, 4)
    tr = trace_ad_powers(sl2, 4)
    assert J2.component(2) == tr[2].scale(Q(1, 24))
    assert (Js2 * Js2) == J2
    assert not invariance_defects(sl2, J2)
    assert not invariance_defects(sl2, Js2)


def test_atiyah_and_determinant(aff1, sl2):
    at = atiyah_cocycle(aff1, None)
    col = at.column((0, 1))
    assert dict(col.coeffs) == {1: Q(1)}        # at(e1, e2) = shifted e2
    at0 = atiyah_cocycle(LieAlgebra.abelian(2), None)
    assert at0.is_zero()
    for g in (aff1, sl2):
        J, _ = duflo_series(g, 4)
        assert todd_determinant(g, 4) == J


def test_series_contraction(sl2):
    sym = SymPoly(sl2, 4)
    one = PolyTrunc.constant(3, 4)
    v = GradedVector.basis(sym.space, (0, 1, 2))
    assert series_contraction(sym, one, v) == v
    # order >= 1 components annihilate low degrees
    S = PolyTrunc(3, 4, {(0, 1): 3})
    low = GradedVector.basis(sym.space, (2,))
    assert series_contraction(sym, S, low).is_zero()
    # the corrected Casimir picks up the frozen scalar
    P = quadratic_invariant(sl2, sym)
    _, Js = duflo_series(sl2, 4)
    got = series_contraction(sym, Js, P)
    scalar = got.coeff(())
    # oracle: the half of the order-two coefficient paired against P
    tr2 = trace_ad_powers(sl2, 4)[2].scale(Q(1, 48))
    expect = Q(0)
    for key, c in tr2.coeffs.items():
        work = dict(P.coeffs)
        term = series_contraction(sym, PolyTrunc(3, 4, {key: c}), P)
        expect += term.coeff(())
    assert scalar == expect and scalar != 0


def test_hkr_values(aff1):
    tp = PolyVectors(aff1, 3)
    from hochduflo.hochschild import dual_odd_algebra
    from hochduflo.liealg import OddSym, DualOdd
    B = dual_odd_algebra(DualOdd(aff1), OddSym(aff1))
    # arity zero: the functional part passes through
    c0 = hkr_cochain(tp, B, ((1, 0), ()))
    assert c0.value(()) == GradedVector.basis(B.space, (1, 0))
    # arity one: a single interior product
    c1 = hkr_cochain(tp, B, ((), (0,)))
    for b in tp.dual.space.keys:
        got = c1.value((b,))
        want = tp.dual.interior_key((0,), b)
        assert got == GradedVector(B.space, want.coeffs)


def test_hkr_matches_the_per_ordering_evaluator(sl2, monkeypatch):
    """One interior-product table per word gives the values of one
    interior product per ordering: every sl2 polyvector key with q <= 3,
    on every word of arity q.  The oracle's interior products are
    remembered per (letter, word letter), which it only reads."""
    import oracles
    from hochduflo.hochschild import dual_odd_algebra
    from hochduflo.liealg import OddSym, DualOdd
    memo = {}
    stepwise = oracles.old_interior_product

    def remembered(dual, odd, s_key, f):
        key = (tuple(s_key), tuple(f.items()))
        if key not in memo:
            memo[key] = stepwise(dual, odd, s_key, f)
        return memo[key]

    monkeypatch.setattr(oracles, "old_interior_product", remembered)
    tp = PolyVectors(sl2, 3)
    B = dual_odd_algebra(DualOdd(sl2), OddSym(sl2))
    for t_key in tp.space.keys:
        q = len(t_key[1])
        cochain = hkr_cochain(tp, B, t_key, Q(3, 2))
        for word in words_of(B.space.keys, q):
            want = old_hkr_value(tp, B, t_key, word, Q(3, 2))
            assert cochain.value(word) == GradedVector(B.space, want.coeffs)


def test_polyvector_product_reads_the_s_g_product(sl2):
    """On every pair of T_poly keys the product equals the old one with its
    own S(g) product, and it refuses exactly where the old one did; the
    maps built once are shared."""
    tp = PolyVectors(sl2, 2)
    refused = 0
    for k1 in tp.space.keys:
        for k2 in tp.space.keys:
            try:
                want = old_polyvector_mul_keys(tp, k1, k2)
            except WindowOverflow:
                with pytest.raises(WindowOverflow):
                    tp.mul_keys(k1, k2)
                refused += 1
                continue
            assert tp.mul_keys(k1, k2) == want, (k1, k2)
    assert refused
    assert tp.ce() is tp.ce() and tp.phi_t() is tp.phi_t()
    assert tp.ce().d is tp.ce().d and tp.d_t() is tp.d_t()
    key = tp.ce().space.keys[-1]
    assert tp.ce().d.column(key) is tp.ce().d.column(key)


def test_hkr_values_live_in_the_cochain_module(aff1):
    """hkr values are vectors of B's own space, not of the polyvectors'
    DualOdd space (same name and keys, another object)."""
    ctx = DufloContext(aff1, pbw_cap=6, sym_cap=4)
    assert ctx.B.space is not ctx.tp.dual.space
    t = GradedVector.basis(ctx.tp.space, ((1, 0), (0, 1)))
    f = hkr(ctx.tp, ctx.B, t)[(2, 0)]
    values = [f.value((a, b)) for a in ctx.B.space.keys
              for b in ctx.B.space.keys]
    assert all(v.space is ctx.B.space for v in values)
    assert any(values)
    assert sum(values[1:], values[0]) == \
        GradedVector.basis(ctx.B.space, (1, 0), Q(-1))


def test_interior_product_characterization(sl2):
    """<iota_x f, y> = (-1)^{|x||f|} <f, x . y> over the bases."""
    from hochduflo.liealg import OddSym, DualOdd, pair_dual_vec
    from hochduflo.signs import sgn
    odd, dual = OddSym(sl2), DualOdd(sl2)
    rng = random.Random(0)
    for _ in range(60):
        x = rng.choice(odd.space.keys)
        f = rng.choice(dual.space.keys)
        iv = dual.interior_key(x, f)
        for y in odd.space.keys:
            lhs = sum((c * pair_dual_vec(k, y) for k, c in iv.items()), Q(0))
            prod = odd.mul_keys(x, y)
            rhs = sum((c * pair_dual_vec(f, k) for k, c in prod.items()),
                      Q(0)) * sgn(len(x) * len(f))
            assert lhs == rhs


def test_phi2_point_values(sl2):
    ctx = DufloContext(sl2, pbw_cap=4, sym_cap=3)
    from hochduflo.hochschild import Cochain
    f = Cochain(ctx.A, ctx.A, 1, 0, columns={
        ((0,),): GradedVector.basis(ctx.ug.space, (2,))})
    m = phi2_tilde(f, ctx.odd, ctx.ug)
    assert m.column((0,)) == GradedVector.basis(ctx.ug.space, (2,))
    assert m.column((1,)).is_zero()


def test_pullback_differential_decomposition(aff1):
    ctx = DufloContext(aff1, pbw_cap=6, sym_cap=4)
    from hochduflo.duflo import PullbackElement
    t = GradedVector.basis(ctx.tp.space, (((1,), (0,))))
    e = PullbackElement(t=t)
    De = ctx.pullback_differential(e)
    assert De.t == ctx.tp.d_t()(t)
    assert set(De.fA) == set()
    assert all(q is not None for q in De.fX)
    # pure A-part: only the two A-legs appear
    from hochduflo.hochschild import Cochain
    fA = Cochain(ctx.A, ctx.A, 0, 0, columns={
        (): GradedVector.basis(ctx.ug.space, (0,))})
    e2 = PullbackElement(fA={(0, 0): fA})
    De2 = ctx.pullback_differential(e2)
    assert (De2.t is None) or De2.t.is_zero()
    assert (1, 0) in De2.fA and (0, 0, 0) in De2.fX


def test_homotopy_operator_shape(aff1):
    ctx = DufloContext(aff1, pbw_cap=6, sym_cap=4)
    from hochduflo.signs import sgn
    assert sgn(0 * 0 + 0 + 0 * 1 // 2) == 1
    e = random_pullback_element(ctx, 1, 5)
    from hochduflo.duflo import PullbackElement
    pure = PullbackElement(fA=e.fA, t=e.t)
    h = ctx.homotopy(pure)
    assert h.is_zero()        # extension by zero off the mixed part


def test_homotopy_identity_suites(aff1, sl2):
    r = suite_homotopy_identity(aff1, trials=30, seed=0)
    assert r.ok, [(c.name, c.witness) for c in r.checks if not c.ok]
    r2 = suite_homotopy_identity(sl2, trials=6, seed=0)
    assert r2.ok, [(c.name, c.witness) for c in r2.checks if not c.ok]


def test_duflo_maps_suite(aff1):
    r = suite_duflo_maps(aff1, trials=16, seed=0)
    assert r.ok, [(c.name, c.witness) for c in r.checks if not c.ok]


def test_abelian_routes_are_identity(abelian2):
    """Both routes collapse to the same symmetric window for abelian data."""
    ctx = DufloContext(abelian2, pbw_cap=4, sym_cap=3)
    J, Js = duflo_series(abelian2, 4)
    assert Js == PolyTrunc.constant(2, 4)
    sym = ctx.sym
    rng = random.Random(1)
    for _ in range(10):
        key = rng.choice([k for k in sym.space.keys if len(k) <= 3])
        v = GradedVector.basis(sym.space, key)
        assert series_contraction(sym, Js, v) == v
        assert pbw_map(sym, ctx.ug, v) == \
            GradedVector.basis(ctx.ug.space, key)


def test_casimir_multiplicativity(sl2):
    ctx = DufloContext(sl2, pbw_cap=4, sym_cap=4)
    J, Js = duflo_series(sl2, 4)
    P = quadratic_invariant(sl2, ctx.sym)
    q = series_contraction(ctx.sym, Js, P)
    u = pbw_map(ctx.sym, ctx.ug, q)
    q2 = series_contraction(ctx.sym, Js, ctx.sym.mul(P, P))
    assert ctx.ug.mul(u, u) == pbw_map(ctx.sym, ctx.ug, q2)
    u0 = pbw_map(ctx.sym, ctx.ug, P)
    assert ctx.ug.mul(u0, u0) != pbw_map(ctx.sym, ctx.ug,
                                         ctx.sym.mul(P, P))


def corrected_casimir(g):
    """The endgame's window on g and the PBW image of its corrected
    quadratic invariant."""
    ctx = DufloContext(g, pbw_cap=6, sym_cap=4)
    J, Js = duflo_series(g, 4)
    P = quadratic_invariant(g, ctx.sym)
    return ctx, pbw_map(ctx.sym, ctx.ug, series_contraction(ctx.sym, Js, P))


def lift_columns(comps, fB):
    """The non-zero generator values per (stage, word) and the f_B columns
    per (bidegree, word) of a lift."""
    gens = {(q, bw): s.gen for q, c in comps.items()
            for bw, s in c.columns.items() if s.gen}
    cols = {(k, bw): v for k, f in fB.items()
            for bw, v in f.columns.items()}
    return gens, cols


def test_lift_and_class_certificate(heis3, monkeypatch):
    """The bimodule lift of the corrected symmetrization projects onto the
    corrected polyvector image, at desk scale.  Neither the lift nor its
    residual sweep builds a lazy End(X) map, so the lift's absorber, which
    adds into the columns it builds, never reaches a shared lazy column."""
    ctx, u0 = corrected_casimir(heis3)
    built = []
    build = LazyMap.__init__

    def counting_init(self, *args):
        built.append(args)
        build(self, *args)

    monkeypatch.setattr(LazyMap, "__init__", counting_init)
    comps, fB = lift_central_through_projection(ctx, u0, depth=5)
    x_keys = [k for k in ctx.X.space.keys if len(k[0]) + len(k[1]) <= 2]
    assert lift_residuals(ctx, u0, comps, fB, x_keys) == []
    assert built == []


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
def test_total_slice_matches_the_suite_closures(name):
    """At the endgame's window (PBW 6, S(g) cap 4, lift depth 5) the class
    test of ``TotalSlice`` gives the slice vectors, key for key, and the
    answers of the closures the suite used before: f_B has the class of the
    corrected polyvector image, 2 f_B does not, and a family that is not a
    cocycle has none."""
    g = getattr(LieAlgebra, name)()
    ctx = DufloContext(g, pbw_cap=6, sym_cap=4)
    _J, Js = duflo_series(g, 4)
    P = quadratic_invariant(g, ctx.sym)
    assert P == old_get_quadratic(g, ctx)
    tprime, old_hkr = old_corrected_image(ctx, Js, P)
    new_hkr = hkr(ctx.tp, ctx.B, ctx.tp.function(tprime))
    _comps, fB = lift_central_through_projection(
        ctx, pbw_map(ctx.sym, ctx.ug, tprime), depth=5)
    twice = {k: f.derived(f.p, f.r, lambda w, f=f: f.value(w).scale(2), "2f")
             for k, f in fB.items()}
    total = TotalSlice(ctx.B, ctx.b_ops, 0, g.dimension)
    old = old_b_complex(g, ctx)
    assert total.space.keys == old[0].keys
    assert total.d_in.source.keys == old[1].source.keys
    assert total.d_out.target.keys == old[2].target.keys
    for new_parts, old_parts in ((fB, fB), (twice, twice),
                                 (new_hkr, old_hkr)):
        got = total.vector(new_parts)
        want = old_tototal(ctx, old[0], old_parts)
        assert got and list(got.coeffs.items()) == list(want.coeffs.items())
    assert old_class_match(ctx, old, fB, old_hkr) is True
    assert total.same_class(fB, new_hkr) is True
    assert old_class_match(ctx, old, twice, old_hkr) is False
    assert total.same_class(twice, new_hkr) is False
    # a family that is not a cocycle on the slice has no class, on either side
    a = ctx.B.space.keys_of_degree(1)[0]
    loose = {(1, -1): Cochain(ctx.B, ctx.B, 1, -1,
                              columns={(a,): ctx.B.unit()})}
    assert total.d_out(total.vector(loose))
    assert old_class_match(ctx, old, fB, loose) is None
    assert total.same_class(fB, loose) is None
    assert total.same_class(loose, fB) is None


def test_lift_matches_the_full_sweep(heis3):
    """Solving only the words a live column reaches gives the components and
    f_B of the sweep over every dual word."""
    ctx, u0 = corrected_casimir(heis3)
    got = lift_columns(*lift_central_through_projection(ctx, u0, depth=5,
                                                        max_extra=1))
    want = lift_columns(*full_sweep_lift(ctx, u0, depth=5, max_extra=1))
    assert got[0] and got[1]
    assert got == want


def uncached(cls):
    """``cls._value`` without its memo: the formula on every read."""
    formula = cls._value.__wrapped__
    return lambda self, *args: formula(self, *args)


def test_lift_guards_its_live_view(heis3, monkeypatch):
    """The lift reads cochains built on f_B columns that its absorber
    changes in place.  With the derived values memoized it gives the
    components and f_B of the uncached formulas.  A d_xb built once per
    f_B view keeps a value from before an absorption, and the lift then
    raises or differs."""
    ctx, u0 = corrected_casimir(heis3)
    got = lift_columns(*lift_central_through_projection(ctx, u0, depth=5,
                                                        max_extra=1))
    assert got[1]                       # the absorber did change f_B
    with monkeypatch.context() as m:
        m.setattr(Derived, "_value", uncached(Derived))
        m.setattr(XDerived, "_value", uncached(XDerived))
        want = lift_columns(*lift_central_through_projection(
            ctx, u0, depth=5, max_extra=1))
    assert got == want

    built = {}

    def once_per_view(fB, A, X):
        if id(fB) not in built:
            built[id(fB)] = fB, d_xb(fB, A, X)    # keeps fB, so its id
        return built[id(fB)][1]

    monkeypatch.setattr(duflo, "d_xb", once_per_view)
    try:
        stale = lift_columns(*lift_central_through_projection(
            ctx, u0, depth=5, max_extra=1))
    except StructuralError:
        stale = None
    assert stale != got


def test_lift_stops_after_two_quiet_stages(heis3, monkeypatch):
    """A stage that solves nothing leaves no reachable word after it: the
    staircase stops after two quiet stages, so a larger ``max_extra``
    enters no further stage and changes nothing."""
    ctx, u0 = corrected_casimir(heis3)
    entered = []

    def counting(letters, q):
        entered.append(q)               # stage q lists its words
        return words_of(letters, q)

    monkeypatch.setattr(duflo, "words_of", counting)
    lifts = {}
    for max_extra in (1, 2):
        entered.clear()
        comps, fB = lift_central_through_projection(ctx, u0, depth=5,
                                                    max_extra=max_extra)
        lifts[max_extra] = lift_columns(comps, fB), entered[:]
    assert lifts[1] == lifts[2]
    (gens, cols), stages = lifts[2]
    last = max([q for q, _ in gens] + [k[0] for k, _ in cols])
    assert stages == list(range(0, max(last + 2, heis3.dimension) + 1))


def random_linear_value(ctx, rng):
    """A LinearValue with one or two random generator values."""
    x_keys = [k for k in ctx.X.space.keys if len(k[0]) <= 1]
    gen = {y: GradedVector(ctx.X.space, {k: rng.choice((-2, -1, 1, 3))
                                         for k in rng.sample(x_keys, 2)})
           for y in rng.sample(list(ctx.odd.space.keys), rng.randint(1, 2))}
    return LinearValue(ctx, gen, 0)


@pytest.mark.parametrize("name,stages", [
    ("aff1", (2, 3)), ("sl2", (2,)), ("heisenberg3", (2,))])
def test_lift_target_vanishes_on_words_no_live_column_reaches(name, stages):
    """The lift's skip rule on random sparse stages: at every word whose
    read words (``_target_reads``) carry no generator value, d_right of the
    previous stage, d_xb of f_B and del_x of the current stage vanish at
    every generator.  The current stage holds no column at the word itself,
    as in the lift, where a word is read before it is solved."""
    g = getattr(LieAlgebra, name)()
    ctx = DufloContext(g, pbw_cap=3, sym_cap=2)
    letters = list(ctx.dual.space.keys)
    reads = duflo._target_reads(ctx.B, letters)
    gens = [((), y) for y in ctx.odd.space.keys]
    rng = random.Random(derive_seed("skip-rule", name))
    for q in stages:
        before_words = words_of(letters, q - 1)
        words = words_of(letters, q)
        for _ in range(6):
            prev = LinearXCochain(ctx, 0, q - 1, -q, {
                w: random_linear_value(ctx, rng)
                for w in rng.sample(before_words, rng.randint(1, 2))})
            cur_cols = {w: random_linear_value(ctx, rng)
                        for w in rng.sample(words, rng.randint(1, 3))}
            current = LinearXCochain(ctx, 0, q, -1 - q, cur_cols)
            reached = [bw for bw in words
                       if not (set(prev.columns).isdisjoint(reads(bw)[0])
                               and set(cur_cols).isdisjoint(reads(bw)[1]))]
            fB = Cochain(ctx.B, ctx.B, q, -q, columns={
                bw: GradedVector.basis(ctx.dual.space, rng.choice(letters))
                for bw in reached})
            pieces = (d_right(prev), d_xb(fB, ctx.A, ctx.X), del_x(current))
            skipped = [bw for bw in words if bw not in reached]
            assert skipped
            for bw in skipped:
                own = cur_cols.pop(bw, None)
                for piece in pieces:
                    for x_key in gens:
                        assert not piece.value((), x_key, bw), \
                            (piece.label, bw, x_key)
                if own is not None:
                    cur_cols[bw] = own
