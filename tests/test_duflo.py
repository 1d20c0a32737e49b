"""The symmetrization pipeline: series, contraction, comparison maps, the
pullback homotopy, and the endgame certificates."""

import random
from fractions import Fraction as Q

import pytest

from hochduflo.exact import (GradedMap, GradedVector, derive_seed,
                             random_vector)
from hochduflo.liealg import (LieAlgebra, SymPoly, UgWindow, ce_module_sym,
                              interior_product, invariants_basis, pbw_map)
from hochduflo.series import PolyTrunc, duflo_log_coefficients
from hochduflo.duflo import (DufloContext, PolyVectors, duflo_series, hkr,
                             hkr_cochain, invariance_defects,
                             lift_central_through_projection, lift_residuals,
                             phi2_tilde, random_pullback_element,
                             series_contraction, todd_determinant,
                             trace_ad_powers, atiyah_cocycle)
from hochduflo.suites import (suite_duflo_maps, suite_homotopy_identity,
                              suite_duflo_endgame)

from oracles import duflo_log_oracle


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
    inv = invariants_basis(sl2, ce_module_sym(sym), 0)
    P = [v for v in inv if v.coeffs and all(len(k) == 2 for k in v.coeffs)][0]
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
        want = interior_product(tp.dual, tp.odd, (0,),
                                GradedVector.basis(tp.dual.space, b))
        assert got == GradedVector(B.space, want.coeffs)


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
        iv = interior_product(dual, odd, x,
                              GradedVector.basis(dual.space, f))
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
    inv = invariants_basis(sl2, ce_module_sym(ctx.sym), 0)
    P = [v for v in inv if v.coeffs and all(len(k) == 2 for k in v.coeffs)][0]
    q = series_contraction(ctx.sym, Js, P)
    u = pbw_map(ctx.sym, ctx.ug, q)
    q2 = series_contraction(ctx.sym, Js, ctx.sym.mul(P, P))
    assert ctx.ug.mul(u, u) == pbw_map(ctx.sym, ctx.ug, q2)
    u0 = pbw_map(ctx.sym, ctx.ug, P)
    assert ctx.ug.mul(u0, u0) != pbw_map(ctx.sym, ctx.ug,
                                         ctx.sym.mul(P, P))


def test_lift_and_class_certificate(heis3):
    """The bimodule lift of the corrected symmetrization projects onto the
    corrected polyvector image, at desk scale."""
    ctx = DufloContext(heis3, pbw_cap=6, sym_cap=4)
    J, Js = duflo_series(heis3, 4)
    inv = invariants_basis(heis3, ce_module_sym(ctx.sym), 0)
    P = [v for v in inv if v.coeffs and all(len(k) == 2 for k in v.coeffs)][0]
    tprime = series_contraction(ctx.sym, Js, P)
    u0 = pbw_map(ctx.sym, ctx.ug, tprime)
    comps, fB = lift_central_through_projection(ctx, u0, depth=5)
    x_keys = [k for k in ctx.X.space.keys if len(k[0]) + len(k[1]) <= 2]
    assert lift_residuals(ctx, u0, comps, fB, x_keys) == []
