"""Hochschild calculus over finite dg algebras: formulas and cohomology."""

from itertools import product

import pytest

from hochduflo.exact import GradedVector, StructuralError
from hochduflo.hochschild import (BimoduleOps, Cochain, TotalSlice, circ,
                                  cup, dual_odd_algebra, gerstenhaber,
                                  ground_field, hoch_d, hoch_partial,
                                  identity_cochain, interior_hh,
                                  multiplication_cochain, random_cochain,
                                  unit_cochain, words_of)
from hochduflo.liealg import OddSym, DualOdd
from hochduflo.suites import suite_hochschild_axioms
from hochduflo.signs import sgn


def algebra(g):
    return dual_odd_algebra(DualOdd(g), OddSym(g))


def test_dh_of_identity_is_multiplication(aff1):
    B = algebra(aff1)
    ops = BimoduleOps.of_algebra(B)
    dh = hoch_d(identity_cochain(B), ops)
    mu = multiplication_cochain(B)
    for w in words_of(B.space.keys, 2):
        assert dh.value(w) == mu.value(w)


def test_dh_of_unit_vanishes(aff1):
    B = algebra(aff1)
    ops = BimoduleOps.of_algebra(B)
    dh = hoch_d(unit_cochain(B), ops)
    for w in words_of(B.space.keys, 1):
        assert dh.value(w).is_zero()


def test_partial_vanishes_without_differentials(abelian2):
    B = algebra(abelian2)          # abelian dual algebra carries d = 0
    ops = BimoduleOps.of_algebra(B)
    f = random_cochain(B, B, 2, -1, 3, label="f")
    dp = hoch_partial(f, ops)
    for w in words_of(B.space.keys, 2)[:30]:
        assert dp.value(w).is_zero()


def test_cup_of_constants_multiplies(aff1):
    B = algebra(aff1)
    f = Cochain(B, B, 0, 0, columns={(): GradedVector.basis(B.space, (0,))})
    g = Cochain(B, B, 0, 1, columns={(): GradedVector.basis(B.space, (1,))})
    fg = cup(f, g)
    assert fg.value(()) == B.mul(f.value(()), g.value(()))


def test_circ_examples(aff1):
    B = algebra(aff1)
    mu = multiplication_cochain(B)
    ident = identity_cochain(B)
    f = random_cochain(B, B, 1, 1, 17, label="f")
    comp = circ(f, random_cochain(B, B, 2, 0, 18, label="g"), 1)
    assert comp.p == 2 and comp.r == 1
    # identity insertion returns the cochain
    g2 = random_cochain(B, B, 2, -1, 19, label="h")
    for i in (1, 2):
        ins = circ(g2, ident, i)
        for w in words_of(B.space.keys, 2)[:16]:
            assert ins.value(w) == g2.value(w)
    # associativity defect of the multiplication vanishes
    defect1 = circ(mu, mu, 1)
    defect2 = circ(mu, mu, 2)
    for w in words_of(B.space.keys, 3)[:64]:
        assert defect1.value(w) == defect2.value(w)


def test_circ_out_of_range(aff1):
    B = algebra(aff1)
    mu = multiplication_cochain(B)
    with pytest.raises(StructuralError):
        circ(mu, mu, 3)


def test_axioms_suite_aff1(aff1):
    report = suite_hochschild_axioms(aff1, trials=40, seed=1)
    assert report.ok, [c.name for c in report.checks if not c.ok]


def test_ground_field_cohomology():
    k = ground_field()
    assert interior_hh(k, 0, 3)[0] == 1
    assert interior_hh(k, 1, 3)[0] == 0
    assert interior_hh(k, 2, 3)[0] == 0


def test_interior_growth_matches_brute_force(abelian1):
    """One new class per unit of arity window for the two-point algebra."""
    A = algebra(abelian1)
    for P in (2, 3, 4, 5):
        dim, reps = interior_hh(A, 0, P)
        assert dim == P
    # brute-force: the degree-zero cocycles at arity p are spanned by the
    # single map sending the top word to the unit
    ops = BimoduleOps.of_algebra(A)
    x = (0,)
    for p in range(1, 4):
        cols = {tuple([x] * p): A.unit()}
        f = Cochain(A, A, p, -p, columns=cols)
        dh = hoch_d(f, ops)
        for w in words_of(A.space.keys, p + 1):
            assert dh.value(w).is_zero()


def test_interior_reporting_is_conservative(abelian1):
    """Representatives live strictly below the window arity."""
    A = algebra(abelian1)
    dim, reps = interior_hh(A, 0, 3)
    for rep in reps:
        for (p, word, vkey) in rep.coeffs:
            assert p <= 2


def test_sum_and_product_totals_agree_at_finite_window(abelian1):
    """Finitely many bidegrees per window, so both totalizations coincide."""
    A = algebra(abelian1)
    from hochduflo.hochschild import total_cochain_space
    space = total_cochain_space(A, A.space, 0, 4)
    assert space.dim == sum(1 for _ in space.keys)


def test_bracket_derives_cup_modulo_coboundaries(aff1):
    """[f, g u h] - [f, g] u h -+ g u [f, h] is a coboundary on the window.

    Checked on aff1's dual odd algebra, over triples of cocycles: the
    closed elements, the derivations N1 (count the letters 1) and D1
    (eps^1 -> eps^0), their cup products and the multiplication.  Each
    input is first checked to be a cocycle of the total complex; a defect
    that is not zero is then tested in the image of the windowed total
    differential (``TotalSlice.is_boundary``), and some defects are.
    """
    A = algebra(aff1)
    ops = BimoduleOps.of_algebra(A)
    keys = A.space.keys

    def element(k):
        return Cochain(A, A, 0, A.space.degree[k], label=str(k),
                       columns={(): GradedVector.basis(A.space, k)})

    n1 = Cochain(A, A, 1, 0, label="N1", columns={
        (k,): GradedVector.basis(A.space, k, k.count(1)) for k in keys})
    d1 = Cochain(A, A, 1, 0, label="D1", columns={
        ((1,),): GradedVector.basis(A.space, (0,))})
    cocycles = [element(k) for k in keys if not A.d_key(k)]
    cocycles += [n1, d1, cup(n1, d1), cup(d1, n1), multiplication_cochain(A)]
    slices = {}

    def vector(f):
        cap = max(f.p, 1)
        if (f.p + f.r, cap) not in slices:
            slices[f.p + f.r, cap] = TotalSlice(A, ops, f.p + f.r, cap)
        total = slices[f.p + f.r, cap]
        return total, total.vector({(f.p, f.r): f})

    for f in cocycles:
        total, v = vector(f)
        assert v and not total.d_out(v), f.label
    tested = 0
    for f, g, h in product(cocycles, repeat=3):
        lhs = gerstenhaber(f, cup(g, h))
        if lhs.p < 0:
            continue
        s = sgn((f.p + f.r - 1) * (g.p + g.r))
        total, defect = vector(lhs)
        defect -= vector(cup(gerstenhaber(f, g), h))[1]
        defect -= vector(cup(g, gerstenhaber(f, h)))[1].scale(s)
        if defect.is_zero():
            continue
        tested += 1
        assert total.is_boundary(defect), (f.label, g.label, h.label)
    assert tested
